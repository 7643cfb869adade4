#include "physical_design/portfolio.hpp"

#include "telemetry/report.hpp"
#include "telemetry/telemetry.hpp"
#include "test_networks.hpp"
#include "verification/equivalence.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <string>

using namespace mnt;
using namespace mnt::pd;
using namespace mnt::test;

namespace
{

portfolio_params fast_params()
{
    portfolio_params params{};
    params.exact_timeout_s = 2.0;
    params.nanoplacer_iterations = 200;
    params.input_orderings = 3;
    params.verify = true;  // every layout is checked against the network
    return params;
}

bool has_algorithm(const std::vector<layout_result>& results, const std::string& algo)
{
    return std::any_of(results.cbegin(), results.cend(),
                       [&](const layout_result& r) { return r.algorithm == algo; });
}

}  // namespace

TEST(PortfolioTest, CartesianPortfolioOnMux)
{
    const auto network = mux21();
    const auto results = run_cartesian_portfolio(network, fast_params());

    ASSERT_FALSE(results.empty());
    EXPECT_TRUE(has_algorithm(results, "ortho"));
    EXPECT_TRUE(has_algorithm(results, "exact"));
    EXPECT_TRUE(has_algorithm(results, "NPR"));

    // verify=true already checked equivalence; check provenance metadata
    for (const auto& r : results)
    {
        EXPECT_FALSE(r.clocking.empty());
        EXPECT_GE(r.runtime, 0.0);
        EXPECT_EQ(r.layout.layout_name(), "mux21");
    }
}

TEST(PortfolioTest, BestByAreaIsMinimal)
{
    const auto network = mux21();
    const auto results = run_cartesian_portfolio(network, fast_params());
    const auto* best = best_by_area(results);
    ASSERT_NE(best, nullptr);
    for (const auto& r : results)
    {
        EXPECT_LE(best->layout.area(), r.layout.area());
    }
}

TEST(PortfolioTest, ExactSkippedOnLargeFunctions)
{
    const auto network = random_network(5, 60, 3, 61);
    auto params = fast_params();
    params.nanoplacer_max_nodes = 10;  // also skip NPR to keep it fast
    const auto results = run_cartesian_portfolio(network, params);
    EXPECT_FALSE(has_algorithm(results, "exact"));
    EXPECT_FALSE(has_algorithm(results, "NPR"));
    EXPECT_TRUE(has_algorithm(results, "ortho"));
}

TEST(PortfolioTest, HexagonalPortfolioProducesRowLayouts)
{
    const auto network = half_adder();
    const auto results = run_hexagonal_portfolio(network, fast_params());
    ASSERT_FALSE(results.empty());
    for (const auto& r : results)
    {
        EXPECT_EQ(r.layout.topology(), lyt::layout_topology::hexagonal_even_row);
        EXPECT_EQ(r.clocking, "ROW");
    }
    // the 45° pipeline must be present
    EXPECT_TRUE(std::any_of(results.cbegin(), results.cend(),
                            [](const layout_result& r)
                            {
                                return std::find(r.optimizations.cbegin(), r.optimizations.cend(), "45°") !=
                                       r.optimizations.cend();
                            }));
}

TEST(PortfolioTest, LabelsMatchPaperNotation)
{
    layout_result r{lyt::gate_level_layout{"x", lyt::layout_topology::cartesian,
                                           lyt::clocking_scheme::twoddwave(), 2, 2},
                    "ortho",
                    {"InOrd (SDN)", "45°", "PLO"},
                    "ROW",
                    0.1};
    EXPECT_EQ(r.label(), "ortho, InOrd (SDN), 45°, PLO");
}

TEST(PortfolioTest, BestOfEmptyIsNull)
{
    EXPECT_EQ(best_by_area({}), nullptr);
}

TEST(PortfolioTest, NetworkOptimizationOption)
{
    // a redundant network: the optimizing portfolio must produce a smaller
    // (or equal) best layout, still equivalent to the ORIGINAL network
    ntk::logic_network network{"redundant"};
    const auto a = network.create_pi("a");
    const auto b = network.create_pi("b");
    const auto c = network.create_pi("c");
    const auto g1 = network.create_and(a, b);
    const auto g2 = network.create_and(a, b);  // clone
    network.create_po(network.create_or(g1, c), "y0");
    network.create_po(network.create_or(g2, c), "y1");

    auto params = fast_params();
    params.try_exact = false;
    params.try_nanoplacer = false;
    params.try_input_ordering = false;
    params.try_plo = false;

    const auto plain = run_cartesian_portfolio(network, params);
    params.optimize_network = true;
    const auto optimized = run_cartesian_portfolio(network, params);  // verify=true checks vs original

    const auto* best_plain = best_by_area(plain);
    const auto* best_optimized = best_by_area(optimized);
    ASSERT_NE(best_plain, nullptr);
    ASSERT_NE(best_optimized, nullptr);
    EXPECT_LE(best_optimized->layout.area(), best_plain->layout.area());
}

TEST(PortfolioTest, HexagonalPortfolioIncludesNpr)
{
    const auto network = half_adder();
    auto params = fast_params();
    params.try_exact = false;
    const auto results = run_hexagonal_portfolio(network, params);
    EXPECT_TRUE(has_algorithm(results, "NPR"));
    for (const auto& r : results)
    {
        EXPECT_EQ(r.layout.topology(), lyt::layout_topology::hexagonal_even_row);
    }
}

TEST(PortfolioTest, WorkerPoolIsDeterministic)
{
    // any --jobs value must produce the same layouts in the same order
    const auto network = half_adder();
    auto params = fast_params();
    params.exact_timeout_s = 1.0;

    const auto combo_of = [](const layout_result& r)
    {
        std::string combo = r.algorithm + "@" + r.clocking;
        for (const auto& opt : r.optimizations)
        {
            combo += "+" + opt;
        }
        return combo + "#" + std::to_string(r.layout.area());
    };
    const auto signature = [&](const std::vector<layout_result>& results)
    {
        std::vector<std::string> sig;
        sig.reserve(results.size());
        for (const auto& r : results)
        {
            sig.push_back(combo_of(r));
        }
        return sig;
    };

    const auto serial = run_cartesian_portfolio(network, params);
    params.jobs = 3;
    const auto parallel = run_cartesian_portfolio(network, params);
    params.jobs = 16;
    const auto oversubscribed = run_cartesian_portfolio(network, params);

    EXPECT_EQ(signature(serial), signature(parallel));
    EXPECT_EQ(signature(serial), signature(oversubscribed));
}

TEST(PortfolioTest, CachedCombinationsAreSkipped)
{
    tel::set_enabled(true);
    tel::registry::instance().reset();

    const auto network = mux21();
    auto params = fast_params();
    params.try_exact = false;
    params.try_nanoplacer = false;

    const auto full = run_cartesian_portfolio(network, params);
    ASSERT_FALSE(full.empty());

    // a cache that already holds every ortho combination: nothing to do
    params.is_cached = [](const std::string& combo) { return combo.rfind("ortho@", 0) == 0; };
    const auto cached = run_cartesian_portfolio(network, params);
    EXPECT_TRUE(cached.empty());

    const auto report = tel::capture_report();
    tel::registry::instance().reset();
    tel::set_enabled(false);

    // one hit per cached base combination (a cached base also skips its
    // PLO follow-up without a separate hit)
    std::uint64_t hits = 0;
    for (const auto& c : report.counters)
    {
        if (c.name == "portfolio.cache_hits")
        {
            hits = c.value;
        }
    }
    EXPECT_GE(hits, 1u);
}

TEST(PortfolioTest, CacheConsultedUnderWorkerPool)
{
    const auto network = mux21();
    auto params = fast_params();
    params.try_exact = false;
    params.jobs = 4;
    params.is_cached = [](const std::string&) { return true; };
    EXPECT_TRUE(run_cartesian_portfolio(network, params).empty());
    EXPECT_TRUE(run_hexagonal_portfolio(network, params).empty());
}

TEST(PortfolioTest, EmitsSpanPerAttemptedCombination)
{
    tel::set_enabled(true);
    tel::registry::instance().reset();

    const auto network = mux21();
    const auto results = run_cartesian_portfolio(network, fast_params());
    const auto hexagonal_results = run_hexagonal_portfolio(network, fast_params());
    const auto report = tel::capture_report();

    tel::registry::instance().reset();
    tel::set_enabled(false);

    ASSERT_NE(report.trace, nullptr);
    const tel::span_node* portfolio_span = nullptr;
    const tel::span_node* hexagonal_span = nullptr;
    for (const auto& child : report.trace->children)
    {
        if (child->name == "portfolio/cartesian")
        {
            portfolio_span = child.get();
        }
        if (child->name == "portfolio/hexagonal")
        {
            hexagonal_span = child.get();
        }
    }
    ASSERT_NE(portfolio_span, nullptr);
    ASSERT_NE(hexagonal_span, nullptr);
    EXPECT_EQ(portfolio_span->calls, 1U);
    ASSERT_FALSE(hexagonal_results.empty());

    // PLO and hexagonalization open their own span inside every attempt of
    // the combinations that run them, and nowhere else
    const auto child_calls = [](const tel::span_node& node, const std::string& name)
    {
        std::uint64_t calls = 0;
        for (const auto& child : node.children)
        {
            calls += child->name == name ? child->calls : 0;
        }
        return calls;
    };
    std::uint64_t plo_calls = 0;
    std::uint64_t hexagonalization_calls = 0;
    for (const auto* top : {portfolio_span, hexagonal_span})
    {
        for (const auto& combo : top->children)
        {
            const auto& name = combo->name;
            const auto plo = name.size() > 4 && name.compare(name.size() - 4, 4, "+PLO") == 0;
            const auto hexagonalized = !plo && name.find("+45°") != std::string::npos;
            EXPECT_EQ(child_calls(*combo, "plo"), plo ? combo->calls : 0) << name;
            EXPECT_EQ(child_calls(*combo, "hexagonalization"), hexagonalized ? combo->calls : 0) << name;
            plo_calls += child_calls(*combo, "plo");
            hexagonalization_calls += child_calls(*combo, "hexagonalization");
        }
    }
    EXPECT_GT(plo_calls, 0u);
    EXPECT_GT(hexagonalization_calls, 0u);

    // every produced layout corresponds to one "algo@clocking+opts" span
    for (const auto& r : results)
    {
        std::string combo = r.algorithm + "@" + r.clocking;
        for (const auto& opt : r.optimizations)
        {
            combo += "+" + opt;
        }
        const auto emitted =
            std::any_of(portfolio_span->children.cbegin(), portfolio_span->children.cend(),
                        [&](const auto& child) { return child->name == combo; });
        EXPECT_TRUE(emitted) << "no span for combination '" << combo << "'";
    }

    // verify = true: every layout opens verification/equivalence once, and
    // every layout of at most 400 occupied tiles verification/wave once,
    // both nested under the portfolio's verify span
    std::uint64_t equivalence_calls = 0;
    std::uint64_t wave_calls = 0;
    const std::function<void(const tel::span_node&)> walk = [&](const tel::span_node& node)
    {
        for (const auto& child : node.children)
        {
            if (child->name == "verification/equivalence" || child->name == "verification/wave")
            {
                EXPECT_EQ(node.name, "verify") << child->name << " opened outside the verify span";
                (child->name == "verification/equivalence" ? equivalence_calls : wave_calls) += child->calls;
            }
            walk(*child);
        }
    };
    walk(*report.trace);
    std::uint64_t layouts = 0;
    std::uint64_t small = 0;
    for (const auto* run : {&results, &hexagonal_results})
    {
        layouts += run->size();
        small += static_cast<std::uint64_t>(std::count_if(
            run->cbegin(), run->cend(), [](const layout_result& r) { return r.layout.num_occupied() <= 400; }));
    }
    EXPECT_EQ(equivalence_calls, layouts);
    EXPECT_EQ(wave_calls, small);
    EXPECT_GT(wave_calls, 0u);
}
