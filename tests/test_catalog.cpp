#include "core/best_selection.hpp"
#include "core/catalog.hpp"
#include "core/export.hpp"
#include "core/filters.hpp"

#include "common/types.hpp"
#include "benchmarks/functions.hpp"
#include "physical_design/hexagonalization.hpp"
#include "physical_design/ortho.hpp"
#include "physical_design/portfolio.hpp"
#include "service/query.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

using namespace mnt;
using namespace mnt::cat;

namespace
{

/// Builds a small catalog: mux21 with a handful of layouts per library.
catalog make_catalog()
{
    catalog c;
    const auto network = bm::mux21();
    c.add_network("Trindade16", "2:1 MUX", network);

    // QCA ONE side: ortho baseline + portfolio results
    pd::portfolio_params params{};
    params.try_nanoplacer = false;  // keep the test fast
    params.exact_timeout_s = 1.0;
    params.input_orderings = 2;
    for (const auto& r : pd::run_cartesian_portfolio(network, params))
    {
        layout_record record{};
        record.benchmark_set = "Trindade16";
        record.benchmark_name = "2:1 MUX";
        record.library = gate_library_kind::qca_one;
        record.clocking = r.clocking;
        record.algorithm = r.algorithm;
        record.optimizations = r.optimizations;
        record.runtime = r.runtime;
        record.layout = r.layout;
        c.add_layout(std::move(record));
    }
    for (const auto& r : pd::run_hexagonal_portfolio(network, params))
    {
        layout_record record{};
        record.benchmark_set = "Trindade16";
        record.benchmark_name = "2:1 MUX";
        record.library = gate_library_kind::bestagon;
        record.clocking = r.clocking;
        record.algorithm = r.algorithm;
        record.optimizations = r.optimizations;
        record.runtime = r.runtime;
        record.layout = r.layout;
        c.add_layout(std::move(record));
    }
    return c;
}

}  // namespace

TEST(CatalogTest, NetworkRegistration)
{
    catalog c;
    c.add_network("S", "f", bm::mux21());
    EXPECT_EQ(c.num_networks(), 1u);
    const auto* n = c.find_network("S", "f");
    ASSERT_NE(n, nullptr);
    EXPECT_EQ(n->num_pis, 3u);
    EXPECT_EQ(n->num_pos, 1u);
    EXPECT_EQ(n->num_gates, 4u);
    EXPECT_EQ(c.find_network("S", "zzz"), nullptr);
    EXPECT_THROW(c.add_network("S", "f", bm::mux21()), precondition_error);
}

TEST(CatalogTest, LayoutMetricsDerivedAutomatically)
{
    catalog c;
    layout_record record{};
    record.benchmark_set = "S";
    record.benchmark_name = "f";
    record.layout = pd::ortho(bm::mux21());
    c.add_layout(std::move(record));

    const auto& r = c.layouts().front();
    EXPECT_EQ(r.area, r.layout.area());
    EXPECT_EQ(r.width, r.layout.width());
    EXPECT_GT(r.num_gates, 0u);
}

TEST(CatalogTest, GateLibraryNames)
{
    EXPECT_EQ(gate_library_name(gate_library_kind::qca_one), "QCA ONE");
    EXPECT_EQ(gate_library_from_name("bestagon"), gate_library_kind::bestagon);
    EXPECT_EQ(gate_library_from_name("QCA ONE"), gate_library_kind::qca_one);
    EXPECT_THROW(static_cast<void>(gate_library_from_name("cmos")), mnt_error);
}

TEST(FilterTest, LibraryFacet)
{
    const auto c = make_catalog();
    const svc::query_engine engine{c};
    filter_query query{};
    query.libraries = {gate_library_kind::bestagon};
    const auto selection = engine.filter(query);
    EXPECT_FALSE(selection.empty());
    for (const auto* r : selection)
    {
        EXPECT_EQ(r->library, gate_library_kind::bestagon);
        EXPECT_EQ(r->clocking, "ROW");
    }
}

TEST(FilterTest, AlgorithmAndOptimizationFacets)
{
    const auto c = make_catalog();
    const svc::query_engine engine{c};

    filter_query exact_only{};
    exact_only.algorithms = {"exact"};
    for (const auto* r : engine.filter(exact_only))
    {
        EXPECT_EQ(r->algorithm, "exact");
    }

    filter_query with_45{};
    with_45.required_optimizations = {"45°"};
    const auto hex_selection = engine.filter(with_45);
    EXPECT_FALSE(hex_selection.empty());
    for (const auto* r : hex_selection)
    {
        EXPECT_EQ(r->library, gate_library_kind::bestagon);
    }
}

TEST(FilterTest, BestOnlyKeepsOnePerLibrary)
{
    const auto c = make_catalog();
    filter_query query{};
    query.best_only = true;
    const auto selection = svc::query_engine{c}.filter(query);
    EXPECT_EQ(selection.size(), 2u);  // one per library
}

TEST(FilterTest, FacetCountsAreConsistent)
{
    const auto c = make_catalog();
    svc::page_query everything{};
    everything.limit = 0;
    const auto facets = svc::query_engine{c}.run(everything).facets;
    EXPECT_EQ(facets.per_set.at("Trindade16"), c.num_layouts());
    std::size_t by_library = 0;
    for (const auto& [name, count] : facets.per_library)
    {
        by_library += count;
    }
    EXPECT_EQ(by_library, c.num_layouts());
    EXPECT_GT(facets.per_algorithm.at("ortho"), 0u);
}

TEST(BestSelectionTest, BestBeatsOrEqualsBaseline)
{
    const auto c = make_catalog();
    for (const auto library : {gate_library_kind::qca_one, gate_library_kind::bestagon})
    {
        const auto entry = select_best(c, "Trindade16", "2:1 MUX", library);
        ASSERT_NE(entry.best, nullptr) << gate_library_name(library);
        ASSERT_NE(entry.baseline, nullptr) << gate_library_name(library);
        EXPECT_LE(entry.best->area, entry.baseline->area);
        ASSERT_TRUE(entry.delta_area_percent.has_value());
        EXPECT_LE(*entry.delta_area_percent, 0.0);
    }
}

TEST(BestSelectionTest, BaselineLabels)
{
    EXPECT_EQ(baseline_label(gate_library_kind::qca_one), "ortho");
    EXPECT_EQ(baseline_label(gate_library_kind::bestagon), "ortho, 45°");
}

TEST(BestSelectionTest, MissingFunctionYieldsNull)
{
    const auto c = make_catalog();
    const auto entry = select_best(c, "Trindade16", "nonexistent", gate_library_kind::qca_one);
    EXPECT_EQ(entry.best, nullptr);
}

TEST(ExportTest, SanitizeFilename)
{
    EXPECT_EQ(sanitize_filename("Trindade16_2:1 MUX"), "Trindade16_2_1_MUX");
    EXPECT_EQ(sanitize_filename("ortho, InOrd (SDN), 45°"), "ortho_InOrd_SDN_45");
    EXPECT_EQ(sanitize_filename("***"), "unnamed");
}

TEST(ExportTest, WritesNetworksAndLayouts)
{
    const auto c = make_catalog();
    filter_query query{};
    query.best_only = true;
    const auto selection = svc::query_engine{c}.filter(query);

    const auto dir = std::filesystem::temp_directory_path() / "mnt_export_test";
    std::filesystem::remove_all(dir);
    const auto report = export_selection(c, selection, dir);

    // 1 network + 2 layouts
    EXPECT_EQ(report.written.size(), 3u);
    std::size_t fgl = 0;
    std::size_t verilog = 0;
    for (const auto& p : report.written)
    {
        EXPECT_TRUE(std::filesystem::exists(p)) << p;
        fgl += p.extension() == ".fgl" ? 1 : 0;
        verilog += p.extension() == ".v" ? 1 : 0;
    }
    EXPECT_EQ(fgl, 2u);
    EXPECT_EQ(verilog, 1u);
    std::filesystem::remove_all(dir);
}
