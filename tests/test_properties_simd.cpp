/// \file test_properties_simd.cpp
/// \brief Property suites for row-batched simulation: simulating n words per
///        input in one pass (`ntk::simulate_rows`, `ver::wave_simulate_block`)
///        must give, word for word, what n per-word runs (`simulate_word`,
///        `wave_simulate`) give. Both paths evaluate gates with
///        `ntk::evaluate_gate_word`; these properties check that batching
///        itself loses nothing: same output words, same PO order, same
///        stabilization and settle ticks.
///
/// The proptest config names keep their historic `simd.` prefix, so
/// `MNT_PROPTEST_SEED` replays of earlier failures still select the same
/// cases.

#include "proptest_gtest.hpp"

#include "common/resilience.hpp"
#include "io/verilog_writer.hpp"
#include "network/simulation.hpp"
#include "physical_design/ortho.hpp"
#include "testing/generators.hpp"
#include "testing/oracles.hpp"
#include "testing/shrink.hpp"
#include "verification/wave_simulation.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

namespace
{

using namespace mnt;

std::string hex_words(const std::vector<std::uint64_t>& words)
{
    std::ostringstream out;
    out << std::hex;
    for (const auto w : words)
    {
        out << "0x" << w << " ";
    }
    return out.str();
}

// ----------------------------------------------------------- simulate_rows

/// A network plus a batch of random PI input rows.
struct rows_case
{
    ntk::logic_network network;
    std::vector<std::uint64_t> pi_rows;
    std::size_t n{0};
};

TEST(SimdSimulateRows, MatchesPerWordSimulation)
{
    const auto config = pbt::current_test_config("simd.simulate_rows.differential", 200);
    pbt::property<rows_case> prop{};
    prop.generate = [](pbt::rng& random)
    {
        rows_case value;
        value.network = pbt::random_network(random);
        value.n = static_cast<std::size_t>(random.range(1, 9));
        value.pi_rows.resize(value.network.num_pis() * value.n);
        for (auto& w : value.pi_rows)
        {
            w = random.next();
        }
        return value;
    };
    prop.check = [](const rows_case& value, const res::deadline_clock&)
    {
        // per-word reference: one simulate_word call per word column
        const auto pis = value.network.num_pis();
        std::vector<std::vector<std::uint64_t>> reference(value.n);
        for (std::size_t i = 0; i < value.n; ++i)
        {
            std::vector<std::uint64_t> pi_words(pis);
            for (std::size_t p = 0; p < pis; ++p)
            {
                pi_words[p] = value.pi_rows[p * value.n + i];
            }
            reference[i] = ntk::simulate_word(value.network, pi_words);
        }
        const auto batched = ntk::simulate_rows(value.network, value.pi_rows, value.n);
        const auto pos = value.network.num_pos();
        if (batched.size() != pos * value.n)
        {
            return pbt::oracle_result::fail("wrong result size");
        }
        for (std::size_t o = 0; o < pos; ++o)
        {
            for (std::size_t i = 0; i < value.n; ++i)
            {
                if (batched[o * value.n + i] != reference[i][o])
                {
                    return pbt::oracle_result::fail("PO " + std::to_string(o) + " word " + std::to_string(i) +
                                                    " diverges");
                }
            }
        }
        return pbt::oracle_result::pass();
    };
    prop.shrink = [](rows_case value, const std::function<bool(const rows_case&)>& still_fails)
    {
        value.network = pbt::shrink_network(std::move(value.network),
                                            [&](const ntk::logic_network& candidate)
                                            {
                                                rows_case probe;
                                                probe.network = candidate;
                                                probe.n = value.n;
                                                probe.pi_rows.assign(candidate.num_pis() * value.n, 0);
                                                const auto limit =
                                                    std::min(probe.pi_rows.size(), value.pi_rows.size());
                                                for (std::size_t i = 0; i < limit; ++i)
                                                {
                                                    probe.pi_rows[i] = value.pi_rows[i];
                                                }
                                                return still_fails(probe);
                                            });
        value.pi_rows.resize(value.network.num_pis() * value.n, 0);
        return value;
    };
    prop.show = [](const rows_case& value)
    {
        return "n=" + std::to_string(value.n) + " rows: " + hex_words(value.pi_rows) + "\n" +
               io::write_verilog_string(value.network, io::verilog_style::primitives);
    };
    MNT_RUN_PROPERTY(config, prop);
}

// ------------------------------------------------------ wave_simulate_block

TEST(SimdWaveBlock, MatchesPerWordWaveSimulation)
{
    const auto config = pbt::current_test_config("simd.wave_block.differential", 100);
    pbt::property<rows_case> prop{};
    prop.generate = [](pbt::rng& random)
    {
        rows_case value;
        pbt::network_spec spec{};
        spec.max_pis = 4;
        spec.max_gates = 10;
        value.network = pbt::random_network(random, spec);
        value.n = static_cast<std::size_t>(random.range(1, 5));
        value.pi_rows.resize(value.network.num_pis() * value.n);
        for (auto& w : value.pi_rows)
        {
            w = random.next();
        }
        return value;
    };
    prop.check = [](const rows_case& value, const res::deadline_clock& deadline)
    {
        if (pbt::has_constant_po(value.network))
        {
            return pbt::oracle_result::pass();  // shrink probes may fold
        }
        pd::ortho_params params{};
        params.deadline = deadline;
        const auto layout = pd::ortho(value.network, params);
        const auto pis = layout.num_pis();
        if (value.pi_rows.size() != pis * value.n)
        {
            return pbt::oracle_result::pass();  // shrink probe changed the PI count
        }

        // per-word reference: one wave_simulate run per word column
        std::vector<ver::wave_result> reference(value.n);
        bool all_stable = true;
        std::size_t max_settle = 0;
        for (std::size_t i = 0; i < value.n; ++i)
        {
            std::vector<std::uint64_t> pi_words(pis);
            for (std::size_t p = 0; p < pis; ++p)
            {
                pi_words[p] = value.pi_rows[p * value.n + i];
            }
            reference[i] = ver::wave_simulate(layout, pi_words);
            all_stable = all_stable && reference[i].stabilized;
            max_settle = std::max(max_settle, reference[i].settle_ticks);
        }

        const auto block = ver::wave_simulate_block(layout, value.pi_rows, value.n);
        if (block.stabilized != all_stable)
        {
            return pbt::oracle_result::fail("stabilized flag diverges");
        }
        if (block.po_names != reference.front().po_names)
        {
            return pbt::oracle_result::fail("PO name order diverges");
        }
        if (all_stable && block.settle_ticks != max_settle)
        {
            return pbt::oracle_result::fail("settle_ticks diverges: block=" + std::to_string(block.settle_ticks) +
                                            " max(per-word)=" + std::to_string(max_settle));
        }
        const auto pos = block.po_names.size();
        for (std::size_t o = 0; o < pos && all_stable; ++o)
        {
            for (std::size_t i = 0; i < value.n; ++i)
            {
                if (block.po_rows[o * value.n + i] != reference[i].po_words[o])
                {
                    return pbt::oracle_result::fail("PO '" + block.po_names[o] + "' word " + std::to_string(i) +
                                                    " diverges");
                }
            }
        }
        return pbt::oracle_result::pass();
    };
    prop.shrink = [](rows_case value, const std::function<bool(const rows_case&)>& still_fails)
    {
        value.network = pbt::shrink_network(std::move(value.network),
                                            [&](const ntk::logic_network& candidate)
                                            {
                                                rows_case probe;
                                                probe.network = candidate;
                                                probe.n = value.n;
                                                probe.pi_rows.assign(candidate.num_pis() * value.n, 0);
                                                const auto limit =
                                                    std::min(probe.pi_rows.size(), value.pi_rows.size());
                                                for (std::size_t i = 0; i < limit; ++i)
                                                {
                                                    probe.pi_rows[i] = value.pi_rows[i];
                                                }
                                                return still_fails(probe);
                                            },
                                            100);
        value.pi_rows.resize(value.network.num_pis() * value.n, 0);
        return value;
    };
    prop.show = [](const rows_case& value)
    {
        return "n=" + std::to_string(value.n) + " rows: " + hex_words(value.pi_rows) + "\n" +
               io::write_verilog_string(value.network, io::verilog_style::primitives);
    };
    MNT_RUN_PROPERTY(config, prop);
}

}  // namespace
