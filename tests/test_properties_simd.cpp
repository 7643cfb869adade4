/// \file test_properties_simd.cpp
/// \brief Differential property suites for the SIMD row kernels: every
///        vectorized path (gate-row evaluation, mismatch scan, row-batched
///        network simulation, row-batched wave simulation, both equivalence
///        checkers) must be bit-identical to the scalar reference — same
///        words, same verdicts, same first-failure reason strings.
///
/// On hosts without AVX2 the cross-backend suites skip (there is only one
/// backend to compare); the batched-vs-per-word suites always run, since the
/// batching itself must be lossless regardless of the active kernels.

#include "proptest_gtest.hpp"

#include "common/resilience.hpp"
#include "common/types.hpp"
#include "io/verilog_writer.hpp"
#include "network/gate_type.hpp"
#include "network/simulation.hpp"
#include "physical_design/ortho.hpp"
#include "testing/generators.hpp"
#include "testing/oracles.hpp"
#include "testing/shrink.hpp"
#include "verification/equivalence.hpp"
#include "verification/simd/simd.hpp"
#include "verification/wave_simulation.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

namespace
{

using namespace mnt;

/// Restores the default (environment-resolved) backend when a test scope
/// that forced one via set_backend unwinds.
struct backend_guard
{
    backend_guard() = default;
    backend_guard(const backend_guard&) = delete;
    backend_guard& operator=(const backend_guard&) = delete;
    ~backend_guard()
    {
        simd::reset_backend();
    }
};

/// The backends available on this host (scalar always; avx2 when supported).
std::vector<simd::backend> available_backends()
{
    std::vector<simd::backend> backends{simd::backend::scalar};
    if (simd::avx2_supported())
    {
        backends.push_back(simd::backend::avx2);
    }
    return backends;
}

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

// --------------------------------------------------------------- gate_row

/// One randomized gate-row case: a gate type and three fanin rows.
struct gate_row_case
{
    ntk::gate_type type{ntk::gate_type::and2};
    std::vector<std::uint64_t> a;
    std::vector<std::uint64_t> b;
    std::vector<std::uint64_t> c;
};

gate_row_case random_gate_row_case(pbt::rng& random)
{
    gate_row_case value{};
    value.type = static_cast<ntk::gate_type>(random.below(ntk::num_gate_types));
    // cover the empty row, sub-vector-width rows, vector tails and long rows
    const auto n = static_cast<std::size_t>(random.below(66));
    value.a.resize(n);
    value.b.resize(n);
    value.c.resize(n);
    for (std::size_t i = 0; i < n; ++i)
    {
        value.a[i] = random.next();
        value.b[i] = random.next();
        value.c[i] = random.next();
    }
    return value;
}

TEST(SimdGateRow, Avx2MatchesScalarBitForBit)
{
    if (!simd::avx2_supported())
    {
        GTEST_SKIP() << "AVX2 not available on this host";
    }
    const auto config = pbt::current_test_config("simd.gate_row.differential", 300);
    pbt::property<gate_row_case> prop{};
    prop.generate = &random_gate_row_case;
    prop.check = [](const gate_row_case& value, const res::deadline_clock&)
    {
        const auto scalar = simd::kernels_for(simd::backend::scalar);
        const auto avx2 = simd::kernels_for(simd::backend::avx2);
        const auto n = value.a.size();
        std::vector<std::uint64_t> expected(n, 0xa5a5a5a5a5a5a5a5ull);
        std::vector<std::uint64_t> actual(n, 0x5a5a5a5a5a5a5a5aull);
        scalar.gate_row(value.type, expected.data(), value.a.data(), value.b.data(), value.c.data(), n);
        avx2.gate_row(value.type, actual.data(), value.a.data(), value.b.data(), value.c.data(), n);
        if (expected != actual)
        {
            return pbt::oracle_result::fail(std::string{"gate_row diverges for "} +
                                            std::string{ntk::gate_type_name(value.type)});
        }
        // the documented dst==a aliasing must hold on both backends
        auto alias_scalar = value.a;
        auto alias_avx2 = value.a;
        scalar.gate_row(value.type, alias_scalar.data(), alias_scalar.data(), value.b.data(), value.c.data(), n);
        avx2.gate_row(value.type, alias_avx2.data(), alias_avx2.data(), value.b.data(), value.c.data(), n);
        if (alias_scalar != expected || alias_avx2 != expected)
        {
            return pbt::oracle_result::fail(std::string{"aliased gate_row diverges for "} +
                                            std::string{ntk::gate_type_name(value.type)});
        }
        return pbt::oracle_result::pass();
    };
    prop.shrink = [](gate_row_case value, const std::function<bool(const gate_row_case&)>& still_fails)
    {
        // ddmin over the row length: shrink all three rows in lockstep
        std::vector<std::size_t> indexes(value.a.size());
        for (std::size_t i = 0; i < indexes.size(); ++i)
        {
            indexes[i] = i;
        }
        const auto kept = pbt::shrink_sequence<std::size_t>(
            std::move(indexes),
            [&](const std::vector<std::size_t>& candidate)
            {
                gate_row_case probe{};
                probe.type = value.type;
                for (const auto i : candidate)
                {
                    probe.a.push_back(value.a[i]);
                    probe.b.push_back(value.b[i]);
                    probe.c.push_back(value.c[i]);
                }
                return still_fails(probe);
            },
            200);
        gate_row_case shrunk{};
        shrunk.type = value.type;
        for (const auto i : kept)
        {
            shrunk.a.push_back(value.a[i]);
            shrunk.b.push_back(value.b[i]);
            shrunk.c.push_back(value.c[i]);
        }
        return still_fails(shrunk) ? shrunk : value;
    };
    prop.show = [](const gate_row_case& value)
    {
        return std::string{ntk::gate_type_name(value.type)} + " n=" + std::to_string(value.a.size()) +
               "\na: " + hex_words(value.a) + "\nb: " + hex_words(value.b) + "\nc: " + hex_words(value.c);
    };
    MNT_RUN_PROPERTY(config, prop);
}

// --------------------------------------------------------------- mismatch

TEST(SimdMismatch, Avx2AgreesWithScalarOnFirstDivergence)
{
    if (!simd::avx2_supported())
    {
        GTEST_SKIP() << "AVX2 not available on this host";
    }
    const auto config = pbt::current_test_config("simd.mismatch.differential", 300);
    using rows = std::pair<std::vector<std::uint64_t>, std::vector<std::uint64_t>>;
    pbt::property<rows> prop{};
    prop.generate = [](pbt::rng& random)
    {
        const auto n = static_cast<std::size_t>(random.below(66));
        rows value{};
        value.first.resize(n);
        for (auto& w : value.first)
        {
            w = random.next();
        }
        value.second = value.first;
        // half the cases plant 1..3 divergences at random positions; the
        // rest stay equal (the mismatch == n path)
        if (n > 0 && random.chance(1, 2))
        {
            const auto flips = random.range(1, 3);
            for (std::uint64_t f = 0; f < flips; ++f)
            {
                value.second[random.below(n)] ^= 1ull << random.below(64);
            }
        }
        return value;
    };
    prop.check = [](const rows& value, const res::deadline_clock&)
    {
        const auto scalar = simd::kernels_for(simd::backend::scalar);
        const auto avx2 = simd::kernels_for(simd::backend::avx2);
        const auto n = value.first.size();
        const auto expected = scalar.mismatch(value.first.data(), value.second.data(), n);
        const auto actual = avx2.mismatch(value.first.data(), value.second.data(), n);
        if (expected != actual)
        {
            return pbt::oracle_result::fail("mismatch index diverges: scalar=" + std::to_string(expected) +
                                            " avx2=" + std::to_string(actual));
        }
        return pbt::oracle_result::pass();
    };
    prop.show = [](const rows& value)
    { return "a: " + hex_words(value.first) + "\nb: " + hex_words(value.second); };
    MNT_RUN_PROPERTY(config, prop);
}

// ----------------------------------------------------------- simulate_rows

/// A network plus a batch of random PI input rows.
struct rows_case
{
    ntk::logic_network network;
    std::vector<std::uint64_t> pi_rows;
    std::size_t n{0};
};

TEST(SimdSimulateRows, MatchesPerWordSimulationOnEveryBackend)
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
        const backend_guard guard{};
        for (const auto backend : available_backends())
        {
            simd::set_backend(backend);
            const auto batched = ntk::simulate_rows(value.network, value.pi_rows, value.n);
            const auto pos = value.network.num_pos();
            if (batched.size() != pos * value.n)
            {
                return pbt::oracle_result::fail(std::string{"wrong result size on "} +
                                                std::string{simd::backend_name(backend)});
            }
            for (std::size_t o = 0; o < pos; ++o)
            {
                for (std::size_t i = 0; i < value.n; ++i)
                {
                    if (batched[o * value.n + i] != reference[i][o])
                    {
                        return pbt::oracle_result::fail(
                            "PO " + std::to_string(o) + " word " + std::to_string(i) + " diverges on " +
                            std::string{simd::backend_name(backend)});
                    }
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

TEST(SimdWaveBlock, MatchesPerWordWaveSimulationOnEveryBackend)
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

        const backend_guard guard{};
        for (const auto backend : available_backends())
        {
            simd::set_backend(backend);
            const auto block = ver::wave_simulate_block(layout, value.pi_rows, value.n);
            if (block.stabilized != all_stable)
            {
                return pbt::oracle_result::fail(std::string{"stabilized flag diverges on "} +
                                                std::string{simd::backend_name(backend)});
            }
            if (block.po_names != reference.front().po_names)
            {
                return pbt::oracle_result::fail(std::string{"PO name order diverges on "} +
                                                std::string{simd::backend_name(backend)});
            }
            if (all_stable && block.settle_ticks != max_settle)
            {
                return pbt::oracle_result::fail(
                    "settle_ticks diverges on " + std::string{simd::backend_name(backend)} + ": block=" +
                    std::to_string(block.settle_ticks) + " max(per-word)=" + std::to_string(max_settle));
            }
            const auto pos = block.po_names.size();
            for (std::size_t o = 0; o < pos && all_stable; ++o)
            {
                for (std::size_t i = 0; i < value.n; ++i)
                {
                    if (block.po_rows[o * value.n + i] != reference[i].po_words[o])
                    {
                        return pbt::oracle_result::fail("PO '" + block.po_names[o] + "' word " +
                                                        std::to_string(i) + " diverges on " +
                                                        std::string{simd::backend_name(backend)});
                    }
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

// ------------------------------------------------- end-to-end equivalence

/// A specification network and a candidate network (sometimes a completely
/// different function, so the mismatch reporting path is exercised too).
struct equivalence_case
{
    ntk::logic_network spec;
    ntk::logic_network candidate;
};

TEST(SimdEquivalence, VerdictAndReasonIdenticalAcrossBackends)
{
    if (!simd::avx2_supported())
    {
        GTEST_SKIP() << "AVX2 not available on this host";
    }
    const auto config = pbt::current_test_config("simd.equivalence.differential", 200);
    pbt::property<equivalence_case> prop{};
    prop.generate = [](pbt::rng& random)
    {
        equivalence_case value;
        value.spec = pbt::random_network(random);
        if (random.chance(1, 2))
        {
            value.candidate = value.spec;  // the equivalent path
        }
        else
        {
            // an independent network: usually inequivalent, sometimes with
            // mismatched interfaces — every reporting branch must agree
            value.candidate = pbt::random_network(random);
        }
        return value;
    };
    prop.check = [](const equivalence_case& value, const res::deadline_clock&)
    {
        const backend_guard guard{};
        simd::set_backend(simd::backend::scalar);
        const auto expected = ver::check_equivalence(value.spec, value.candidate);
        simd::set_backend(simd::backend::avx2);
        const auto actual = ver::check_equivalence(value.spec, value.candidate);
        if (expected.equivalent != actual.equivalent || expected.formal != actual.formal ||
            expected.reason != actual.reason)
        {
            return pbt::oracle_result::fail("check_equivalence diverges: scalar={" +
                                            std::to_string(expected.equivalent) + ", '" + expected.reason +
                                            "'} avx2={" + std::to_string(actual.equivalent) + ", '" +
                                            actual.reason + "'}");
        }
        return pbt::oracle_result::pass();
    };
    prop.show = [](const equivalence_case& value)
    {
        return io::write_verilog_string(value.spec, io::verilog_style::primitives) + "\n-- candidate --\n" +
               io::write_verilog_string(value.candidate, io::verilog_style::primitives);
    };
    MNT_RUN_PROPERTY(config, prop);
}

TEST(SimdWaveEquivalence, VerdictAndReasonIdenticalAcrossBackends)
{
    if (!simd::avx2_supported())
    {
        GTEST_SKIP() << "AVX2 not available on this host";
    }
    const auto config = pbt::current_test_config("simd.wave_equivalence.differential", 100);
    pbt::property<equivalence_case> prop{};
    prop.generate = [](pbt::rng& random)
    {
        equivalence_case value;
        pbt::network_spec spec{};
        spec.max_pis = 4;
        spec.max_gates = 10;
        value.spec = pbt::random_network(random, spec);
        // half the cases check the layout against a different function to
        // exercise the steady-state mismatch reporting path
        value.candidate = random.chance(1, 2) ? value.spec : pbt::random_network(random, spec);
        return value;
    };
    prop.check = [](const equivalence_case& value, const res::deadline_clock& deadline)
    {
        if (pbt::has_constant_po(value.candidate))
        {
            return pbt::oracle_result::pass();
        }
        pd::ortho_params params{};
        params.deadline = deadline;
        const auto layout = pd::ortho(value.candidate, params);
        const backend_guard guard{};
        simd::set_backend(simd::backend::scalar);
        const auto expected = ver::check_wave_equivalence(value.spec, layout);
        simd::set_backend(simd::backend::avx2);
        const auto actual = ver::check_wave_equivalence(value.spec, layout);
        if (expected.equivalent != actual.equivalent || expected.stabilized != actual.stabilized ||
            expected.reason != actual.reason)
        {
            return pbt::oracle_result::fail("check_wave_equivalence diverges: scalar={" +
                                            std::to_string(expected.equivalent) + ", '" + expected.reason +
                                            "'} avx2={" + std::to_string(actual.equivalent) + ", '" +
                                            actual.reason + "'}");
        }
        return pbt::oracle_result::pass();
    };
    prop.show = [](const equivalence_case& value)
    {
        return io::write_verilog_string(value.spec, io::verilog_style::primitives) + "\n-- candidate --\n" +
               io::write_verilog_string(value.candidate, io::verilog_style::primitives);
    };
    MNT_RUN_PROPERTY(config, prop);
}

// ------------------------------------------------------------- dispatcher

TEST(SimdDispatch, BackendSelectionContract)
{
    const backend_guard guard{};
    EXPECT_EQ(simd::backend_name(simd::backend::scalar), std::string_view{"scalar"});
    EXPECT_EQ(simd::backend_name(simd::backend::avx2), std::string_view{"avx2"});

    simd::set_backend(simd::backend::scalar);
    EXPECT_EQ(simd::active_backend(), simd::backend::scalar);

    if (simd::avx2_supported())
    {
        simd::set_backend(simd::backend::avx2);
        EXPECT_EQ(simd::active_backend(), simd::backend::avx2);
    }
    else
    {
        // forcing an unsupported backend is a caller error
        EXPECT_THROW(simd::set_backend(simd::backend::avx2), precondition_error);
    }

    simd::reset_backend();
    const auto resolved = simd::active_backend();
    EXPECT_TRUE(resolved == simd::backend::scalar || simd::avx2_supported());
}

}  // namespace
