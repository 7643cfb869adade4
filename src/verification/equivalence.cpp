#include "verification/equivalence.hpp"

#include "layout/layout_utils.hpp"
#include "network/simulation.hpp"
#include "telemetry/telemetry.hpp"

#include <algorithm>
#include <random>
#include <set>
#include <unordered_map>
#include <vector>

namespace mnt::ver
{

namespace
{

using ntk::logic_network;

/// Collects PI names in creation order.
std::vector<std::string> pi_names(const logic_network& network)
{
    std::vector<std::string> names;
    names.reserve(network.num_pis());
    network.foreach_pi([&](const logic_network::node pi) { names.push_back(network.name_of(pi)); });
    return names;
}

std::vector<std::string> po_names(const logic_network& network)
{
    std::vector<std::string> names;
    names.reserve(network.num_pos());
    network.foreach_po([&](const logic_network::node po) { names.push_back(network.name_of(po)); });
    return names;
}

/// Canonical variable pattern for variable index v within 64-assignment word w.
std::uint64_t variable_pattern(const std::size_t v, const std::uint64_t w)
{
    static constexpr std::uint64_t patterns[6] = {0xaaaaaaaaaaaaaaaaull, 0xccccccccccccccccull,
                                                  0xf0f0f0f0f0f0f0f0ull, 0xff00ff00ff00ff00ull,
                                                  0xffff0000ffff0000ull, 0xffffffff00000000ull};
    if (v < 6)
    {
        return patterns[v];
    }
    return (((w * 64ull) >> v) & 1ull) ? ~0ull : 0ull;
}

}  // namespace

equivalence_result check_equivalence(const logic_network& a, const logic_network& b,
                                     const equivalence_options& options)
{
    equivalence_result result{};

    const auto a_pis = pi_names(a);
    const auto b_pis = pi_names(b);
    if (std::set<std::string>(a_pis.cbegin(), a_pis.cend()) != std::set<std::string>(b_pis.cbegin(), b_pis.cend()))
    {
        result.reason = "primary input name sets differ";
        return result;
    }

    const auto a_pos = po_names(a);
    const auto b_pos = po_names(b);
    if (std::set<std::string>(a_pos.cbegin(), a_pos.cend()) != std::set<std::string>(b_pos.cbegin(), b_pos.cend()))
    {
        result.reason = "primary output name sets differ";
        return result;
    }

    // map PO name -> position per network for output matching
    std::unordered_map<std::string, std::size_t> a_po_index;
    std::unordered_map<std::string, std::size_t> b_po_index;
    for (std::size_t i = 0; i < a_pos.size(); ++i)
    {
        a_po_index.emplace(a_pos[i], i);
    }
    for (std::size_t i = 0; i < b_pos.size(); ++i)
    {
        b_po_index.emplace(b_pos[i], i);
    }
    if (a_po_index.size() != a_pos.size() || b_po_index.size() != b_pos.size())
    {
        result.reason = "duplicate primary output names";
        return result;
    }

    const auto k = a_pis.size();
    const bool formal = k <= options.formal_threshold;
    result.formal = formal;

    // Row-batched compare: `canonical_rows` holds one n-word row per PI in
    // a_pis order; both networks are simulated once per block with
    // simulate_rows, then words are compared in word-major order so the first
    // reported mismatch is the one a word-per-round loop would report.
    const auto compare_block = [&](const std::vector<std::uint64_t>& canonical_rows, const std::size_t n,
                                   const std::uint64_t mask) -> bool
    {
        std::unordered_map<std::string, const std::uint64_t*> row_by_name;
        row_by_name.reserve(k);
        for (std::size_t v = 0; v < k; ++v)
        {
            row_by_name.emplace(a_pis[v], canonical_rows.data() + v * n);
        }
        const auto rows_for = [&](const logic_network& network)
        {
            std::vector<std::uint64_t> rows;
            rows.reserve(network.num_pis() * n);
            network.foreach_pi(
                [&](const logic_network::node pi)
                {
                    const auto* row = row_by_name.at(network.name_of(pi));
                    rows.insert(rows.end(), row, row + n);
                });
            return rows;
        };
        const auto a_out = ntk::simulate_rows(a, rows_for(a), n);
        const auto b_out = ntk::simulate_rows(b, rows_for(b), n);
        for (std::size_t i = 0; i < n; ++i)
        {
            for (const auto& [name, ai] : a_po_index)
            {
                const auto bi = b_po_index.at(name);
                if ((a_out[ai * n + i] & mask) != (b_out[bi * n + i] & mask))
                {
                    result.reason = "output '" + name + "' differs";
                    return false;
                }
            }
        }
        return true;
    };

    constexpr std::uint64_t block_words = 256;
    std::vector<std::uint64_t> canonical_rows;

    if (formal)
    {
        const auto total_bits = 1ull << k;
        const auto num_words = std::max<std::uint64_t>(1, total_bits / 64);
        const auto mask = total_bits < 64 ? (1ull << total_bits) - 1ull : ~0ull;
        for (std::uint64_t w0 = 0; w0 < num_words; w0 += block_words)
        {
            const auto n = static_cast<std::size_t>(std::min(block_words, num_words - w0));
            canonical_rows.assign(k * n, 0ull);
            for (std::size_t v = 0; v < k; ++v)
            {
                for (std::size_t i = 0; i < n; ++i)
                {
                    canonical_rows[v * n + i] = variable_pattern(v, w0 + i);
                }
            }
            if (!compare_block(canonical_rows, n, mask))
            {
                return result;
            }
        }
    }
    else
    {
        std::mt19937_64 rng{options.seed};
        for (std::size_t r0 = 0; r0 < options.random_rounds; r0 += block_words)
        {
            const auto n = static_cast<std::size_t>(
                std::min<std::uint64_t>(block_words, static_cast<std::uint64_t>(options.random_rounds - r0)));
            canonical_rows.assign(k * n, 0ull);
            // round-major draw order: identical rng consumption to the former
            // one-round-at-a-time loop (one word per PI per round)
            for (std::size_t i = 0; i < n; ++i)
            {
                for (std::size_t v = 0; v < k; ++v)
                {
                    canonical_rows[v * n + i] = rng();
                }
            }
            if (!compare_block(canonical_rows, n, ~0ull))
            {
                return result;
            }
        }
    }

    result.equivalent = true;
    return result;
}

equivalence_result check_layout_equivalence(const logic_network& specification, const lyt::gate_level_layout& layout,
                                            const equivalence_options& options)
{
    MNT_SPAN("verification/equivalence");
    try
    {
        const auto extracted = lyt::extract_network(layout);
        return check_equivalence(specification, extracted, options);
    }
    catch (const mnt_error& e)
    {
        equivalence_result result{};
        result.reason = std::string{"layout extraction failed: "} + e.what();
        return result;
    }
}

}  // namespace mnt::ver
