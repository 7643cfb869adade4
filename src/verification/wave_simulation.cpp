#include "verification/wave_simulation.hpp"

#include "common/types.hpp"
#include "layout/layout_utils.hpp"
#include "network/gate_type.hpp"
#include "network/simulation.hpp"
#include "telemetry/telemetry.hpp"

#include <algorithm>
#include <array>
#include <cstdint>
#include <random>
#include <set>
#include <unordered_map>
#include <vector>

namespace mnt::ver
{

namespace
{

using lyt::coordinate;
using lyt::gate_level_layout;
using ntk::gate_type;

/// Dense tile-value table indexed like the layout grid. The wave simulators
/// read up to three fanin values per tile per tick, so the per-lookup hash
/// of a coordinate-keyed map dominates; a flat array addressed by
/// (z·h + y)·w + x makes every lookup a single indexed load.
class value_grid
{
  public:
    explicit value_grid(const gate_level_layout& layout) :
            w{static_cast<std::size_t>(layout.width())},
            h{static_cast<std::size_t>(layout.height())},
            values(2 * w * h, 0)
    {}

    [[nodiscard]] std::uint64_t operator[](const coordinate& c) const noexcept
    {
        return values[index_of(c)];
    }
    void set(const coordinate& c, const std::uint64_t v) noexcept
    {
        values[index_of(c)] = v;
    }

  private:
    [[nodiscard]] std::size_t index_of(const coordinate& c) const noexcept
    {
        return (static_cast<std::size_t>(c.z) * h + static_cast<std::size_t>(c.y)) * w +
               static_cast<std::size_t>(c.x);
    }

    std::size_t w;
    std::size_t h;
    std::vector<std::uint64_t> values;
};

}  // namespace

wave_result wave_simulate(const gate_level_layout& layout, const std::vector<std::uint64_t>& pi_words,
                          const wave_options& options)
{
    if (pi_words.size() != layout.num_pis())
    {
        throw precondition_error{"wave_simulate: one input word per PI required"};
    }

    // tile values; zero-initialized = the reset state
    value_grid values{layout};

    // group tiles by clock zone for fast per-tick iteration
    std::array<std::vector<coordinate>, 4> by_zone;
    layout.foreach_tile([&](const coordinate& c, const gate_level_layout::tile_data&)
                        { by_zone[layout.clock_number(c) % 4].push_back(c); });
    for (auto& zone : by_zone)
    {
        std::sort(zone.begin(), zone.end());
    }

    // fixed PI values
    value_grid pi_values{layout};
    for (std::size_t i = 0; i < layout.pi_tiles().size(); ++i)
    {
        pi_values.set(layout.pi_tiles()[i], pi_words[i]);
    }

    const auto max_ticks =
        options.max_ticks != 0 ? options.max_ticks : 8 * (layout.num_occupied() + 4) + 16;

    const auto value_of = [&](const coordinate& c) -> std::uint64_t { return values[c]; };

    wave_result result{};
    std::size_t stable_ticks = 0;

    for (std::size_t tick = 0; tick < max_ticks; ++tick)
    {
        bool changed = false;
        for (const auto& c : by_zone[tick % 4])
        {
            const auto& d = layout.get(c);
            std::uint64_t next{};
            if (d.type == gate_type::pi)
            {
                next = pi_values[c];
            }
            else
            {
                const auto& in = d.incoming;
                const auto a = !in.empty() ? value_of(in[0]) : 0ull;
                const auto b = in.size() > 1 ? value_of(in[1]) : 0ull;
                const auto e = in.size() > 2 ? value_of(in[2]) : 0ull;
                next = ntk::evaluate_gate_word(d.type, a, b, e);
            }
            if (value_of(c) != next)
            {
                values.set(c, next);
                changed = true;
            }
        }

        if (changed)
        {
            stable_ticks = 0;
        }
        else if (++stable_ticks >= 4)
        {
            // one full clock cycle without any change: steady state
            result.stabilized = true;
            result.settle_ticks = tick + 1 >= 4 ? tick + 1 - 4 : 0;
            break;
        }
    }

    for (const auto& po : layout.po_tiles())
    {
        result.po_words.push_back(value_of(po));
        result.po_names.push_back(layout.io_name_of(po));
    }
    if (!result.stabilized)
    {
        result.settle_ticks = max_ticks;
    }
    return result;
}

wave_block_result wave_simulate_block(const gate_level_layout& layout, const std::vector<std::uint64_t>& pi_rows,
                                      const std::size_t n, const wave_options& options)
{
    if (pi_rows.size() != layout.num_pis() * n)
    {
        throw precondition_error{"wave_simulate_block: num_pis * n input words required"};
    }

    const auto w = static_cast<std::size_t>(layout.width());
    const auto h = static_cast<std::size_t>(layout.height());
    const auto row_index = [&](const coordinate& c) -> std::size_t
    { return ((static_cast<std::size_t>(c.z) * h + static_cast<std::size_t>(c.y)) * w + static_cast<std::size_t>(c.x)) *
             n; };

    // n words per tile; zero-initialized = the reset state
    std::vector<std::uint64_t> values(2 * w * h * n, 0ull);

    // group tiles by clock zone for fast per-tick iteration (same sorted
    // order as wave_simulate — lanes must latch identically)
    std::array<std::vector<coordinate>, 4> by_zone;
    layout.foreach_tile([&](const coordinate& c, const gate_level_layout::tile_data&)
                        { by_zone[layout.clock_number(c) % 4].push_back(c); });
    for (auto& zone : by_zone)
    {
        std::sort(zone.begin(), zone.end());
    }

    // fixed PI rows, addressed like the value grid
    std::vector<std::uint64_t> pi_values(2 * w * h * n, 0ull);
    for (std::size_t i = 0; i < layout.pi_tiles().size(); ++i)
    {
        std::copy_n(pi_rows.data() + i * n, n, pi_values.data() + row_index(layout.pi_tiles()[i]));
    }

    const auto max_ticks = options.max_ticks != 0 ? options.max_ticks : 8 * (layout.num_occupied() + 4) + 16;

    wave_block_result result{};
    std::size_t stable_ticks = 0;
    std::vector<std::uint64_t> next(n, 0ull);

    for (std::size_t tick = 0; tick < max_ticks; ++tick)
    {
        bool changed = false;
        for (const auto& c : by_zone[tick % 4])
        {
            const auto& d = layout.get(c);
            const std::uint64_t* next_row = nullptr;
            if (d.type == gate_type::pi)
            {
                next_row = pi_values.data() + row_index(c);
            }
            else
            {
                const auto& in = d.incoming;
                const auto* a = !in.empty() ? values.data() + row_index(in[0]) : nullptr;
                const auto* b = in.size() > 1 ? values.data() + row_index(in[1]) : nullptr;
                const auto* e = in.size() > 2 ? values.data() + row_index(in[2]) : nullptr;
                ntk::evaluate_gate_row(d.type, next.data(), a, b, e, n);
                next_row = next.data();
            }
            auto* current = values.data() + row_index(c);
            if (!std::equal(current, current + n, next_row))
            {
                std::copy_n(next_row, n, current);
                changed = true;
            }
        }

        if (changed)
        {
            stable_ticks = 0;
        }
        else if (++stable_ticks >= 4)
        {
            // one full clock cycle without any change: steady state
            result.stabilized = true;
            result.settle_ticks = tick + 1 >= 4 ? tick + 1 - 4 : 0;
            break;
        }
    }

    result.po_rows.reserve(layout.po_tiles().size() * n);
    for (const auto& po : layout.po_tiles())
    {
        const auto* row = values.data() + row_index(po);
        result.po_rows.insert(result.po_rows.end(), row, row + n);
        result.po_names.push_back(layout.io_name_of(po));
    }
    if (!result.stabilized)
    {
        result.settle_ticks = max_ticks;
    }
    return result;
}

stream_result wave_stream_simulate(const gate_level_layout& layout,
                                   const std::vector<std::vector<std::uint64_t>>& frames,
                                   const std::vector<std::vector<std::uint64_t>>& expected,
                                   const stream_options& options)
{
    if (frames.empty())
    {
        throw precondition_error{"wave_stream_simulate: at least one input frame required"};
    }
    for (const auto& frame : frames)
    {
        if (frame.size() != layout.num_pis())
        {
            throw precondition_error{"wave_stream_simulate: each frame needs one word per PI"};
        }
    }
    if (expected.size() != layout.num_pos())
    {
        throw precondition_error{"wave_stream_simulate: expected streams must cover every PO"};
    }

    // safe default rate: deep enough for any signal to traverse the layout
    auto cycles_per_frame = options.cycles_per_frame;
    if (cycles_per_frame == 0)
    {
        const auto stats_depth = lyt::collect_layout_statistics(layout).critical_path;
        cycles_per_frame = stats_depth / 4 + 2;
    }

    // persistent tile state across frames
    value_grid values{layout};
    std::array<std::vector<coordinate>, 4> by_zone;
    layout.foreach_tile([&](const coordinate& c, const gate_level_layout::tile_data&)
                        { by_zone[layout.clock_number(c) % 4].push_back(c); });
    for (auto& zone : by_zone)
    {
        std::sort(zone.begin(), zone.end());
    }
    const auto value_of = [&](const coordinate& c) -> std::uint64_t { return values[c]; };

    stream_result result{};
    for (const auto& po : layout.po_tiles())
    {
        result.po_names.push_back(layout.io_name_of(po));
    }
    std::vector<std::vector<std::uint64_t>> raw(layout.num_pos());

    // run warmup frames so the pipeline can fill, then the real frames; the
    // last frame is held a few extra windows to flush the pipe
    const auto flush = options.max_latency_frames;
    for (std::size_t f = 0; f < frames.size() + flush; ++f)
    {
        const auto& frame = frames[std::min(f, frames.size() - 1)];
        value_grid pi_values{layout};
        for (std::size_t i = 0; i < layout.pi_tiles().size(); ++i)
        {
            pi_values.set(layout.pi_tiles()[i], frame[i]);
        }

        for (std::size_t tick = 0; tick < 4 * cycles_per_frame; ++tick)
        {
            for (const auto& c : by_zone[tick % 4])
            {
                const auto& d = layout.get(c);
                if (d.type == gate_type::pi)
                {
                    values.set(c, pi_values[c]);
                    continue;
                }
                const auto& in = d.incoming;
                const auto a = !in.empty() ? value_of(in[0]) : 0ull;
                const auto b = in.size() > 1 ? value_of(in[1]) : 0ull;
                const auto e = in.size() > 2 ? value_of(in[2]) : 0ull;
                values.set(c, ntk::evaluate_gate_word(d.type, a, b, e));
            }
        }
        for (std::size_t o = 0; o < layout.po_tiles().size(); ++o)
        {
            raw[o].push_back(value_of(layout.po_tiles()[o]));
        }
    }

    // align each PO's raw stream with its expected stream
    result.aligned = true;
    result.po_frames.assign(layout.num_pos(), {});
    result.latency_cycles.assign(layout.num_pos(), 0);
    for (std::size_t o = 0; o < layout.num_pos(); ++o)
    {
        bool found = false;
        for (std::size_t lat = 0; lat <= options.max_latency_frames && !found; ++lat)
        {
            bool match = true;
            for (std::size_t f = 0; f < frames.size(); ++f)
            {
                if (raw[o][f + lat] != expected[o][f])
                {
                    match = false;
                    break;
                }
            }
            if (match)
            {
                found = true;
                result.latency_cycles[o] = lat * cycles_per_frame;
                for (std::size_t f = 0; f < frames.size(); ++f)
                {
                    result.po_frames[o].push_back(raw[o][f + lat]);
                }
            }
        }
        if (!found)
        {
            result.aligned = false;
            result.po_frames[o] = raw[o];  // diagnostics
        }
    }
    return result;
}

wave_equivalence_result check_stream_equivalence(const ntk::logic_network& specification,
                                                 const gate_level_layout& layout, const std::size_t rounds,
                                                 const std::uint64_t seed)
{
    wave_equivalence_result result{};

    // match PIs by name
    std::vector<std::string> layout_pis;
    for (const auto& c : layout.pi_tiles())
    {
        layout_pis.push_back(layout.io_name_of(c));
    }
    std::unordered_map<std::string, std::size_t> spec_po_index;
    for (std::size_t i = 0; i < specification.num_pos(); ++i)
    {
        spec_po_index.emplace(specification.name_of(specification.po_at(i)), i);
    }

    std::mt19937_64 rng{seed};
    std::vector<std::vector<std::uint64_t>> frames;
    std::vector<std::vector<std::uint64_t>> expected(layout.num_pos());
    for (std::size_t r = 0; r < rounds; ++r)
    {
        std::unordered_map<std::string, std::uint64_t> by_name;
        for (const auto& name : layout_pis)
        {
            by_name.emplace(name, rng());
        }

        std::vector<std::uint64_t> spec_words;
        bool names_ok = true;
        specification.foreach_pi(
            [&](const auto pi)
            {
                const auto it = by_name.find(specification.name_of(pi));
                if (it == by_name.cend())
                {
                    names_ok = false;
                    spec_words.push_back(0);
                    return;
                }
                spec_words.push_back(it->second);
            });
        if (!names_ok || by_name.size() != specification.num_pis())
        {
            result.reason = "primary input name sets differ";
            return result;
        }
        const auto spec_out = ntk::simulate_word(specification, spec_words);

        std::vector<std::uint64_t> frame;
        frame.reserve(layout_pis.size());
        for (const auto& name : layout_pis)
        {
            frame.push_back(by_name.at(name));
        }
        frames.push_back(std::move(frame));
        for (std::size_t o = 0; o < layout.num_pos(); ++o)
        {
            const auto it = spec_po_index.find(layout.io_name_of(layout.po_tiles()[o]));
            if (it == spec_po_index.cend())
            {
                result.reason = "unknown layout output '" + layout.io_name_of(layout.po_tiles()[o]) + "'";
                return result;
            }
            expected[o].push_back(spec_out[it->second]);
        }
    }

    const auto stream = wave_stream_simulate(layout, frames, expected);
    if (!stream.aligned)
    {
        result.reason = "output stream could not be aligned (unbalanced or mis-clocked paths)";
        return result;
    }
    result.equivalent = true;
    return result;
}

wave_equivalence_result check_wave_equivalence(const ntk::logic_network& specification,
                                               const gate_level_layout& layout,
                                               const wave_equivalence_options& options)
{
    MNT_SPAN("verification/wave");
    wave_equivalence_result result{};

    // match PIs/POs by name
    std::vector<std::string> spec_pis;
    specification.foreach_pi([&](const auto pi) { spec_pis.push_back(specification.name_of(pi)); });
    std::vector<std::string> layout_pis;
    for (const auto& c : layout.pi_tiles())
    {
        layout_pis.push_back(layout.io_name_of(c));
    }
    if (std::set<std::string>(spec_pis.cbegin(), spec_pis.cend()) !=
        std::set<std::string>(layout_pis.cbegin(), layout_pis.cend()))
    {
        result.reason = "primary input name sets differ";
        return result;
    }

    std::unordered_map<std::string, std::size_t> spec_po_index;
    for (std::size_t i = 0; i < specification.num_pos(); ++i)
    {
        spec_po_index.emplace(specification.name_of(specification.po_at(i)), i);
    }

    const auto k = spec_pis.size();
    const bool formal = k <= options.formal_threshold;
    const auto total_bits = formal ? (1ull << k) : 0ull;
    const auto rounds = formal ? std::max<std::uint64_t>(1, total_bits / 64) : options.random_rounds;
    const auto mask = formal && total_bits < 64 ? (1ull << total_bits) - 1ull : ~0ull;

    std::mt19937_64 rng{options.seed};

    // Row-batched: rounds are grouped into blocks and driven through the
    // specification simulator and the wave simulator as whole rows.
    // Word-major comparison reports the same first mismatch as one round at
    // a time would.
    constexpr std::uint64_t block_rounds = 64;

    for (std::uint64_t r0 = 0; r0 < rounds; r0 += block_rounds)
    {
        const auto n = static_cast<std::size_t>(std::min(block_rounds, rounds - r0));

        // canonical per-name rows for this block
        std::unordered_map<std::string, const std::uint64_t*> row_by_name;
        std::vector<std::uint64_t> canonical_rows(k * n, 0ull);
        if (formal)
        {
            for (std::size_t v = 0; v < k; ++v)
            {
                static constexpr std::uint64_t patterns[6] = {0xaaaaaaaaaaaaaaaaull, 0xccccccccccccccccull,
                                                              0xf0f0f0f0f0f0f0f0ull, 0xff00ff00ff00ff00ull,
                                                              0xffff0000ffff0000ull, 0xffffffff00000000ull};
                for (std::size_t i = 0; i < n; ++i)
                {
                    canonical_rows[v * n + i] =
                        v < 6 ? patterns[v] : (((((r0 + i) * 64ull) >> v) & 1ull) ? ~0ull : 0ull);
                }
            }
        }
        else
        {
            // round-major draw order: identical rng consumption to the former
            // per-round loop (one word per PI per round, PI-creation order)
            for (std::size_t i = 0; i < n; ++i)
            {
                for (std::size_t v = 0; v < k; ++v)
                {
                    canonical_rows[v * n + i] = rng();
                }
            }
        }
        row_by_name.reserve(k);
        for (std::size_t v = 0; v < k; ++v)
        {
            row_by_name.emplace(spec_pis[v], canonical_rows.data() + v * n);
        }

        // specification outputs
        std::vector<std::uint64_t> spec_rows;
        spec_rows.reserve(k * n);
        specification.foreach_pi(
            [&](const auto pi)
            {
                const auto* row = row_by_name.at(specification.name_of(pi));
                spec_rows.insert(spec_rows.end(), row, row + n);
            });
        const auto spec_out = ntk::simulate_rows(specification, spec_rows, n);

        // layout outputs through the wave simulator
        std::vector<std::uint64_t> layout_rows;
        layout_rows.reserve(layout_pis.size() * n);
        for (const auto& name : layout_pis)
        {
            const auto* row = row_by_name.at(name);
            layout_rows.insert(layout_rows.end(), row, row + n);
        }
        const auto wave = wave_simulate_block(layout, layout_rows, n);
        if (!wave.stabilized)
        {
            result.stabilized = false;
            result.reason = "layout did not stabilize (mis-clocked or cyclic connectivity)";
            return result;
        }

        for (std::size_t i = 0; i < n; ++i)
        {
            for (std::size_t o = 0; o < wave.po_names.size(); ++o)
            {
                const auto it = spec_po_index.find(wave.po_names[o]);
                if (it == spec_po_index.cend())
                {
                    result.reason = "unknown layout output '" + wave.po_names[o] + "'";
                    return result;
                }
                if ((wave.po_rows[o * n + i] & mask) != (spec_out[it->second * n + i] & mask))
                {
                    result.reason = "output '" + wave.po_names[o] + "' differs in steady state";
                    return result;
                }
            }
        }
    }

    result.equivalent = true;
    return result;
}

}  // namespace mnt::ver
