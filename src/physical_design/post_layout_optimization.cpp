#include "physical_design/post_layout_optimization.hpp"

#include "common/types.hpp"
#include "layout/net_surgery.hpp"
#include "layout/routing.hpp"
#include "telemetry/telemetry.hpp"

#include <algorithm>
#include <chrono>
#include <unordered_map>
#include <vector>

namespace mnt::pd
{

namespace
{

using lyt::connection;
using lyt::coordinate;
using lyt::gate_level_layout;
using lyt::net_surgeon;
using ntk::gate_type;

/// Cost of a layout during optimization: bounding-box area first, wire count
/// second.
struct layout_cost
{
    std::uint64_t bbox_area;
    std::size_t wires;

    auto operator<=>(const layout_cost&) const = default;
};

layout_cost cost_of(const gate_level_layout& layout)
{
    // origin-anchored area (regular schemes permit only 4-periodic
    // translations, so NW margins usually cannot be cropped away)
    const auto [min_c, max_c] = layout.bounding_box();
    static_cast<void>(min_c);
    const auto w = static_cast<std::uint64_t>(max_c.x + 1);
    const auto h = static_cast<std::uint64_t>(max_c.y + 1);
    return {w * h, layout.num_wires()};
}

/// Pass 1: reroute every connection onto a shortest path.
///
/// Endpoint/slot records from the initial sweep stay valid, but wire chains
/// can be relocated by crossing demotion during earlier rip-ups, so every
/// connection is re-traced immediately before its own surgery.
std::size_t reroute_pass(net_surgeon& surgeon)
{
    std::size_t improved = 0;
    auto& layout = surgeon.layout();
    for (const auto& record : surgeon.all_connections())
    {
        const auto conn = surgeon.trace_incoming(record.dst, record.dst_slot);
        if (conn.chain.empty())
        {
            continue;  // already direct
        }
        surgeon.rip(conn);

        const auto shortest = surgeon.shortest_length(conn.src, conn.dst);
        coordinate feeder{};
        if (shortest.has_value() && *shortest < conn.chain.size())
        {
            feeder = *surgeon.route_shortest(conn.src, conn.dst);
            ++improved;
        }
        else
        {
            feeder = surgeon.restore(conn);
        }
        lyt::detail::rebuild_slot_order(layout, conn.dst, {conn.dst_slot}, {feeder});
    }
    return improved;
}

/// Pass 2: relocate gates toward the origin.
std::size_t relocation_pass(net_surgeon& surgeon, const plo_params& params, std::size_t& move_budget_used)
{
    auto& layout = surgeon.layout();
    std::size_t accepted = 0;
    res::deadline_guard deadline{params.deadline, 16};

    // gates ordered by distance from origin, descending: outer gates first
    auto gates = layout.tiles_sorted();
    gates.erase(std::remove_if(gates.begin(), gates.end(),
                               [&](const coordinate& c) { return layout.type_of(c) == gate_type::buf; }),
                gates.end());
    std::sort(gates.begin(), gates.end(),
              [](const coordinate& a, const coordinate& b) { return a.x + a.y > b.x + b.y; });

    for (const auto& g : gates)
    {
        deadline.poll_or_throw("plo/relocation");
        // walk each gate inward until no closer position is routable/better
        auto current = g;
        bool moved = true;
        while (moved)
        {
            moved = false;
            if (params.max_gate_moves != 0 && move_budget_used >= params.max_gate_moves)
            {
                return accepted;
            }

            // candidate targets west/north of the gate, closer to the
            // origin, farthest-inward first. Wire-occupied positions are
            // admissible too: the wires may belong to the gate's own
            // connections and be freed during the rip-up (try_relocate
            // re-checks emptiness after ripping and rolls back otherwise).
            const auto wire_or_empty = [&](const coordinate& t)
            { return layout.is_empty_tile(t) || layout.type_of(t) == gate_type::buf; };
            std::vector<coordinate> candidates;
            for (std::int32_t y = std::max(0, current.y - params.relocation_radius); y <= current.y; ++y)
            {
                for (std::int32_t x = std::max(0, current.x - params.relocation_radius); x <= current.x; ++x)
                {
                    const coordinate t{x, y, 0};
                    if (t.x + t.y < current.x + current.y && wire_or_empty(t) && wire_or_empty(t.elevated()))
                    {
                        candidates.push_back(t);
                    }
                }
            }
            std::sort(candidates.begin(), candidates.end(), [](const coordinate& a, const coordinate& b)
                      { return a.x + a.y != b.x + b.y ? a.x + a.y < b.x + b.y : a < b; });
            if (candidates.size() > params.max_candidates_per_gate)
            {
                // keep the most aggressive jumps plus the nearest fallbacks
                // (the nearest steps are almost always routable, so the
                // inward walk cannot stall on truncation)
                const auto half = params.max_candidates_per_gate / 2;
                std::vector<coordinate> trimmed(candidates.cbegin(),
                                                candidates.cbegin() + static_cast<std::ptrdiff_t>(half));
                for (std::size_t i = 0; i < params.max_candidates_per_gate - half; ++i)
                {
                    trimmed.push_back(candidates[candidates.size() - 1 - i]);
                }
                candidates = std::move(trimmed);
            }

            const auto before = cost_of(layout);

            for (const auto& target : candidates)
            {
                ++move_budget_used;
                const auto committed = lyt::try_relocate(surgeon, current, target,
                                                         [&]() { return cost_of(layout) < before; });
                if (committed)
                {
                    ++accepted;
                    current = target;
                    moved = true;
                    break;
                }
            }
        }
    }
    return accepted;
}

}  // namespace

gate_level_layout post_layout_optimization(const gate_level_layout& layout, const plo_params& params,
                                           plo_stats* stats)
{
    MNT_SPAN("plo");
    const auto start_time = std::chrono::steady_clock::now();

    auto result = layout;  // operate on a copy
    net_surgeon surgeon{result, params.max_route_expansions};
    surgeon.options().deadline = params.deadline;

    plo_stats local{};
    local.area_before = layout.area();
    local.wires_before = layout.num_wires();

    std::size_t move_budget_used = 0;
    for (std::size_t pass = 0; pass < params.max_passes; ++pass)
    {
        MNT_FAULT_POINT("plo.pass");
        params.deadline.throw_if_expired("plo/pass");
        ++local.passes;
        const auto rerouted = reroute_pass(surgeon);
        const auto moved = relocation_pass(surgeon, params, move_budget_used);
        local.rerouted_connections += rerouted;
        local.accepted_moves += moved;
        if (rerouted == 0 && moved == 0)
        {
            break;
        }
    }

    result.shrink_to_fit();

    local.area_after = result.area();
    local.wires_after = result.num_wires();
    local.runtime = std::chrono::duration<double>(std::chrono::steady_clock::now() - start_time).count();
    if (stats != nullptr)
    {
        *stats = local;
    }
    return result;
}

}  // namespace mnt::pd
