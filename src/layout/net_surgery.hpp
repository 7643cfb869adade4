#pragma once

/// \file net_surgery.hpp
/// \brief Rip-up, restore and reroute operations on placed-and-routed
///        layouts — the shared machinery of post-layout optimization and the
///        annealing placer.
///
/// A \ref connection is the logical link between two non-wire gates together
/// with the buffer chain currently realizing it. The \ref net_surgeon can
/// remove such chains (demoting crossing wires left floating), restore them
/// verbatim, or re-route them on shortest clocked paths, always preserving
/// the fanin slot order of non-commutative gates.

#include "common/types.hpp"
#include "layout/coordinates.hpp"
#include "layout/gate_level_layout.hpp"
#include "layout/routing.hpp"

#include <algorithm>
#include <cstddef>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

namespace mnt::lyt
{

/// A logical gate-to-gate connection with its current wire chain.
struct connection
{
    coordinate src;                 ///< source gate tile (non-wire)
    coordinate dst;                 ///< destination gate tile (non-wire)
    std::size_t dst_slot{0};        ///< fanin slot index at dst
    std::vector<coordinate> chain;  ///< wire tiles in src -> dst order
};

/// Rip-up/restore/reroute toolbox operating on a layout reference.
class net_surgeon
{
public:
    /// \param target layout to operate on (must outlive the surgeon)
    /// \param route_expansions BFS expansion cap per routing query (0 = off)
    explicit net_surgeon(gate_level_layout& target, std::size_t route_expansions = 0);

    /// Traces the connection ending in fanin slot \p slot of gate \p dst.
    [[nodiscard]] connection trace_incoming(const coordinate& dst, std::size_t slot) const;

    /// All logical connections of the layout (each exactly once, in
    /// deterministic order).
    [[nodiscard]] std::vector<connection> all_connections() const;

    /// All connections incident to gate \p g: its fanins in slot order
    /// first, then its fanouts.
    [[nodiscard]] std::vector<connection> incident_connections(const coordinate& g) const;

    /// Removes the connection's wires and the final link into dst. Crossing
    /// wires left floating above a removed ground wire are demoted to the
    /// ground layer (their connections survive).
    void rip(const connection& conn);

    /// Re-places a previously ripped connection along its recorded chain
    /// positions; layers are re-assigned on the fly.
    ///
    /// \returns the tile that now feeds dst (for slot-order fixes)
    coordinate restore(const connection& conn);

    /// Routes src -> dst on a shortest clocked path.
    ///
    /// \returns the feeding tile on success
    std::optional<coordinate> route_shortest(const coordinate& src, const coordinate& dst);

    /// Shortest routable wire count between src and dst, if any.
    [[nodiscard]] std::optional<std::size_t> shortest_length(const coordinate& src, const coordinate& dst) const;

    /// The layout under surgery.
    [[nodiscard]] gate_level_layout& layout() noexcept;
    [[nodiscard]] const gate_level_layout& layout() const noexcept;

    /// The routing options used by \ref route_shortest.
    [[nodiscard]] routing_options& options() noexcept;

private:
    coordinate place_wire(std::int32_t x, std::int32_t y);

    gate_level_layout& target;
    routing_options opts{};
};

/// Attempts to relocate the gate on \p g to the empty ground tile \p target:
/// rips all incident connections, moves the gate, re-routes everything on
/// shortest paths (fanin slot order preserved), then calls \p accept. If
/// routing fails or \p accept returns false, the layout is restored to its
/// exact previous connectivity (wire layers may differ, which is
/// semantically irrelevant).
///
/// \returns true iff the move was committed
template <typename AcceptFn>
bool try_relocate(net_surgeon& surgeon, const coordinate& g, const coordinate& target, AcceptFn&& accept);

// ---------------------------------------------------------------------------
// implementation of try_relocate (template)
// ---------------------------------------------------------------------------

namespace detail
{

/// Restores the fanin slot order of \p dst after surgery. \p affected_slots
/// are the original slot indices that were ripped and re-established (all
/// carrying the same source signal, so their mutual order is semantically
/// irrelevant); \p feeders are the tiles now feeding those slots. Unaffected
/// entries keep their relative order.
///
/// \throws precondition_error if the slots and feeders do not add up to the
///         fanin list of \p dst (e.g. one slot listed twice)
inline void rebuild_slot_order(gate_level_layout& layout, const coordinate& dst,
                               std::vector<std::size_t> affected_slots, const std::vector<coordinate>& feeders)
{
    std::sort(affected_slots.begin(), affected_slots.end());
    gate_level_layout::fanin_list remaining;
    for (const auto& in : layout.incoming_of(dst))
    {
        remaining.push_back(in);
    }
    for (const auto& f : feeders)
    {
        remaining.erase(f);
    }
    const auto total = remaining.size() + feeders.size();
    if (affected_slots.size() != feeders.size() || total > gate_level_layout::max_fanin)
    {
        throw precondition_error{"rebuild_slot_order: " + std::to_string(affected_slots.size()) + " slots for " +
                                 std::to_string(feeders.size()) + " feeders of " + dst.to_string()};
    }
    gate_level_layout::fanin_list desired;
    std::size_t next_affected = 0;
    std::size_t next_remaining = 0;
    for (std::size_t slot = 0; slot < total; ++slot)
    {
        if (next_affected < affected_slots.size() && affected_slots[next_affected] == slot)
        {
            desired.push_back(feeders[next_affected]);
            ++next_affected;
        }
        else if (next_remaining < remaining.size())
        {
            desired.push_back(remaining[next_remaining++]);
        }
        else
        {
            throw precondition_error{"rebuild_slot_order: slot " + std::to_string(slot) + " of " + dst.to_string() +
                                     " has no feeder (affected slots repeat or exceed the fanin list)"};
        }
    }
    layout.set_incoming_order(dst, {desired.begin(), desired.end()});
}

}  // namespace detail

template <typename AcceptFn>
bool try_relocate(net_surgeon& surgeon, const coordinate& g, const coordinate& target, AcceptFn&& accept)
{
    auto& layout = surgeon.layout();

    // identify the affected external destinations and slots up front
    // (endpoints are stable under rip-ups; chains are re-traced just before
    // each rip because crossing demotion can relocate sibling chain wires)
    std::unordered_map<coordinate, std::vector<std::size_t>, coordinate_hash> affected;  // dst -> orig slots
    for (const auto& pre : surgeon.incident_connections(g))
    {
        if (pre.dst != g)
        {
            affected[pre.dst].push_back(pre.dst_slot);
        }
    }

    // rip g's fanins from the last slot down (indices stay valid), re-traced
    std::vector<connection> in_conns(layout.incoming_of(g).size());
    for (std::size_t slot = in_conns.size(); slot > 0; --slot)
    {
        auto conn = surgeon.trace_incoming(g, slot - 1);
        surgeon.rip(conn);
        in_conns[slot - 1] = std::move(conn);
    }
    // rip g's fanouts one at a time, re-tracing after each demotion
    std::vector<connection> out_conns;
    while (!layout.outgoing_of(g).empty())
    {
        connection conn;
        conn.src = g;
        auto cur = layout.outgoing_of(g)[0];
        while (layout.type_of(cur) == ntk::gate_type::buf)
        {
            conn.chain.push_back(cur);
            cur = layout.outgoing_of(cur)[0];
        }
        conn.dst = cur;
        surgeon.rip(conn);
        out_conns.push_back(std::move(conn));
    }

    // the target may have been freed by the rip-ups (it is a legal
    // candidate if it was occupied only by wires of g's own connections)
    const bool target_free = layout.is_empty_tile(target) && layout.is_empty_tile(target.elevated());
    if (target_free)
    {
        layout.move_tile(g, target);
    }

    // route everything from/to the new position
    bool success = target_free;
    std::unordered_map<coordinate, std::vector<coordinate>, coordinate_hash> new_feeders;  // dst -> feeders
    std::vector<std::pair<coordinate, coordinate>> out_routed;                             // (dst, feeder)
    if (success)
    {
        for (const auto& conn : in_conns)
        {
            const auto feeder = surgeon.route_shortest(conn.src, target);
            if (!feeder.has_value())
            {
                success = false;
                break;
            }
            // g's own fanins are appended in slot order: nothing to fix
        }
    }
    if (success)
    {
        for (const auto& conn : out_conns)
        {
            const auto feeder = surgeon.route_shortest(target, conn.dst);
            if (!feeder.has_value())
            {
                success = false;
                break;
            }
            out_routed.emplace_back(conn.dst, *feeder);
            new_feeders[conn.dst].push_back(*feeder);
        }
    }

    if (success)
    {
        for (const auto& [dst, slots] : affected)
        {
            detail::rebuild_slot_order(layout, dst, slots, new_feeders.at(dst));
        }
        if (accept())
        {
            return true;
        }
        // no de-application of the slot fixes needed: the undo below locates
        // the new chains by their feeder tiles and rebuilds orders afterwards
    }

    // undo: rip the routed external chains (last first, found by feeder),
    // then everything that was routed into the target (only our chains feed
    // it), move back, restore originals
    for (auto it = out_routed.rbegin(); it != out_routed.rend(); ++it)
    {
        const auto in = layout.incoming_of(it->first);
        const auto pos = std::find(in.begin(), in.end(), it->second);
        surgeon.rip(surgeon.trace_incoming(it->first, static_cast<std::size_t>(pos - in.begin())));
    }
    if (target_free)
    {
        for (std::size_t slot = layout.incoming_of(target).size(); slot > 0; --slot)
        {
            surgeon.rip(surgeon.trace_incoming(target, slot - 1));
        }
        layout.move_tile(target, g);
    }

    for (const auto& conn : in_conns)
    {
        surgeon.restore(conn);  // appended in slot order
    }
    std::unordered_map<coordinate, std::vector<coordinate>, coordinate_hash> restored_feeders;
    for (const auto& conn : out_conns)
    {
        restored_feeders[conn.dst].push_back(surgeon.restore(conn));
    }
    for (const auto& [dst, slots] : affected)
    {
        detail::rebuild_slot_order(layout, dst, slots, restored_feeders.at(dst));
    }
    return false;
}

}  // namespace mnt::lyt
