#pragma once

/// \file routing.hpp
/// \brief Wire routing on clocked gate-level layouts.
///
/// The router performs breadth-first search over the clocked grid: a step
/// from tile a to tile b is legal iff b is a planar neighbor of a (under the
/// layout topology) and zone(b) == zone(a) + 1 (mod 4). Paths consist of new
/// wire tiles; existing ground-layer wires may be crossed by elevating the
/// new wire to layer z = 1 (wire-over-wire crossings only, as in QCA/SiDB
/// technologies). BFS yields shortest (minimum-tile) connections.

#include "common/resilience.hpp"
#include "layout/coordinates.hpp"
#include "layout/gate_level_layout.hpp"

#include <cstddef>
#include <optional>
#include <span>
#include <vector>

namespace mnt::lyt
{

/// Options controlling path search.
struct routing_options
{
    /// Permit wire-over-wire crossings via layer z = 1.
    bool allow_crossings{true};

    /// Abort the search after expanding this many tiles (0 = unlimited).
    std::size_t max_expansions{0};

    /// Cooperative global run deadline: the BFS polls it (strided) and
    /// unwinds with mnt::res::deadline_exceeded once expired. Unbounded by
    /// default (zero overhead beyond one branch per stride).
    res::deadline_clock deadline{};

    /// Refuse steps that fill a position completely (crossing layer) when
    /// that position is the last usable exit of an adjacent gate that still
    /// needs outgoing connections. Keeps incremental placement flows
    /// (constructive placement, annealing, PLO surgery) from walling in
    /// not-yet-routed gates. The path's own source and target are exempt.
    bool respect_needy_exits{false};
};

/// Finds a shortest clocked path of new wire tiles connecting the output of
/// the gate on \p src to a fanin slot of the gate on \p dst.
///
/// \returns the intermediate tiles in order (excluding \p src and \p dst;
///          empty if the tiles are directly flow-connected), with z = 1 for
///          crossing segments; std::nullopt if no path exists
[[nodiscard]] std::optional<std::vector<coordinate>> find_path(const gate_level_layout& layout, const coordinate& src,
                                                               const coordinate& dst,
                                                               const routing_options& options = {});

/// Materializes a path previously returned by \ref find_path (or any other
/// list of wire tiles): places buffer gates on every path tile and declares
/// the connections src -> path[0] -> ... -> path[k] -> dst.
void establish_path(gate_level_layout& layout, const coordinate& src, const coordinate& dst,
                    std::span<const coordinate> path);

/// Convenience wrapper: find_path + establish_path.
///
/// \returns true if a connection was made
bool route(gate_level_layout& layout, const coordinate& src, const coordinate& dst,
           const routing_options& options = {});

/// Removes the wire chain that connects \p src to \p dst (inverse of
/// \ref establish_path): walks from \p dst backwards over wire tiles with a
/// single user and clears them. Gate tiles and shared wires are kept.
void rip_up_path(gate_level_layout& layout, const coordinate& src, const coordinate& dst);

}  // namespace mnt::lyt
