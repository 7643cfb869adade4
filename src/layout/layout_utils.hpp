#pragma once

/// \file layout_utils.hpp
/// \brief Layout analysis: network extraction (the semantic view of a
///        layout), statistics, and throughput helpers shared by the physical
///        design algorithms.

#include "layout/gate_level_layout.hpp"
#include "network/logic_network.hpp"

#include <cstdint>
#include <string>
#include <vector>

namespace mnt::lyt
{

/// Reconstructs the logic network realized by \p layout by traversing the
/// tile graph in topological order. PI/PO names are taken from the tiles.
///
/// \throws mnt::design_rule_error if the connection graph contains a cycle or
///         a tile has the wrong number of fanins for its gate type
[[nodiscard]] ntk::logic_network extract_network(const gate_level_layout& layout);

/// Statistics record of a gate-level layout: the columns of Table I plus
/// engineering metrics.
struct layout_statistics
{
    std::string name;
    std::uint32_t width{};
    std::uint32_t height{};
    /// width * height, the "A" column.
    std::uint64_t area{};
    std::size_t num_gates{};
    std::size_t num_wires{};
    std::size_t num_crossings{};
    std::size_t num_pis{};
    std::size_t num_pos{};
    /// Longest PI->PO tile path (clock cycles = critical_path / 4).
    std::uint32_t critical_path{};
};

/// Gathers \ref layout_statistics for \p layout.
[[nodiscard]] layout_statistics collect_layout_statistics(const gate_level_layout& layout);

/// All occupied tiles in topological order (every tile after all of its
/// fanins).
///
/// \throws mnt::design_rule_error on cyclic connectivity
[[nodiscard]] std::vector<coordinate> topological_tile_order(const gate_level_layout& layout);

/// Number of outgoing-clocked neighbor positions of \p c onto which a new
/// wire could still start (empty ground, or crossable ground wire with a
/// free crossing layer). A gate placed on a tile with zero usable exits can
/// never drive anything.
[[nodiscard]] inline std::size_t usable_exits(const gate_level_layout& layout, const coordinate& c)
{
    std::size_t count = 0;
    for (const auto& n : layout.outgoing_clocked(c))
    {
        if (layout.is_empty_tile(n) ||
            (layout.type_of(n) == ntk::gate_type::buf && layout.is_empty_tile(n.elevated())))
        {
            ++count;
        }
    }
    return count;
}

/// Number of wire *layers* on incoming-clocked neighbor positions of \p c
/// through which new connections could still arrive (two for an empty
/// position, one above a crossable wire). An n-ary gate needs at least n
/// usable entries.
[[nodiscard]] inline std::size_t usable_entries(const gate_level_layout& layout, const coordinate& c)
{
    std::size_t count = 0;
    for (const auto& n : layout.incoming_clocked(c))
    {
        if (layout.is_empty_tile(n))
        {
            count += 2;  // ground + crossing layer
        }
        else if (layout.type_of(n) == ntk::gate_type::buf && layout.is_empty_tile(n.elevated()))
        {
            count += 1;
        }
    }
    return count;
}

}  // namespace mnt::lyt
