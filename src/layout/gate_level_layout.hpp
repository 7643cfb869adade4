#pragma once

/// \file gate_level_layout.hpp
/// \brief Clocked, tile-based gate-level FCN layout — the abstraction-level
///        "Gate-level (.fgl)" artifact of MNT Bench.
///
/// A gate-level layout places typed gates (see \ref mnt::ntk::gate_type) on
/// the tiles of a clocked grid. Connections are explicit: every tile stores
/// the coordinates of the tiles feeding it, in fanin-slot order. Wires are
/// buffer gates; a wire crossing is a second buffer in layer z = 1 above a
/// ground-layer wire. Layout area is width x height tiles — the figure of
/// merit of the paper's Table I.
///
/// The class is deliberately permissive while a layout is under
/// construction; \ref mnt::ver::gate_level_drc performs the full design-rule
/// check (adjacency, clocking, fanin/fanout capacities, crossing rules).
///
/// Storage is a dense flat grid: one 72-byte, trivially copyable slot per
/// (x, y, z) cell, indexed (z * height + y) * width + x, with the gate type
/// doubling as the occupancy flag (\ref ntk::gate_type::none = empty) and
/// fixed-capacity inline fanin and fanout lists (gate arity is at most 3,
/// FCN fanout at most 2). Gate names live in a side table keyed by tile,
/// since usually only PIs and POs carry one. All point queries are O(1) array
/// lookups defined in this header, full traversals are linear row-major
/// scans, and \ref tiles_sorted needs no sort — the scan order *is* the
/// documented (y, x, z) order.
///
/// Under a regular clocking scheme the zones repeat every 4 tiles in x and
/// y, so which planar neighbors a tile may feed (or be fed by) depends only
/// on (x mod 4, y mod 4). The constructor tabulates that once as neighbor
/// bitmasks, and \ref outgoing_clocked / \ref incoming_clocked answer from
/// the table; OPEN layouts compare assigned zones per query.

#include "layout/clocking_scheme.hpp"
#include "layout/coordinates.hpp"
#include "network/gate_type.hpp"

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <vector>

namespace mnt::lyt
{

/// A tile-based gate-level layout on a clocked Cartesian or hexagonal grid.
class gate_level_layout
{
public:
    /// Maximum number of fanins per tile: the largest gate arity (MAJ).
    /// \ref connect enforces the per-gate-type budget.
    static constexpr std::size_t max_fanin = 3;

    /// Maximum number of outgoing connections per tile. FCN gates drive one
    /// successor, fanout gates two — the inline fanout lists of the dense
    /// grid are sized accordingly (the DRC additionally enforces the
    /// per-gate-type budget).
    static constexpr std::size_t max_fanout = 2;

    /// An inline fanin list; callers that edit a tile's fanins while walking
    /// them copy the list into one.
    using fanin_list = coordinate_list<max_fanin>;

    /// Payload of an occupied tile.
    struct tile_data
    {
        ntk::gate_type type{ntk::gate_type::none};
        /// Fanin tiles in slot order (slot 0 first).
        fanin_list incoming;
    };

    /// Creates an empty layout of the given dimensions.
    ///
    /// \param layout_name design name (usually the benchmark function name)
    /// \param topo grid topology
    /// \param scheme clocking scheme (must be ROW or OPEN for hexagonal)
    /// \param width initial width in tiles (> 0)
    /// \param height initial height in tiles (> 0)
    gate_level_layout(std::string layout_name, layout_topology topo, clocking_scheme scheme, std::uint32_t width,
                      std::uint32_t height);

    /// Creates an empty 1x1 placeholder layout (for record types that fill
    /// in a real layout later).
    gate_level_layout();

    // ----------------------------------------------------------- geometry

    [[nodiscard]] std::uint32_t width() const noexcept;
    [[nodiscard]] std::uint32_t height() const noexcept;

    /// Layout area in tiles (width x height) — the "A" column of Table I.
    [[nodiscard]] std::uint64_t area() const noexcept;

    [[nodiscard]] layout_topology topology() const noexcept;

    [[nodiscard]] const clocking_scheme& clocking() const noexcept;

    /// Assigns clock zone \p zone to the ground position of \p c. Only OPEN
    /// layouts take per-tile zones; a regular scheme stays fixed for the life
    /// of the layout, which keeps its direction tables valid.
    ///
    /// \throws precondition_error on a regular scheme, a zone >= 4 or
    ///         negative coordinates
    void assign_clock(const coordinate& c, std::uint8_t zone);

    /// True if (x, y) lies within the current bounds and z < 2.
    [[nodiscard]] bool within_bounds(const coordinate& c) const noexcept
    {
        return c.x >= 0 && c.y >= 0 && c.x < static_cast<std::int32_t>(w) && c.y < static_cast<std::int32_t>(h) &&
               c.z < 2;
    }

    /// Grows or shrinks the bounding dimensions. Validate-then-commit: on
    /// failure the layout (tiles, connectivity, PI/PO lists and per-tile
    /// clock overrides) is left untouched. On shrink, OPEN-scheme clock
    /// overrides outside the new bounds are pruned so a later re-grow cannot
    /// resurrect stale zones.
    ///
    /// \throws precondition_error if an occupied tile would fall outside
    void resize(std::uint32_t width, std::uint32_t height);

    /// Shrinks the dimensions to the occupied bounding box (translating all
    /// tiles so the box starts at the origin).
    void shrink_to_fit();

    /// Smallest/largest occupied ground-layer coordinates; {0,0}/{0,0} if
    /// the layout is empty.
    [[nodiscard]] std::pair<coordinate, coordinate> bounding_box() const;

    // ------------------------------------------------------- construction

    /// Places a gate of type \p t on tile \p c. Crossing-layer tiles
    /// (z == 1) may only host \ref ntk::gate_type::buf. A non-empty
    /// \p io_name is kept for the tile whatever its type (see
    /// \ref io_name_of).
    ///
    /// \throws precondition_error if the tile is occupied, out of bounds,
    ///         the type is none/const, or the crossing-layer rule is violated
    void place(const coordinate& c, ntk::gate_type t, const std::string& io_name = {});

    /// Declares that the output of tile \p src feeds the next free fanin
    /// slot of tile \p dst.
    ///
    /// \throws precondition_error if either tile is empty, all fanin slots
    ///         of \p dst are taken, or \p src already drives
    ///         \ref max_fanout successors
    void connect(const coordinate& src, const coordinate& dst);

    /// Removes a previously declared connection.
    void disconnect(const coordinate& src, const coordinate& dst);

    /// Reorders the fanin slots of \p dst to match \p order (which must be a
    /// permutation of the current incoming list). Needed by optimization
    /// passes that rip up and re-establish connections of non-commutative
    /// gates.
    ///
    /// \throws precondition_error if \p order is not a permutation of the
    ///         current incoming list
    void set_incoming_order(const coordinate& dst, std::span<const coordinate> order);

    /// Removes the gate on \p c together with all its connections.
    void clear_tile(const coordinate& c);

    /// Relocates the gate on \p from to the empty tile \p to, preserving all
    /// connections (coordinates in neighbor fanin lists are patched) and its
    /// name.
    ///
    /// \throws precondition_error if \p from is empty or \p to is occupied
    void move_tile(const coordinate& from, const coordinate& to);

    // ------------------------------------------------------------ queries

    [[nodiscard]] bool is_empty_tile(const coordinate& c) const noexcept
    {
        return !occupied_at(c);
    }
    [[nodiscard]] bool has_tile(const coordinate& c) const noexcept
    {
        return occupied_at(c);
    }

    /// Read access to an occupied tile.
    ///
    /// \throws precondition_error if the tile is empty
    [[nodiscard]] const tile_data& get(const coordinate& c) const;

    /// Gate type on \p c; \ref ntk::gate_type::none for empty tiles.
    [[nodiscard]] ntk::gate_type type_of(const coordinate& c) const noexcept
    {
        return within_bounds(c) ? slot_at(c).data.type : ntk::gate_type::none;
    }

    /// Fanin tiles of \p c in slot order (empty span for empty tiles). The
    /// span views the tile's inline fanin list; it is invalidated by any
    /// mutation of the layout.
    [[nodiscard]] std::span<const coordinate> incoming_of(const coordinate& c) const noexcept
    {
        if (!occupied_at(c))
        {
            return {};
        }
        const auto& in = slot_at(c).data.incoming;
        return {in.data(), in.size()};
    }

    /// Tiles fed by \p c in connection order (empty span for empty tiles).
    /// The span views the tile's inline fanout list; it is invalidated by
    /// any mutation of the layout.
    [[nodiscard]] std::span<const coordinate> outgoing_of(const coordinate& c) const noexcept
    {
        if (!occupied_at(c))
        {
            return {};
        }
        const auto& outs = slot_at(c).outs;
        return {outs.data(), outs.size()};
    }

    /// Name the gate on \p c was placed with (PI/PO name, or any other
    /// non-empty name a reader passed to \ref place); empty if none. The
    /// reference is invalidated by any mutation of the layout.
    [[nodiscard]] const std::string& io_name_of(const coordinate& c) const;

    /// PI/PO tiles in creation order.
    [[nodiscard]] const std::vector<coordinate>& pi_tiles() const noexcept;
    [[nodiscard]] const std::vector<coordinate>& po_tiles() const noexcept;

    [[nodiscard]] std::size_t num_pis() const noexcept;
    [[nodiscard]] std::size_t num_pos() const noexcept;

    /// Number of logic gates (excluding PIs, POs, buffers, fan-outs).
    [[nodiscard]] std::size_t num_gates() const;

    /// Number of wire segments (buffers + fan-outs, both layers).
    [[nodiscard]] std::size_t num_wires() const;

    /// Number of crossing-layer tiles (z == 1).
    [[nodiscard]] std::size_t num_crossings() const;

    /// Number of occupied tiles overall.
    [[nodiscard]] std::size_t num_occupied() const noexcept;

    /// Clock zone of \p c under the layout's scheme.
    [[nodiscard]] std::uint8_t clock_number(const coordinate& c) const;

    /// In-bounds planar neighbors of \p c that may *receive* information
    /// from it (zone + 1), as ground-layer coordinates, in the order of
    /// \ref planar_neighbors.
    [[nodiscard]] neighbor_list outgoing_clocked(const coordinate& c) const
    {
        return scheme.is_regular() ? clocked_by_table(c, out_dirs) : open_clocked(c, true);
    }

    /// In-bounds planar neighbors of \p c that may *send* information to it
    /// (zone - 1), as ground-layer coordinates, in the order of
    /// \ref planar_neighbors.
    [[nodiscard]] neighbor_list incoming_clocked(const coordinate& c) const
    {
        return scheme.is_regular() ? clocked_by_table(c, in_dirs) : open_clocked(c, false);
    }

    /// Iterates all occupied tiles in deterministic layer-major
    /// (z, y, x) scan order: fn(coordinate, tile_data).
    template <typename Fn>
    void foreach_tile(Fn&& fn) const
    {
        std::size_t index = 0;
        for (std::uint8_t z = 0; z < 2; ++z)
        {
            for (std::int32_t y = 0; y < static_cast<std::int32_t>(h); ++y)
            {
                for (std::int32_t x = 0; x < static_cast<std::int32_t>(w); ++x, ++index)
                {
                    const auto& slot = grid[index];
                    if (slot.data.type != ntk::gate_type::none)
                    {
                        fn(coordinate{x, y, z}, slot.data);
                    }
                }
            }
        }
    }

    /// Scans one (z, y) row of the grid in x order — the row-batched unit of
    /// DRC's parallel sweep. Same callback shape as \ref foreach_tile;
    /// visiting rows z-major (z*height + y ascending) reproduces the exact
    /// foreach_tile visit order.
    template <typename Fn>
    void foreach_tile_in_row(const std::uint8_t z, const std::int32_t y, Fn&& fn) const
    {
        auto index = (static_cast<std::size_t>(z) * h + static_cast<std::size_t>(y)) * w;
        for (std::int32_t x = 0; x < static_cast<std::int32_t>(w); ++x, ++index)
        {
            const auto& slot = grid[index];
            if (slot.data.type != ntk::gate_type::none)
            {
                fn(coordinate{x, y, z}, slot.data);
            }
        }
    }

    /// All occupied coordinates in deterministic (y, x, z) order — a cheap
    /// row-major scan of the dense grid, no sort involved.
    [[nodiscard]] std::vector<coordinate> tiles_sorted() const;

    [[nodiscard]] const std::string& layout_name() const noexcept;
    void set_layout_name(std::string layout_name);

private:
    /// One dense grid slot: the public tile payload plus the inline fanout
    /// list. An empty slot is data.type == none with empty lists — cheap
    /// enough that the grid stores slots for every cell.
    struct grid_slot
    {
        tile_data data{};
        coordinate_list<max_fanout> outs{};
    };
    // whole-grid copies (resize, annealing snapshots) are plain memory copies
    static_assert(std::is_trivially_copyable_v<grid_slot>);
    static_assert(sizeof(grid_slot) <= 72);

    /// Neighbor bitmasks of a regular scheme, indexed [y & 3][x & 3]: bit k
    /// stands for the k-th entry of \ref planar_neighbors. `& 3` is the
    /// mathematical mod 4 for negative coordinates too, and on hexagonal
    /// grids y & 3 fixes the row parity that selects the neighbor offsets.
    using direction_table = std::array<std::array<std::uint8_t, 4>, 4>;

    [[nodiscard]] neighbor_list clocked_by_table(const coordinate& c, const direction_table& table) const noexcept
    {
        const auto ns = planar_neighbors(c.ground(), topo);
        const auto mask = table[static_cast<std::size_t>(c.y & 3)][static_cast<std::size_t>(c.x & 3)];
        neighbor_list result;
        for (std::size_t k = 0; k < ns.size(); ++k)
        {
            if (((mask >> k) & 1u) != 0 && within_bounds(ns[k]))
            {
                result.push_back(ns[k]);
            }
        }
        return result;
    }

    /// The OPEN-scheme path of the clocked queries: compares assigned zones.
    [[nodiscard]] neighbor_list open_clocked(const coordinate& c, bool outgoing) const;

    [[nodiscard]] std::size_t index_of(const coordinate& c) const noexcept
    {
        return (static_cast<std::size_t>(c.z) * h + static_cast<std::size_t>(c.y)) * w +
               static_cast<std::size_t>(c.x);
    }

    /// Slot lookup; callers must ensure within_bounds(c).
    [[nodiscard]] grid_slot& slot_at(const coordinate& c) noexcept
    {
        return grid[index_of(c)];
    }
    [[nodiscard]] const grid_slot& slot_at(const coordinate& c) const noexcept
    {
        return grid[index_of(c)];
    }

    [[nodiscard]] bool occupied_at(const coordinate& c) const noexcept
    {
        return within_bounds(c) && slot_at(c).data.type != ntk::gate_type::none;
    }

    void check_occupied(const coordinate& c, const char* ctx) const;

    std::string design_name;
    layout_topology topo;
    clocking_scheme scheme;
    /// Filled by the constructor for regular schemes; unused for OPEN.
    direction_table out_dirs{};
    direction_table in_dirs{};
    std::uint32_t w;
    std::uint32_t h;

    /// 2 * w * h slots, indexed (z * h + y) * w + x.
    std::vector<grid_slot> grid;
    std::size_t occupied_count{0};
    std::vector<coordinate> pis;
    std::vector<coordinate> pos;
    /// Non-empty gate names by tile; follows move_tile, clear_tile and the
    /// translation of shrink_to_fit.
    std::unordered_map<coordinate, std::string, coordinate_hash> names;
};

}  // namespace mnt::lyt
