#pragma once

/// \file coordinates.hpp
/// \brief Tile coordinates and grid topologies for FCN layouts.
///
/// Layouts are 2.5-dimensional: tiles live on an (x, y) grid with a small
/// number of vertical layers z. Layer 0 is the ground layer hosting gates and
/// wires; layer 1 hosts the second wire of a crossing. Two grid topologies
/// are supported:
///
/// - \ref layout_topology::cartesian — square tiles with 4-neighborhood
///   (used with the QCA ONE gate library),
/// - \ref layout_topology::hexagonal_even_row — pointy-top hexagons in
///   even-row offset coordinates with 6-neighborhood (used with the Bestagon
///   SiDB gate library).

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>

namespace mnt::lyt
{

/// Grid topology of a layout.
enum class layout_topology : std::uint8_t
{
    /// Square tiles, 4-neighborhood (N/E/S/W).
    cartesian,
    /// Pointy-top hexagons in even-row offset coordinates: odd rows are
    /// shifted half a tile to the right (fiction's even_row_hex convention).
    hexagonal_even_row
};

/// Returns a printable name ("cartesian"/"hexagonal") for \p topo.
[[nodiscard]] std::string topology_name(layout_topology topo);

/// Parses a topology name; throws mnt::mnt_error on unknown names.
[[nodiscard]] layout_topology topology_from_name(const std::string& name);

/// A tile coordinate. x grows eastward, y grows southward, z upward
/// (z = 0: ground layer, z = 1: crossing layer).
struct coordinate
{
    std::int32_t x{0};
    std::int32_t y{0};
    std::uint8_t z{0};

    constexpr coordinate() = default;
    constexpr coordinate(const std::int32_t x_pos, const std::int32_t y_pos, const std::uint8_t z_layer = 0) :
            x{x_pos},
            y{y_pos},
            z{z_layer}
    {}

    constexpr bool operator==(const coordinate& other) const noexcept = default;

    /// Lexicographic (y, x, z) order: row-major like the clocking cutouts.
    constexpr auto operator<=>(const coordinate& other) const noexcept
    {
        if (const auto c = y <=> other.y; c != 0)
        {
            return c;
        }
        if (const auto c = x <=> other.x; c != 0)
        {
            return c;
        }
        return z <=> other.z;
    }

    /// The same position in the ground layer.
    [[nodiscard]] constexpr coordinate ground() const noexcept
    {
        return {x, y, 0};
    }

    /// The same position in the crossing layer.
    [[nodiscard]] constexpr coordinate elevated() const noexcept
    {
        return {x, y, 1};
    }

    /// "(x, y, z)" string for diagnostics and the .fgl format.
    [[nodiscard]] std::string to_string() const;
};

/// FNV-1a style hash so coordinates can key unordered containers.
struct coordinate_hash
{
    std::size_t operator()(const coordinate& c) const noexcept
    {
        auto h = static_cast<std::size_t>(1469598103934665603ull);
        const auto mix = [&h](const std::uint64_t v)
        {
            h ^= static_cast<std::size_t>(v);
            h *= static_cast<std::size_t>(1099511628211ull);
        };
        mix(static_cast<std::uint32_t>(c.x));
        mix(static_cast<std::uint32_t>(c.y));
        mix(c.z);
        return h;
    }
};

/// A list of at most \p Capacity coordinates stored inline, without heap
/// memory. The neighbor queries return one (a tile has at most six planar
/// neighbors), and every tile of a gate-level layout keeps its fanout in
/// one. Callers iterate, index, and ask for the size; pushing beyond
/// \p Capacity is a precondition violation.
template <std::size_t Capacity>
class coordinate_list
{
public:
    constexpr void push_back(const coordinate& c) noexcept
    {
        items[count++] = c;
    }

    /// Removes the first occurrence of \p c, keeping the order of the rest;
    /// no-op if \p c is absent.
    constexpr void erase(const coordinate& c) noexcept
    {
        for (std::uint8_t i = 0; i < count; ++i)
        {
            if (items[i] == c)
            {
                for (std::uint8_t j = i; j + 1 < count; ++j)
                {
                    items[j] = items[j + 1];
                }
                --count;
                return;
            }
        }
    }

    constexpr void clear() noexcept
    {
        count = 0;
    }

    [[nodiscard]] constexpr std::size_t size() const noexcept
    {
        return count;
    }
    [[nodiscard]] constexpr bool empty() const noexcept
    {
        return count == 0;
    }

    [[nodiscard]] constexpr const coordinate& operator[](const std::size_t i) const noexcept
    {
        return items[i];
    }

    [[nodiscard]] constexpr const coordinate* data() const noexcept
    {
        return items.data();
    }
    [[nodiscard]] constexpr coordinate* begin() noexcept
    {
        return items.data();
    }
    [[nodiscard]] constexpr coordinate* end() noexcept
    {
        return items.data() + count;
    }
    [[nodiscard]] constexpr const coordinate* begin() const noexcept
    {
        return items.data();
    }
    [[nodiscard]] constexpr const coordinate* end() const noexcept
    {
        return items.data() + count;
    }

private:
    std::array<coordinate, Capacity> items{};
    std::uint8_t count{0};
};

/// The planar neighbors of one tile.
using neighbor_list = coordinate_list<6>;

/// All planar (same-z) neighbors of \p c under topology \p topo, without any
/// bounds checking, in a fixed order that routing tie-breaks depend on.
/// Cartesian: E, S, W, N. Hexagonal, even row: (x+1, y), (x-1, y),
/// (x-1, y-1), (x, y-1), (x-1, y+1), (x, y+1); odd row: (x+1, y), (x-1, y),
/// (x, y-1), (x+1, y-1), (x, y+1), (x+1, y+1).
[[nodiscard]] inline neighbor_list planar_neighbors(const coordinate& c, const layout_topology topo) noexcept
{
    neighbor_list ns;
    ns.push_back({c.x + 1, c.y, c.z});
    if (topo == layout_topology::cartesian)
    {
        ns.push_back({c.x, c.y + 1, c.z});
        ns.push_back({c.x - 1, c.y, c.z});
        ns.push_back({c.x, c.y - 1, c.z});
        return ns;
    }

    // even-row offset hexagons, pointy-top; odd rows shifted right, so the
    // diagonal neighbors of an odd row lie one column further east
    const auto shift = c.y & 1;
    ns.push_back({c.x - 1, c.y, c.z});
    ns.push_back({c.x - 1 + shift, c.y - 1, c.z});
    ns.push_back({c.x + shift, c.y - 1, c.z});
    ns.push_back({c.x - 1 + shift, c.y + 1, c.z});
    ns.push_back({c.x + shift, c.y + 1, c.z});
    return ns;
}

/// True if \p a and \p b occupy planar-adjacent grid positions (z ignored),
/// i.e. if \p b is one of the \ref planar_neighbors of \p a.
[[nodiscard]] constexpr bool are_adjacent(const coordinate& a, const coordinate& b,
                                          const layout_topology topo) noexcept
{
    const auto dx = std::int64_t{b.x} - a.x;
    const auto dy = std::int64_t{b.y} - a.y;
    if (dy == 0)
    {
        return dx == 1 || dx == -1;
    }
    if (dy != 1 && dy != -1)
    {
        return false;
    }
    if (topo == layout_topology::cartesian)
    {
        return dx == 0;
    }
    // the diagonal neighbors of planar_neighbors: x - 1 + shift and x + shift
    const auto shift = a.y & 1;
    return dx == shift - 1 || dx == shift;
}

/// Manhattan-like distance used as a router heuristic: exact for Cartesian,
/// admissible lower bound for hexagonal grids.
[[nodiscard]] constexpr std::uint32_t grid_distance(const coordinate& a, const coordinate& b,
                                                    const layout_topology topo) noexcept
{
    const auto dx = static_cast<std::uint32_t>(a.x > b.x ? std::int64_t{a.x} - b.x : std::int64_t{b.x} - a.x);
    const auto dy = static_cast<std::uint32_t>(a.y > b.y ? std::int64_t{a.y} - b.y : std::int64_t{b.y} - a.y);
    if (topo == layout_topology::cartesian)
    {
        return dx + dy;
    }
    // hexagonal offset grids: moving one row can also change x by one, so the
    // row difference may "absorb" part of the column difference
    return dx > dy ? dx : dy;
}

}  // namespace mnt::lyt
