#include "layout/coordinates.hpp"

#include "common/types.hpp"

#include <cmath>
#include <cstdlib>

namespace mnt::lyt
{

std::string topology_name(const layout_topology topo)
{
    return topo == layout_topology::cartesian ? "cartesian" : "hexagonal";
}

layout_topology topology_from_name(const std::string& name)
{
    if (name == "cartesian")
    {
        return layout_topology::cartesian;
    }
    if (name == "hexagonal" || name == "hexagonal_even_row" || name == "even_row_hex")
    {
        return layout_topology::hexagonal_even_row;
    }
    throw mnt_error{"unknown layout topology '" + name + "'"};
}

std::string coordinate::to_string() const
{
    return "(" + std::to_string(x) + ", " + std::to_string(y) + ", " + std::to_string(z) + ")";
}

bool are_adjacent(const coordinate& a, const coordinate& b, const layout_topology topo)
{
    for (const auto& n : planar_neighbors(coordinate{a.x, a.y, 0}, topo))
    {
        if (n.x == b.x && n.y == b.y)
        {
            return true;
        }
    }
    return false;
}

std::uint32_t grid_distance(const coordinate& a, const coordinate& b, const layout_topology topo)
{
    const auto dx = std::abs(a.x - b.x);
    const auto dy = std::abs(a.y - b.y);
    if (topo == layout_topology::cartesian)
    {
        return static_cast<std::uint32_t>(dx + dy);
    }
    // hexagonal offset grids: moving one row can also change x by one, so the
    // row difference may "absorb" part of the column difference
    return static_cast<std::uint32_t>(std::max<std::int64_t>(dy, dx));
}

}  // namespace mnt::lyt
