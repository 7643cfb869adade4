#include "layout/coordinates.hpp"

#include "common/types.hpp"

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

}  // namespace mnt::lyt
