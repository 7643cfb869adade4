#include "gate_library/qca_one.hpp"

#include "common/types.hpp"

#include <array>
#include <string>
#include <vector>

namespace mnt::gl
{

namespace
{

using lyt::coordinate;
using lyt::gate_level_layout;
using ntk::gate_type;

/// Port direction relative to a tile.
enum class direction : std::uint8_t
{
    north,
    east,
    south,
    west
};

direction direction_between(const coordinate& from, const coordinate& to)
{
    if (to.x == from.x + 1)
    {
        return direction::east;
    }
    if (to.x == from.x - 1)
    {
        return direction::west;
    }
    if (to.y == from.y + 1)
    {
        return direction::south;
    }
    if (to.y == from.y - 1)
    {
        return direction::north;
    }
    throw design_rule_error{"qca_one: connection between non-adjacent tiles " + from.to_string() + " -> " +
                            to.to_string()};
}

/// The two arm cell offsets of each direction within the 5x5 tile (outer
/// cell first).
const std::array<std::array<std::pair<int, int>, 2>, 4>& arm_offsets()
{
    static const std::array<std::array<std::pair<int, int>, 2>, 4> arms = {{
        {{{2, 0}, {2, 1}}},  // north
        {{{4, 2}, {3, 2}}},  // east
        {{{2, 4}, {2, 3}}},  // south
        {{{0, 2}, {1, 2}}},  // west
    }};
    return arms;
}

/// The inner arm cell (adjacent to the center) of a direction.
std::pair<int, int> inner_arm_cell(const direction d)
{
    return arm_offsets()[static_cast<std::size_t>(d)][1];
}

class qca_builder
{
public:
    explicit qca_builder(const gate_level_layout& gate_layout) :
            source{gate_layout},
            result{gate_layout.layout_name(), cell_technology::qca, gate_layout.width() * qca_one_tile_size,
                   gate_layout.height() * qca_one_tile_size}
    {}

    cell_level_layout build()
    {
        for (const auto& t : source.tiles_sorted())
        {
            compile_tile(t);
        }
        return std::move(result);
    }

private:
    void put(const coordinate& tile, const int cx, const int cy, const cell_kind kind, const std::string& name = {},
             const std::uint8_t layer = 0)
    {
        const coordinate pos{tile.x * static_cast<std::int32_t>(qca_one_tile_size) + cx,
                             tile.y * static_cast<std::int32_t>(qca_one_tile_size) + cy, layer};
        if (!result.is_empty_cell(pos))
        {
            return;  // shared arm cell already present (e.g. straight wires)
        }
        cell c{};
        c.kind = kind;
        c.name = name;
        result.place_cell(pos, std::move(c), source.clock_number(tile));
    }

    void put_arm(const coordinate& tile, const direction d, const std::uint8_t layer = 0,
                 const cell_kind kind = cell_kind::normal)
    {
        for (const auto& [cx, cy] : arm_offsets()[static_cast<std::size_t>(d)])
        {
            put(tile, cx, cy, kind, {}, layer);
        }
    }

    void compile_tile(const coordinate& tile)
    {
        const auto& data = source.get(tile);

        std::vector<direction> in_dirs;
        for (const auto& in : data.incoming)
        {
            in_dirs.push_back(direction_between(tile.ground(), in.ground()));
        }
        std::vector<direction> out_dirs;
        for (const auto& out : source.outgoing_of(tile))
        {
            out_dirs.push_back(direction_between(tile.ground(), out.ground()));
        }

        const std::uint8_t layer = tile.z;
        const auto kind_for_layer = layer == 1 ? cell_kind::crossover : cell_kind::normal;

        switch (data.type)
        {
            case gate_type::pi:
            {
                put(tile, 2, 2, cell_kind::input, source.io_name_of(tile));
                for (const auto d : out_dirs)
                {
                    put_arm(tile, d);
                }
                break;
            }
            case gate_type::po:
            {
                put(tile, 2, 2, cell_kind::output, source.io_name_of(tile));
                for (const auto d : in_dirs)
                {
                    put_arm(tile, d);
                }
                break;
            }
            case gate_type::buf:
            {
                // wire segment (either layer); crossing wires use crossover
                // cells in the crossing layer
                put(tile, 2, 2, kind_for_layer, {}, layer);
                for (const auto d : in_dirs)
                {
                    put_arm(tile, d, layer, kind_for_layer);
                }
                for (const auto d : out_dirs)
                {
                    put_arm(tile, d, layer, kind_for_layer);
                }
                break;
            }
            case gate_type::fanout:
            {
                put(tile, 2, 2, cell_kind::normal);
                for (const auto d : in_dirs)
                {
                    put_arm(tile, d);
                }
                for (const auto d : out_dirs)
                {
                    put_arm(tile, d);
                }
                break;
            }
            case gate_type::inv:
            {
                // diagonal-coupler inverter: in/out arms, no center cell,
                // two coupler cells perpendicular to the output direction
                for (const auto d : in_dirs)
                {
                    put_arm(tile, d);
                }
                for (const auto d : out_dirs)
                {
                    put_arm(tile, d);
                }
                const bool horizontal_out =
                    !out_dirs.empty() && (out_dirs[0] == direction::east || out_dirs[0] == direction::west);
                if (horizontal_out)
                {
                    put(tile, 2, 1, cell_kind::normal);
                    put(tile, 2, 3, cell_kind::normal);
                }
                else
                {
                    put(tile, 1, 2, cell_kind::normal);
                    put(tile, 3, 2, cell_kind::normal);
                }
                break;
            }
            case gate_type::and2:
            case gate_type::or2:
            case gate_type::maj3:
            {
                put(tile, 2, 2, cell_kind::normal);  // majority center
                std::array<bool, 4> used{};
                for (const auto d : in_dirs)
                {
                    put_arm(tile, d);
                    used[static_cast<std::size_t>(d)] = true;
                }
                for (const auto d : out_dirs)
                {
                    put_arm(tile, d);
                    used[static_cast<std::size_t>(d)] = true;
                }
                if (data.type != gate_type::maj3)
                {
                    // fix the free arm to 0 (AND) or 1 (OR)
                    const auto fixed = data.type == gate_type::and2 ? cell_kind::fixed_0 : cell_kind::fixed_1;
                    for (std::size_t d = 0; d < 4; ++d)
                    {
                        if (!used[d])
                        {
                            const auto [cx, cy] = inner_arm_cell(static_cast<direction>(d));
                            put(tile, cx, cy, fixed);
                            break;
                        }
                    }
                }
                break;
            }
            default:
                throw design_rule_error{"qca_one: gate type '" + std::string{ntk::gate_type_name(data.type)} +
                                        "' is not part of the QCA ONE library; decompose the network with "
                                        "to_aoi() before physical design"};
        }
    }

    const gate_level_layout& source;
    cell_level_layout result;
};

}  // namespace

cell_level_layout apply_qca_one(const gate_level_layout& layout)
{
    if (layout.topology() != lyt::layout_topology::cartesian)
    {
        throw precondition_error{"apply_qca_one: the QCA ONE library targets Cartesian layouts"};
    }
    qca_builder builder{layout};
    return builder.build();
}

double qca_physical_area_nm2(const cell_level_layout& cells)
{
    return static_cast<double>(cells.width()) * qca_cell_pitch_nm * static_cast<double>(cells.height()) *
           qca_cell_pitch_nm;
}

}  // namespace mnt::gl
