#include "gate_library/bestagon.hpp"

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

/// Hexagonal port direction of a tile.
enum class hex_direction : std::uint8_t
{
    up_left,
    up_right,
    down_left,
    down_right
};

hex_direction direction_between(const coordinate& from, const coordinate& to)
{
    const bool even = (from.y & 1) == 0;
    if (to.y == from.y - 1)
    {
        if ((even && to.x == from.x - 1) || (!even && to.x == from.x))
        {
            return hex_direction::up_left;
        }
        if ((even && to.x == from.x) || (!even && to.x == from.x + 1))
        {
            return hex_direction::up_right;
        }
    }
    if (to.y == from.y + 1)
    {
        if ((even && to.x == from.x - 1) || (!even && to.x == from.x))
        {
            return hex_direction::down_left;
        }
        if ((even && to.x == from.x) || (!even && to.x == from.x + 1))
        {
            return hex_direction::down_right;
        }
    }
    throw design_rule_error{"bestagon: connection between non-adjacent hex tiles " + from.to_string() + " -> " +
                            to.to_string()};
}

/// Arm site offsets per direction (outer first), within the 8x6 tile.
const std::array<std::array<std::pair<int, int>, 3>, 4>& arm_offsets()
{
    static const std::array<std::array<std::pair<int, int>, 3>, 4> arms = {{
        {{{1, 0}, {2, 1}, {3, 2}}},  // up_left
        {{{6, 0}, {5, 1}, {4, 2}}},  // up_right
        {{{1, 5}, {2, 4}, {3, 3}}},  // down_left  (meets the center pair)
        {{{6, 5}, {5, 4}, {4, 3}}},  // down_right
    }};
    return arms;
}

class bestagon_builder
{
public:
    explicit bestagon_builder(const gate_level_layout& gate_layout) :
            source{gate_layout},
            // odd rows are shifted right by half a tile
            result{gate_layout.layout_name(), cell_technology::sidb,
                   gate_layout.width() * bestagon_tile_width + bestagon_tile_width / 2,
                   gate_layout.height() * bestagon_tile_height}
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
        const auto shift = (tile.y & 1) != 0 ? static_cast<std::int32_t>(bestagon_tile_width / 2) : 0;
        const coordinate pos{tile.x * static_cast<std::int32_t>(bestagon_tile_width) + shift + cx,
                             tile.y * static_cast<std::int32_t>(bestagon_tile_height) + cy, layer};
        if (!result.is_empty_cell(pos))
        {
            return;
        }
        cell c{};
        c.kind = kind;
        c.name = name;
        result.place_cell(pos, std::move(c), source.clock_number(tile));
    }

    void put_arm(const coordinate& tile, const hex_direction d, const std::uint8_t layer,
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
        if (data.type == gate_type::maj3)
        {
            throw design_rule_error{
                "bestagon: the Bestagon library provides no majority gate; decompose with decompose_maj()"};
        }

        const std::uint8_t layer = tile.z;
        const auto kind = layer == 1 ? cell_kind::crossover : cell_kind::normal;

        // center dot pair
        if (data.type == gate_type::pi)
        {
            put(tile, 3, 3, cell_kind::input, source.io_name_of(tile));
            put(tile, 4, 3, cell_kind::normal, {}, layer);
        }
        else if (data.type == gate_type::po)
        {
            put(tile, 3, 3, cell_kind::output, source.io_name_of(tile));
            put(tile, 4, 3, cell_kind::normal, {}, layer);
        }
        else
        {
            put(tile, 3, 3, kind, {}, layer);
            put(tile, 4, 3, kind, {}, layer);
        }

        for (const auto& in : data.incoming)
        {
            put_arm(tile, direction_between(tile.ground(), in.ground()), layer, kind);
        }
        for (const auto& out : source.outgoing_of(tile))
        {
            put_arm(tile, direction_between(tile.ground(), out.ground()), layer, kind);
        }

        // inverters carry an extra perturber dot that flips the signal
        if (data.type == gate_type::inv || data.type == gate_type::nand2 || data.type == gate_type::nor2 ||
            data.type == gate_type::xnor2)
        {
            put(tile, 2, 3, cell_kind::fixed_1, {}, layer);
        }
    }

    const gate_level_layout& source;
    cell_level_layout result;
};

}  // namespace

cell_level_layout apply_bestagon(const gate_level_layout& layout)
{
    if (layout.topology() != lyt::layout_topology::hexagonal_even_row ||
        layout.clocking().kind() != lyt::clocking_kind::row)
    {
        throw precondition_error{"apply_bestagon: the Bestagon library targets hexagonal ROW-clocked layouts"};
    }
    bestagon_builder builder{layout};
    return builder.build();
}

double bestagon_physical_area_nm2(const cell_level_layout& cells)
{
    return static_cast<double>(cells.width()) * bestagon_site_pitch_x_nm * static_cast<double>(cells.height()) *
           bestagon_site_pitch_y_nm;
}

}  // namespace mnt::gl
