#include "physical_design/hexagonalization.hpp"

#include "common/types.hpp"
#include "telemetry/telemetry.hpp"

#include <algorithm>
#include <limits>

namespace mnt::pd
{

namespace
{

using lyt::coordinate;

}  // namespace

lyt::gate_level_layout hexagonalization(const lyt::gate_level_layout& cartesian)
{
    MNT_SPAN("hexagonalization");
    if (cartesian.topology() != lyt::layout_topology::cartesian ||
        cartesian.clocking().kind() != lyt::clocking_kind::twoddwave)
    {
        throw precondition_error{"hexagonalization: input must be a 2DDWave-clocked Cartesian layout"};
    }

    // the x offset must be even: the floor pairing of (x - y + offset) / 2
    // aligns east/south steps with the even/odd-row down-neighbors only for
    // even offsets (odd ones mirror the parity and break adjacency)
    const auto h = static_cast<std::int32_t>(cartesian.height() + (cartesian.height() & 1u));

    const auto to_hex = [h](const coordinate& c) -> coordinate
    {
        // x - y + h >= 1 for in-bounds tiles, so the division floors correctly
        return {(c.x - c.y + h) / 2, c.x + c.y, c.z};
    };

    // determine the horizontal extent to trim the empty left margin; the x
    // shift is unconstrained (ROW zones and row parity only depend on y)
    std::int32_t min_x = std::numeric_limits<std::int32_t>::max();
    std::int32_t max_x = std::numeric_limits<std::int32_t>::min();
    std::int32_t max_y = 0;
    cartesian.foreach_tile(
        [&](const coordinate& c, const lyt::gate_level_layout::tile_data&)
        {
            const auto hex = to_hex(c);
            min_x = std::min(min_x, hex.x);
            max_x = std::max(max_x, hex.x);
            max_y = std::max(max_y, hex.y);
        });
    if (min_x == std::numeric_limits<std::int32_t>::max())
    {
        min_x = 0;
        max_x = 0;
    }

    // NOTE: shifting x is safe for any amount, but shifting rows would flip
    // the even/odd row parity and break adjacency, so y is kept verbatim
    // (row 0 is always occupied for non-empty inputs since tile (0, 0)'s
    // diagonal is the minimum one present after ortho's shrink_to_fit; if
    // not, the blank top rows merely remain part of the bounding box).
    const auto shift = [&](const coordinate& c) -> coordinate
    {
        const auto hex = to_hex(c);
        return {hex.x - min_x, hex.y, hex.z};
    };

    lyt::gate_level_layout hex_layout{cartesian.layout_name(), lyt::layout_topology::hexagonal_even_row,
                                      lyt::clocking_scheme::row(), static_cast<std::uint32_t>(max_x - min_x + 1),
                                      static_cast<std::uint32_t>(max_y + 1)};

    // first pass: place all gates
    cartesian.foreach_tile([&](const coordinate& c, const lyt::gate_level_layout::tile_data& d)
                           { hex_layout.place(shift(c), d.type, cartesian.io_name_of(c)); });

    // second pass: transfer connections in slot order (deterministically)
    for (const auto& c : cartesian.tiles_sorted())
    {
        const auto& d = cartesian.get(c);
        const auto target = shift(c);
        for (const auto& in : d.incoming)
        {
            hex_layout.connect(shift(in), target);
        }
    }

    return hex_layout;
}

}  // namespace mnt::pd
