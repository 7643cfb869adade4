#include "layout/gate_level_layout.hpp"

#include "common/types.hpp"

#include <algorithm>
#include <limits>
#include <utility>

namespace mnt::lyt
{

static_assert(ntk::gate_arity(ntk::gate_type::maj3) == gate_level_layout::max_fanin);

gate_level_layout::gate_level_layout(std::string layout_name, const layout_topology topology_kind,
                                     clocking_scheme clock_scheme, const std::uint32_t width,
                                     const std::uint32_t height) :
        design_name{std::move(layout_name)},
        topo{topology_kind},
        scheme{std::move(clock_scheme)},
        w{width},
        h{height}
{
    if (width == 0 || height == 0)
    {
        throw precondition_error{"gate_level_layout: dimensions must be positive"};
    }
    if (topo == layout_topology::hexagonal_even_row && scheme.is_regular() &&
        scheme.kind() != clocking_kind::row)
    {
        throw precondition_error{"gate_level_layout: hexagonal layouts support only ROW or OPEN clocking"};
    }
    if (scheme.is_regular())
    {
        // zones repeat every 4 tiles and the neighbor offsets depend only on
        // the row parity, so tiles congruent mod 4 share their clocked
        // directions: tabulate them from the scheme itself
        for (std::int32_t y = 0; y < 4; ++y)
        {
            for (std::int32_t x = 0; x < 4; ++x)
            {
                const coordinate c{x, y};
                const auto ns = planar_neighbors(c, topo);
                std::uint8_t out = 0;
                std::uint8_t in = 0;
                for (std::size_t k = 0; k < ns.size(); ++k)
                {
                    out |= static_cast<std::uint8_t>(scheme.is_incoming_clocked(ns[k], c) ? 1u << k : 0u);
                    in |= static_cast<std::uint8_t>(scheme.is_incoming_clocked(c, ns[k]) ? 1u << k : 0u);
                }
                out_dirs[static_cast<std::size_t>(y)][static_cast<std::size_t>(x)] = out;
                in_dirs[static_cast<std::size_t>(y)][static_cast<std::size_t>(x)] = in;
            }
        }
    }
    grid.resize(static_cast<std::size_t>(2) * w * h);
}

gate_level_layout::gate_level_layout() :
        gate_level_layout{"", layout_topology::cartesian, clocking_scheme::open(), 1, 1}
{}

std::uint32_t gate_level_layout::width() const noexcept
{
    return w;
}

std::uint32_t gate_level_layout::height() const noexcept
{
    return h;
}

std::uint64_t gate_level_layout::area() const noexcept
{
    return static_cast<std::uint64_t>(w) * static_cast<std::uint64_t>(h);
}

layout_topology gate_level_layout::topology() const noexcept
{
    return topo;
}

const clocking_scheme& gate_level_layout::clocking() const noexcept
{
    return scheme;
}

void gate_level_layout::assign_clock(const coordinate& c, const std::uint8_t zone)
{
    scheme.assign_clock(c, zone);
}

void gate_level_layout::resize(const std::uint32_t width, const std::uint32_t height)
{
    if (width == 0 || height == 0)
    {
        throw precondition_error{"resize: dimensions must be positive"};
    }
    // validate-then-commit: a failed resize must leave the layout untouched
    if (width < w || height < h)
    {
        bool all_inside = true;
        coordinate offender{};
        foreach_tile(
            [&](const coordinate& c, const tile_data&)
            {
                if (all_inside &&
                    (c.x >= static_cast<std::int32_t>(width) || c.y >= static_cast<std::int32_t>(height)))
                {
                    all_inside = false;
                    offender = c;
                }
            });
        if (!all_inside)
        {
            throw precondition_error{"resize: occupied tile " + offender.to_string() +
                                     " would fall out of bounds"};
        }
    }

    std::vector<grid_slot> remapped(static_cast<std::size_t>(2) * width * height);
    std::size_t index = 0;
    for (std::uint8_t z = 0; z < 2; ++z)
    {
        for (std::uint32_t y = 0; y < h; ++y)
        {
            for (std::uint32_t x = 0; x < w; ++x, ++index)
            {
                auto& slot = grid[index];
                if (slot.data.type == ntk::gate_type::none || x >= width || y >= height)
                {
                    continue;
                }
                remapped[(static_cast<std::size_t>(z) * height + y) * width + x] = slot;
            }
        }
    }
    grid = std::move(remapped);
    w = width;
    h = height;
    scheme.prune_assigned_outside(width, height);
}

std::pair<coordinate, coordinate> gate_level_layout::bounding_box() const
{
    if (occupied_count == 0)
    {
        return {{0, 0}, {0, 0}};
    }
    std::int32_t min_x = std::numeric_limits<std::int32_t>::max();
    std::int32_t min_y = std::numeric_limits<std::int32_t>::max();
    std::int32_t max_x = std::numeric_limits<std::int32_t>::min();
    std::int32_t max_y = std::numeric_limits<std::int32_t>::min();
    foreach_tile(
        [&](const coordinate& c, const tile_data&)
        {
            min_x = std::min(min_x, c.x);
            min_y = std::min(min_y, c.y);
            max_x = std::max(max_x, c.x);
            max_y = std::max(max_y, c.y);
        });
    return {{min_x, min_y}, {max_x, max_y}};
}

void gate_level_layout::shrink_to_fit()
{
    if (occupied_count == 0)
    {
        w = 1;
        h = 1;
        grid.assign(2, grid_slot{});
        scheme.prune_assigned_outside(1, 1);
        return;
    }
    const auto [min_c, max_c] = bounding_box();

    std::int32_t dx = 0;
    std::int32_t dy = 0;
    if (min_c.x != 0 || min_c.y != 0)
    {
        // Translate everything toward the origin by the largest shift that
        // preserves all clock zones (regular schemes are 4-periodic, so at
        // most 3 rows/columns of margin remain). Hexagonal layouts
        // additionally require an even row shift to keep the offset parity —
        // for OPEN schemes as well: zones can be re-keyed, but an odd row
        // shift would change the offset neighborhoods themselves.
        const auto zone_preserving = [this](const std::int32_t sx, const std::int32_t sy)
        {
            if (topo == layout_topology::hexagonal_even_row && sy % 2 != 0)
            {
                return false;
            }
            if (!scheme.is_regular())
            {
                return true;  // zones are re-keyed below
            }
            for (std::int32_t y = 0; y < 4; ++y)
            {
                for (std::int32_t x = 0; x < 4; ++x)
                {
                    if (scheme.clock_number({x + sx, y + sy}) != scheme.clock_number({x, y}))
                    {
                        return false;
                    }
                }
            }
            return true;
        };

        for (std::int32_t sx = min_c.x; sx >= std::max(0, min_c.x - 3); --sx)
        {
            for (std::int32_t sy = min_c.y; sy >= std::max(0, min_c.y - 3); --sy)
            {
                if ((sx > dx || (sx == dx && sy > dy)) && zone_preserving(sx, sy))
                {
                    dx = sx;
                    dy = sy;
                }
            }
        }
    }

    const auto new_w = static_cast<std::uint32_t>(max_c.x - dx + 1);
    const auto new_h = static_cast<std::uint32_t>(max_c.y - dy + 1);
    const auto shift = [dx, dy](const coordinate& c) { return coordinate{c.x - dx, c.y - dy, c.z}; };

    if (dx != 0 || dy != 0)
    {
        // remap the grid under the translation, patching the coordinates
        // embedded in fanin/fanout lists
        std::vector<grid_slot> remapped(static_cast<std::size_t>(2) * new_w * new_h);
        std::size_t index = 0;
        for (std::uint8_t z = 0; z < 2; ++z)
        {
            for (std::uint32_t y = 0; y < h; ++y)
            {
                for (std::uint32_t x = 0; x < w; ++x, ++index)
                {
                    auto& slot = grid[index];
                    if (slot.data.type == ntk::gate_type::none)
                    {
                        continue;
                    }
                    const auto to = shift({static_cast<std::int32_t>(x), static_cast<std::int32_t>(y), z});
                    for (auto& in : slot.data.incoming)
                    {
                        in = shift(in);
                    }
                    for (auto& out : slot.outs)
                    {
                        out = shift(out);
                    }
                    remapped[(static_cast<std::size_t>(to.z) * new_h + static_cast<std::size_t>(to.y)) * new_w +
                             static_cast<std::size_t>(to.x)] = slot;
                }
            }
        }

        if (!scheme.is_regular())
        {
            // re-key the assigned zones of the occupied ground positions
            // (crossings share their ground tile's zone, so assign per ground
            // coordinate of every occupied tile)
            clocking_scheme shifted = clocking_scheme::open();
            index = 0;
            for (std::uint8_t z = 0; z < 2; ++z)
            {
                for (std::uint32_t y = 0; y < new_h; ++y)
                {
                    for (std::uint32_t x = 0; x < new_w; ++x, ++index)
                    {
                        if (remapped[index].data.type != ntk::gate_type::none)
                        {
                            shifted.assign_clock(
                                {static_cast<std::int32_t>(x), static_cast<std::int32_t>(y), 0},
                                scheme.clock_number(
                                    {static_cast<std::int32_t>(x) + dx, static_cast<std::int32_t>(y) + dy, 0}));
                        }
                    }
                }
            }
            scheme = std::move(shifted);
        }

        grid = std::move(remapped);
        std::unordered_map<coordinate, std::string, coordinate_hash> shifted_names;
        shifted_names.reserve(names.size());
        for (auto& [c, name] : names)
        {
            shifted_names.emplace(shift(c), std::move(name));
        }
        names = std::move(shifted_names);
        for (auto& c : pis)
        {
            c = shift(c);
        }
        for (auto& c : pos)
        {
            c = shift(c);
        }
        w = new_w;
        h = new_h;
        scheme.prune_assigned_outside(new_w, new_h);
        return;
    }

    resize(new_w, new_h);
}

void gate_level_layout::place(const coordinate& c, const ntk::gate_type t, const std::string& io_name)
{
    if (!within_bounds(c))
    {
        throw precondition_error{"place: tile " + c.to_string() + " is out of bounds"};
    }
    auto& slot = slot_at(c);
    if (slot.data.type != ntk::gate_type::none)
    {
        throw precondition_error{"place: tile " + c.to_string() + " is already occupied"};
    }
    if (t == ntk::gate_type::none || t == ntk::gate_type::const0 || t == ntk::gate_type::const1)
    {
        throw precondition_error{"place: constants and 'none' cannot be placed on tiles"};
    }
    if (c.z == 1 && t != ntk::gate_type::buf)
    {
        throw precondition_error{"place: crossing layer tiles may only host wire segments"};
    }

    slot.data.type = t;
    if (!io_name.empty())
    {
        names.insert_or_assign(c, io_name);
    }
    ++occupied_count;

    if (t == ntk::gate_type::pi)
    {
        pis.push_back(c);
    }
    else if (t == ntk::gate_type::po)
    {
        pos.push_back(c);
    }
}

void gate_level_layout::check_occupied(const coordinate& c, const char* ctx) const
{
    if (!occupied_at(c))
    {
        throw precondition_error{std::string{ctx} + ": tile " + c.to_string() + " is empty"};
    }
}

void gate_level_layout::connect(const coordinate& src, const coordinate& dst)
{
    check_occupied(src, "connect (source)");
    check_occupied(dst, "connect (target)");

    auto& d = slot_at(dst).data;
    const auto capacity = (dst.z == 1) ? std::size_t{1} : static_cast<std::size_t>(ntk::gate_arity(d.type));
    if (d.incoming.size() >= capacity)
    {
        throw precondition_error{"connect: all fanin slots of " + dst.to_string() + " are taken"};
    }
    auto& src_slot = slot_at(src);
    if (src_slot.outs.size() >= max_fanout)
    {
        throw precondition_error{"connect: fanout capacity (" + std::to_string(max_fanout) + ") of " +
                                 src.to_string() + " is exhausted"};
    }
    d.incoming.push_back(src);
    src_slot.outs.push_back(dst);
}

void gate_level_layout::disconnect(const coordinate& src, const coordinate& dst)
{
    if (occupied_at(dst))
    {
        slot_at(dst).data.incoming.erase(src);
    }
    if (within_bounds(src))
    {
        slot_at(src).outs.erase(dst);
    }
}

void gate_level_layout::set_incoming_order(const coordinate& dst, const std::span<const coordinate> order)
{
    check_occupied(dst, "set_incoming_order");
    auto& in = slot_at(dst).data.incoming;
    // a permutation has the same size and the same multiplicity of every
    // entry; at most max_fanin entries, so counting beats sorting copies
    const auto count_in = [](const auto& list, const coordinate& c)
    { return std::count(list.begin(), list.end(), c); };
    const bool permutation = order.size() == in.size() &&
                             std::all_of(order.begin(), order.end(),
                                         [&](const coordinate& c) { return count_in(order, c) == count_in(in, c); });
    if (!permutation)
    {
        throw precondition_error{"set_incoming_order: order is not a permutation of the incoming list of " +
                                 dst.to_string()};
    }
    fanin_list reordered;  // order may view this very list
    for (const auto& c : order)
    {
        reordered.push_back(c);
    }
    in = reordered;
}

void gate_level_layout::clear_tile(const coordinate& c)
{
    if (!occupied_at(c))
    {
        return;
    }
    auto& slot = slot_at(c);

    // sever incoming connections (disconnect edits the list: walk a copy)
    const auto fanins = slot.data.incoming;
    for (const auto& src : fanins)
    {
        disconnect(src, c);
    }
    // sever outgoing connections
    while (!slot.outs.empty())
    {
        disconnect(c, slot.outs[0]);
    }

    const auto t = slot.data.type;
    slot.data = tile_data{};
    if (!names.empty())
    {
        names.erase(c);
    }
    --occupied_count;
    if (t == ntk::gate_type::pi)
    {
        pis.erase(std::remove(pis.begin(), pis.end(), c), pis.end());
    }
    else if (t == ntk::gate_type::po)
    {
        pos.erase(std::remove(pos.begin(), pos.end(), c), pos.end());
    }
}

void gate_level_layout::move_tile(const coordinate& from, const coordinate& to)
{
    if (from == to)
    {
        return;
    }
    check_occupied(from, "move_tile");
    if (!within_bounds(to))
    {
        throw precondition_error{"move_tile: target " + to.to_string() + " is out of bounds"};
    }
    if (slot_at(to).data.type != ntk::gate_type::none)
    {
        throw precondition_error{"move_tile: target " + to.to_string() + " is occupied"};
    }
    auto& src_slot = slot_at(from);
    if (to.z == 1 && src_slot.data.type != ntk::gate_type::buf)
    {
        throw precondition_error{"move_tile: crossing layer tiles may only host wire segments"};
    }

    // patch fanin lists of successors
    for (const auto& out : src_slot.outs)
    {
        auto& in = slot_at(out).data.incoming;
        std::replace(in.begin(), in.end(), from, to);
    }
    // patch outgoing lists of predecessors
    for (const auto& src : src_slot.data.incoming)
    {
        if (within_bounds(src))
        {
            auto& pred = slot_at(src);
            std::replace(pred.outs.begin(), pred.outs.end(), from, to);
        }
    }

    auto& dst_slot = slot_at(to);
    dst_slot = src_slot;
    src_slot = grid_slot{};
    if (!names.empty())
    {
        if (auto node = names.extract(from); !node.empty())
        {
            node.key() = to;
            names.insert(std::move(node));
        }
    }

    const auto t = dst_slot.data.type;
    if (t == ntk::gate_type::pi)
    {
        std::replace(pis.begin(), pis.end(), from, to);
    }
    else if (t == ntk::gate_type::po)
    {
        std::replace(pos.begin(), pos.end(), from, to);
    }
}

const gate_level_layout::tile_data& gate_level_layout::get(const coordinate& c) const
{
    check_occupied(c, "get");
    return slot_at(c).data;
}

const std::string& gate_level_layout::io_name_of(const coordinate& c) const
{
    static const std::string none{};
    const auto it = names.find(c);
    return it == names.cend() ? none : it->second;
}

const std::vector<coordinate>& gate_level_layout::pi_tiles() const noexcept
{
    return pis;
}

const std::vector<coordinate>& gate_level_layout::po_tiles() const noexcept
{
    return pos;
}

std::size_t gate_level_layout::num_pis() const noexcept
{
    return pis.size();
}

std::size_t gate_level_layout::num_pos() const noexcept
{
    return pos.size();
}

std::size_t gate_level_layout::num_gates() const
{
    std::size_t count = 0;
    foreach_tile([&](const coordinate&, const tile_data& d) { count += ntk::is_logic_gate(d.type) ? 1u : 0u; });
    return count;
}

std::size_t gate_level_layout::num_wires() const
{
    std::size_t count = 0;
    foreach_tile(
        [&](const coordinate&, const tile_data& d)
        { count += (d.type == ntk::gate_type::buf || d.type == ntk::gate_type::fanout) ? 1u : 0u; });
    return count;
}

std::size_t gate_level_layout::num_crossings() const
{
    // the crossing layer is the second half of the grid
    std::size_t count = 0;
    const auto plane = static_cast<std::size_t>(w) * h;
    for (std::size_t i = plane; i < grid.size(); ++i)
    {
        count += grid[i].data.type != ntk::gate_type::none ? 1u : 0u;
    }
    return count;
}

std::size_t gate_level_layout::num_occupied() const noexcept
{
    return occupied_count;
}

std::uint8_t gate_level_layout::clock_number(const coordinate& c) const
{
    return scheme.clock_number(c);
}

neighbor_list gate_level_layout::open_clocked(const coordinate& c, const bool outgoing) const
{
    neighbor_list result;
    for (const auto& n : planar_neighbors(c.ground(), topo))
    {
        if (within_bounds(n) && (outgoing ? scheme.is_incoming_clocked(n, c) : scheme.is_incoming_clocked(c, n)))
        {
            result.push_back(n);
        }
    }
    return result;
}

std::vector<coordinate> gate_level_layout::tiles_sorted() const
{
    std::vector<coordinate> result;
    result.reserve(occupied_count);
    const auto plane = static_cast<std::size_t>(w) * h;
    std::size_t row_base = 0;
    for (std::int32_t y = 0; y < static_cast<std::int32_t>(h); ++y, row_base += w)
    {
        for (std::int32_t x = 0; x < static_cast<std::int32_t>(w); ++x)
        {
            if (grid[row_base + static_cast<std::size_t>(x)].data.type != ntk::gate_type::none)
            {
                result.push_back({x, y, 0});
            }
            if (grid[plane + row_base + static_cast<std::size_t>(x)].data.type != ntk::gate_type::none)
            {
                result.push_back({x, y, 1});
            }
        }
    }
    return result;
}

const std::string& gate_level_layout::layout_name() const noexcept
{
    return design_name;
}

void gate_level_layout::set_layout_name(std::string layout_name)
{
    design_name = std::move(layout_name);
}

}  // namespace mnt::lyt
