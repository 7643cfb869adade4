#include "layout/net_surgery.hpp"

#include "common/types.hpp"

#include <algorithm>

namespace mnt::lyt
{

using ntk::gate_type;

net_surgeon::net_surgeon(gate_level_layout& layout_ref, const std::size_t route_expansions) : target{layout_ref}
{
    opts.allow_crossings = true;
    opts.max_expansions = route_expansions;
}

connection net_surgeon::trace_incoming(const coordinate& dst, const std::size_t slot) const
{
    connection conn;
    conn.dst = dst;
    conn.dst_slot = slot;
    auto cur = target.incoming_of(dst)[slot];
    while (target.type_of(cur) == gate_type::buf)
    {
        conn.chain.push_back(cur);
        cur = target.incoming_of(cur)[0];
    }
    conn.src = cur;
    std::reverse(conn.chain.begin(), conn.chain.end());
    return conn;
}

std::vector<connection> net_surgeon::all_connections() const
{
    std::vector<connection> result;
    for (const auto& c : target.tiles_sorted())
    {
        if (target.type_of(c) == gate_type::buf)
        {
            continue;
        }
        for (std::size_t slot = 0; slot < target.incoming_of(c).size(); ++slot)
        {
            result.push_back(trace_incoming(c, slot));
        }
    }
    return result;
}

std::vector<connection> net_surgeon::incident_connections(const coordinate& g) const
{
    std::vector<connection> result;
    for (std::size_t slot = 0; slot < target.incoming_of(g).size(); ++slot)
    {
        result.push_back(trace_incoming(g, slot));
    }
    const auto outs_view = target.outgoing_of(g);
    for (const auto& out : std::vector<coordinate>(outs_view.begin(), outs_view.end()))
    {
        connection conn;
        conn.src = g;
        auto cur = out;
        while (target.type_of(cur) == gate_type::buf)
        {
            conn.chain.push_back(cur);
            cur = target.outgoing_of(cur)[0];
        }
        conn.dst = cur;
        // the feeder identifies the slot, except that g may drive several
        // slots of one gate directly: the k-th such link takes the k-th slot
        // that g feeds
        const auto feeder = conn.chain.empty() ? g : conn.chain.back();
        auto skip = conn.chain.empty()
                        ? std::count_if(result.cbegin(), result.cend(), [&](const connection& prev)
                                        { return prev.src == g && prev.dst == conn.dst && prev.chain.empty(); })
                        : 0;
        const auto dst_in = target.incoming_of(conn.dst);
        std::size_t slot = 0;
        while (slot < dst_in.size() && !(dst_in[slot] == feeder && skip-- == 0))
        {
            ++slot;
        }
        conn.dst_slot = slot;
        result.push_back(conn);
    }
    return result;
}

void net_surgeon::rip(const connection& conn)
{
    const auto feeder = conn.chain.empty() ? conn.src : conn.chain.back();
    target.disconnect(feeder, conn.dst);
    for (auto it = conn.chain.rbegin(); it != conn.chain.rend(); ++it)
    {
        const auto tile = *it;
        target.clear_tile(tile);
        if (tile.z == 0 && target.has_tile(tile.elevated()))
        {
            target.move_tile(tile.elevated(), tile);
        }
    }
}

coordinate net_surgeon::restore(const connection& conn)
{
    auto prev = conn.src;
    coordinate feeder = conn.src;
    for (const auto& stored : conn.chain)
    {
        const auto placed = place_wire(stored.x, stored.y);
        target.connect(prev, placed);
        prev = placed;
        feeder = placed;
    }
    target.connect(prev, conn.dst);
    return feeder;
}

std::optional<coordinate> net_surgeon::route_shortest(const coordinate& src, const coordinate& dst)
{
    const auto path = find_path(target, src, dst, opts);
    if (!path.has_value())
    {
        return std::nullopt;
    }
    establish_path(target, src, dst, *path);
    return path->empty() ? src : path->back();
}

std::optional<std::size_t> net_surgeon::shortest_length(const coordinate& src, const coordinate& dst) const
{
    const auto path = find_path(target, src, dst, opts);
    if (!path.has_value())
    {
        return std::nullopt;
    }
    return path->size();
}

gate_level_layout& net_surgeon::layout() noexcept
{
    return target;
}

const gate_level_layout& net_surgeon::layout() const noexcept
{
    return target;
}

routing_options& net_surgeon::options() noexcept
{
    return opts;
}

coordinate net_surgeon::place_wire(const std::int32_t x, const std::int32_t y)
{
    const coordinate ground{x, y, 0};
    if (target.is_empty_tile(ground))
    {
        target.place(ground, gate_type::buf);
        return ground;
    }
    const auto elevated = ground.elevated();
    if (target.type_of(ground) == gate_type::buf && target.is_empty_tile(elevated))
    {
        target.place(elevated, gate_type::buf);
        return elevated;
    }
    throw mnt_error{"net_surgeon: cannot restore wire at " + ground.to_string()};
}

}  // namespace mnt::lyt
