#include "layout/routing.hpp"

#include "common/taskrt/arena.hpp"
#include "common/types.hpp"
#include "telemetry/telemetry.hpp"

#include <algorithm>
#include <cstdint>
#include <vector>

namespace mnt::lyt
{

namespace
{

/// True if \p c is usable as the first tile of some future wire (empty, or a
/// crossable ground wire).
bool usable_step(const gate_level_layout& layout, const coordinate& c)
{
    return layout.is_empty_tile(c) ||
           (layout.type_of(c) == ntk::gate_type::buf && layout.is_empty_tile(c.elevated()));
}

/// True if completely filling position \p pos (both layers occupied
/// afterwards) would take the last usable exit of an adjacent gate that
/// still needs outgoing connections. \p src and \p dst of the current path
/// are exempt.
bool steals_last_exit(const gate_level_layout& layout, const coordinate& pos, const coordinate& src,
                      const coordinate& dst)
{
    for (const auto& nb : planar_neighbors(pos.ground(), layout.topology()))
    {
        if (!layout.within_bounds(nb) || layout.is_empty_tile(nb))
        {
            continue;
        }
        if (nb == src.ground() || nb == dst.ground())
        {
            continue;
        }
        const auto t = layout.type_of(nb);
        if (t == ntk::gate_type::buf || t == ntk::gate_type::po || t == ntk::gate_type::none)
        {
            continue;
        }
        const auto capacity = t == ntk::gate_type::fanout ? std::size_t{2} : std::size_t{1};
        const auto used = layout.outgoing_of(nb).size();
        if (used >= capacity)
        {
            continue;
        }
        std::size_t free_exits = 0;
        for (const auto& exit : layout.outgoing_clocked(nb))
        {
            if (!(exit == pos.ground()) && usable_step(layout, exit))
            {
                ++free_exits;
            }
        }
        if (free_exits < capacity - used)
        {
            return true;
        }
    }
    return false;
}

/// Decides whether the search may step onto position \p n (a ground-layer
/// coordinate), and if so, at which layer the new wire would be placed.
std::optional<coordinate> admissible_step(const gate_level_layout& layout, const coordinate& n,
                                          const routing_options& options, const coordinate& src,
                                          const coordinate& dst)
{
    const auto ground = n.ground();
    if (layout.is_empty_tile(ground))
    {
        return ground;
    }
    if (options.allow_crossings && layout.type_of(ground) == ntk::gate_type::buf &&
        layout.is_empty_tile(ground.elevated()))
    {
        // the crossing layer fill makes the position fully occupied
        if (options.respect_needy_exits && steals_last_exit(layout, ground, src, dst))
        {
            return std::nullopt;
        }
        return ground.elevated();
    }
    return std::nullopt;
}

/// One flush per find_path call. The search loop itself only bumps a local
/// counter; the registry is touched once here, through references resolved a
/// single time per process (find_path is the hottest call site in the
/// annealer, so even the name lookup is hoisted out).
void flush_search_telemetry(const std::size_t expansions, const bool found)
{
    if (!tel::enabled())
    {
        return;
    }
    auto& reg = tel::registry::instance();
    static tel::counter& searches = reg.get_counter("route.searches");
    static tel::counter& expanded = reg.get_counter("route.expansions");
    static tel::counter& failed = reg.get_counter("route.failed");
    searches.add();
    expanded.add(expansions);
    if (!found)
    {
        failed.add();
    }
}

}  // namespace

std::optional<std::vector<coordinate>> find_path(const gate_level_layout& layout, const coordinate& src,
                                                 const coordinate& dst, const routing_options& options)
{
    if (src.ground() == dst.ground())
    {
        throw precondition_error{"find_path: source and target coincide"};
    }
    if (layout.is_empty_tile(src) || layout.is_empty_tile(dst))
    {
        throw precondition_error{"find_path: source and target must host gates"};
    }
    MNT_FAULT_POINT("route.search");
    res::deadline_guard deadline{options.deadline, 256};

    // visited/parent bookkeeping is on ground positions: at most one new wire
    // per (x, y) position may join this path (stacking a path above itself is
    // never useful for shortest paths). All three tables are dense arrays in
    // the thread's scratch arena, indexed like the layout grid, so a search
    // allocates nothing once the arena has seen a grid this large. Only the
    // visited bytes are cleared: the search reads back parent entries it
    // wrote itself, and every ground position enters the FIFO at most once.
    const auto w = static_cast<std::size_t>(layout.width());
    const auto h = static_cast<std::size_t>(layout.height());
    const auto ground_index = [w](const coordinate& c)
    { return static_cast<std::size_t>(c.y) * w + static_cast<std::size_t>(c.x); };
    const auto placed_index = [w, h](const coordinate& c)
    { return (static_cast<std::size_t>(c.z) * h + static_cast<std::size_t>(c.y)) * w + static_cast<std::size_t>(c.x); };

    auto& arena = trt::scratch();
    const trt::scratch_region region{arena};
    auto* const visited = arena.allocate_array<std::uint8_t>(w * h);  // ground position seen?
    auto* const parent = arena.allocate_array<coordinate>(2 * w * h);   // placed coord -> predecessor
    auto* const queue = arena.allocate_array<coordinate>(w * h);        // placed coords (or src)
    std::fill_n(visited, w * h, std::uint8_t{0});

    std::size_t head = 0;
    std::size_t tail = 0;
    queue[tail++] = src;
    visited[ground_index(src)] = 1;

    std::size_t expansions = 0;
    const auto target_ground = dst.ground();

    while (head != tail)
    {
        const auto current = queue[head++];

        // count every position taken off the queue, capped or not
        ++expansions;
        if (options.max_expansions != 0 && expansions > options.max_expansions)
        {
            flush_search_telemetry(expansions, false);
            return std::nullopt;
        }
        deadline.poll_or_throw("routing/find_path");

        for (const auto& n : layout.outgoing_clocked(current.ground()))
        {
            if (n == target_ground)
            {
                // reconstruct: walk parents from current back to src
                std::vector<coordinate> path;
                auto walk = current;
                while (!(walk.ground() == src.ground()))
                {
                    path.push_back(walk);
                    walk = parent[placed_index(walk)];
                }
                std::reverse(path.begin(), path.end());
                flush_search_telemetry(expansions, true);
                return path;
            }
            if (visited[ground_index(n)] != 0)
            {
                continue;
            }
            const auto step = admissible_step(layout, n, options, src, dst);
            if (!step.has_value())
            {
                continue;
            }
            visited[ground_index(n)] = 1;
            parent[placed_index(*step)] = current;
            queue[tail++] = *step;
        }
    }
    flush_search_telemetry(expansions, false);
    return std::nullopt;
}

void establish_path(gate_level_layout& layout, const coordinate& src, const coordinate& dst,
                    const std::span<const coordinate> path)
{
    for (const auto& p : path)
    {
        layout.place(p, ntk::gate_type::buf);
    }
    auto prev = src;
    for (const auto& p : path)
    {
        layout.connect(prev, p);
        prev = p;
    }
    layout.connect(prev, dst);
}

bool route(gate_level_layout& layout, const coordinate& src, const coordinate& dst, const routing_options& options)
{
    const auto path = find_path(layout, src, dst, options);
    if (!path.has_value())
    {
        return false;
    }
    establish_path(layout, src, dst, *path);
    return true;
}

void rip_up_path(gate_level_layout& layout, const coordinate& src, const coordinate& dst)
{
    // remove the last-hop connection into dst, then peel wire tiles backwards
    gate_level_layout::fanin_list fanins;
    for (const auto& in : layout.incoming_of(dst))
    {
        fanins.push_back(in);
    }
    // find the chain end: the incoming tile of dst that (transitively) leads
    // back to src over single-user wires
    for (const auto& candidate : fanins)
    {
        // walk backwards collecting wire tiles
        std::vector<coordinate> chain;
        auto walk = candidate;
        bool reaches_src = false;
        while (true)
        {
            if (walk.ground() == src.ground())
            {
                reaches_src = true;
                break;
            }
            if (layout.type_of(walk) != ntk::gate_type::buf || layout.outgoing_of(walk).size() != 1)
            {
                break;
            }
            chain.push_back(walk);
            const auto walk_in = layout.incoming_of(walk);
            if (walk_in.size() != 1)
            {
                break;
            }
            walk = walk_in[0];
        }
        if (reaches_src)
        {
            layout.disconnect(candidate, dst);
            for (const auto& c : chain)
            {
                layout.clear_tile(c);
            }
            return;
        }
    }
}

}  // namespace mnt::lyt
