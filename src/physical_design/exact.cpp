#include "physical_design/exact.hpp"

#include "common/taskrt/taskrt.hpp"
#include "common/types.hpp"
#include "layout/layout_utils.hpp"
#include "layout/routing.hpp"
#include "network/transforms.hpp"
#include "telemetry/telemetry.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <span>
#include <string>
#include <vector>

namespace mnt::pd
{

namespace
{

using lyt::coordinate;
using lyt::gate_level_layout;
using ntk::gate_type;
using ntk::logic_network;

/// Internal control-flow exception for the wall-clock budget.
struct timeout_signal
{};

/// The candidate wire paths of one connection, back to back in the thread's
/// scratch arena: path k is wires[ends[k - 1], ends[k]), with ends[-1] = 0.
/// One flat buffer per connection instead of one heap vector per path; the
/// search opens a scratch region around each connection, and the regions
/// nest LIFO with the recursion.
class path_list
{
public:
    path_list(trt::scratch_arena& arena, const std::size_t reserved_paths, const std::size_t max_length) :
            wires{arena, reserved_paths * max_length},
            ends{arena, reserved_paths}
    {}

    void add(const coordinate* const path, const std::size_t length)
    {
        for (std::size_t k = 0; k < length; ++k)
        {
            wires.push_back(path[k]);
        }
        ends.push_back(wires.size());
    }

    [[nodiscard]] std::size_t size() const noexcept
    {
        return ends.size();
    }

    [[nodiscard]] std::span<const coordinate> operator[](const std::size_t k) const noexcept
    {
        const auto first = k == 0 ? std::size_t{0} : ends[k - 1];
        return {wires.begin() + first, wires.begin() + ends[k]};
    }

private:
    trt::scratch_buffer<coordinate> wires;
    trt::scratch_buffer<std::size_t> ends;
};

class exact_solver
{
public:
    /// \p soft_deadline is the shared wall-clock budget of the whole
    /// aspect-ratio sweep — one point for all ratios, whether they are tried
    /// sequentially or raced in parallel.
    exact_solver(const logic_network& preprocessed, const exact_params& parameters,
                 const std::chrono::steady_clock::time_point soft_deadline) :
            net{preprocessed},
            params{parameters},
            deadline{soft_deadline},
            tile_of(preprocessed.size())
    {
        for (const auto v : net.topological_order())
        {
            const auto t = net.type(v);
            if (t != gate_type::const0 && t != gate_type::const1)
            {
                order.push_back(v);
            }
        }
        // per-node invariants of the search. Constants are propagated away
        // before the search, so every fanin of a placed node is in `order`.
        std::vector<std::size_t> position(net.size());
        for (std::size_t i = 0; i < order.size(); ++i)
        {
            position[order[i]] = i;
        }
        last_use.assign(order.size(), 0);
        exits_needed.reserve(order.size());
        for (std::size_t i = 0; i < order.size(); ++i)
        {
            const auto v = order[i];
            for (const auto fi : net.fanins(v))
            {
                last_use[position[fi]] = i;  // i ascends: the last write is the last consumer
            }
            // capacity prune: exits a tile must offer before the node fits
            const auto t = net.type(v);
            exits_needed.push_back(std::min<std::size_t>(
                net.fanout_size(v), t == gate_type::fanout ? 2 : (t == gate_type::po ? 0 : 1)));
        }
    }

    [[nodiscard]] std::size_t num_placeable() const noexcept
    {
        return order.size();
    }

    [[nodiscard]] std::size_t num_search_nodes() const noexcept
    {
        return search_nodes;
    }

    [[nodiscard]] std::size_t num_deadline_checks() const noexcept
    {
        return deadline_counter;
    }

    std::optional<gate_level_layout> solve(const std::uint32_t w, const std::uint32_t h)
    {
        MNT_FAULT_POINT("exact.search");
        params.deadline.throw_if_expired("exact/solve");
        gate_level_layout layout{net.network_name(), params.topology,
                                 lyt::clocking_scheme::create(params.scheme), w, h};
        if (recurse(layout, 0))
        {
            return layout;
        }
        return std::nullopt;
    }

private:
    void check_deadline()
    {
        if ((++deadline_counter & 0x3ffu) != 0)
        {
            return;
        }
        // the global run deadline outranks the per-run soft timeout: it
        // unwinds all the way out of exact() for the portfolio to classify
        params.deadline.throw_if_expired("exact/search");
        if (std::chrono::steady_clock::now() > deadline)
        {
            throw timeout_signal{};
        }
    }

    /// Enumerates up to max_paths_per_edge clocked paths from the gate on
    /// \p src into the gate on \p dst, lengths ascending (shortest +
    /// slack), each length in DFS neighbor order. The paths live in \p arena
    /// until the caller's scratch region closes.
    [[nodiscard]] path_list enumerate_paths(trt::scratch_arena& arena, const gate_level_layout& layout,
                                            const coordinate& src, const coordinate& dst) const
    {
        const auto topo = layout.topology();
        const auto max_paths = params.max_paths_per_edge;
        const auto min_len = lyt::grid_distance(src, dst, topo);
        const auto max_len = static_cast<std::size_t>(min_len) + params.path_slack;
        path_list paths{arena, std::min(max_paths, expected_paths), max_len};

        // iterative-deepening DFS over new wire tiles; the path under
        // construction never revisits a ground position and holds at most
        // max_len wires, so a scan of it beats hashing
        auto* const current = arena.allocate_array<coordinate>(max_len);
        std::size_t depth = 0;
        const auto on_path = [&](const coordinate& ground)
        {
            return std::any_of(current, current + depth,
                               [&ground](const coordinate& c) { return c.x == ground.x && c.y == ground.y; });
        };

        const auto step_target = [&](const coordinate& ground) -> std::optional<coordinate>
        {
            if (layout.is_empty_tile(ground))
            {
                return ground;
            }
            if (params.allow_crossings && layout.type_of(ground) == gate_type::buf &&
                layout.is_empty_tile(ground.elevated()))
            {
                return ground.elevated();
            }
            return std::nullopt;
        };

        // a subtree returns as soon as the list is full: no later step could
        // add a path
        const auto target = dst.ground();
        const auto dfs = [&](const auto& self, const coordinate& at, const std::size_t limit) -> void
        {
            for (const auto& n : layout.outgoing_clocked(at.ground()))
            {
                if (n == target)
                {
                    // found a connection of exactly `limit` wires
                    if (depth == limit)
                    {
                        paths.add(current, depth);
                        if (paths.size() >= max_paths)
                        {
                            return;
                        }
                    }
                    continue;
                }
                if (depth >= limit || on_path(n) ||
                    // admissible-distance prune
                    static_cast<std::size_t>(lyt::grid_distance(n, dst, topo)) + depth > limit)
                {
                    continue;
                }
                const auto placed = step_target(n);
                if (!placed.has_value())
                {
                    continue;
                }
                current[depth++] = *placed;
                self(self, *placed, limit);
                --depth;
                if (paths.size() >= max_paths)
                {
                    return;
                }
            }
        };

        // direct adjacency = zero wires; handled by limit 0 iteration. On a
        // Cartesian grid every step flips the parity of x + y, so k wires
        // (k + 1 steps) connect only if k + 1 and min_len have the same
        // parity: the lengths in between hold no path and are skipped.
        const std::size_t stride = topo == lyt::layout_topology::cartesian ? 2 : 1;
        for (std::size_t limit = (min_len == 0 ? 0 : min_len - 1); limit <= max_len && paths.size() < max_paths;
             limit += stride)
        {
            dfs(dfs, src, limit);
        }
        return paths;
    }

    void rip(gate_level_layout& layout, const coordinate& dst, const std::span<const coordinate> path)
    {
        // remove the final link and the wire tiles (LIFO discipline: no
        // later path can still cross these tiles)
        if (path.empty())
        {
            // direct link: disconnect the most recent incoming entry of dst
            // (a copy: disconnect edits the list the span views)
            const auto last_fanin = layout.incoming_of(dst).back();
            layout.disconnect(last_fanin, dst);
        }
        else
        {
            layout.disconnect(path.back(), dst);
            for (auto it = path.rbegin(); it != path.rend(); ++it)
            {
                layout.clear_tile(*it);
            }
        }
    }

    /// Forward check once node order[i] is placed and routed: true if a
    /// placed node that still drives a later node has no usable exit left.
    ///
    /// Sound, so only subtrees without a solution are cut: every path
    /// enumerate_paths can build from a tile starts on an outgoing-clocked
    /// neighbor that is an empty ground tile, a crossable ground wire, or
    /// the consumer's own tile, which the consumer took while it was still
    /// empty. lyt::usable_exits counts exactly the empty ground tiles and
    /// crossable ground wires. Below a search node tiles are only added,
    /// never removed, so a neighbor that is none of these now never becomes
    /// one: with zero usable exits the node's later connections cannot be
    /// routed.
    [[nodiscard]] bool strands_a_driver(const gate_level_layout& layout, const std::size_t i) const
    {
        for (std::size_t u = 0; u <= i; ++u)
        {
            if (last_use[u] > i && lyt::usable_exits(layout, tile_of[order[u]]) == 0)
            {
                return true;
            }
        }
        return false;
    }

    /// Routes fanin \p j of node order[\p i] (placed at \p t), then continues.
    bool route_fanins(gate_level_layout& layout, const std::size_t i, const coordinate& t, const std::size_t j)
    {
        const auto fis = net.fanins(order[i]);
        if (j == fis.size())
        {
            return !strands_a_driver(layout, i) && recurse(layout, i + 1);
        }
        const auto src = tile_of[fis[j]];
        auto& arena = trt::scratch();
        const trt::scratch_region region{arena};
        const auto paths = enumerate_paths(arena, layout, src, t);
        for (std::size_t k = 0; k < paths.size(); ++k)
        {
            const auto path = paths[k];
            lyt::establish_path(layout, src, t, path);
            if (route_fanins(layout, i, t, j + 1))
            {
                return true;
            }
            rip(layout, t, path);
        }
        return false;
    }

    bool recurse(gate_level_layout& layout, const std::size_t i)
    {
        ++search_nodes;
        check_deadline();
        if (i == order.size())
        {
            return true;
        }

        const auto v = order[i];
        const auto t = net.type(v);
        const auto fis = net.fanins(v);
        const auto topo = layout.topology();
        const auto& clocking = layout.clocking();
        const auto needed_exits = exits_needed[i];
        const auto& io_name = (net.is_pi(v) || net.is_po(v)) ? net.name_of(v) : no_io_name;

        // candidate tiles: empty ground tiles compatible with all placed
        // fanins, nearest-first. The list is rebuilt at every search node, so
        // it lives in the thread's scratch arena: recursion nests regions
        // LIFO and the steady state allocates nothing. The search usually
        // stops at one of the first candidates, so they are popped from a
        // min-heap instead of sorted up front; (key, tile) is a strict total
        // order, so the pop order is the sorted order.
        struct scored_tile
        {
            std::uint32_t key;
            coordinate tile;
        };
        auto& arena = trt::scratch();
        const trt::scratch_region region{arena};
        trt::scratch_buffer<scored_tile> candidates{arena};
        for (std::int32_t y = 0; y < static_cast<std::int32_t>(layout.height()); ++y)
        {
            for (std::int32_t x = 0; x < static_cast<std::int32_t>(layout.width()); ++x)
            {
                const coordinate c{x, y, 0};
                if (!layout.is_empty_tile(c))
                {
                    continue;
                }
                std::uint32_t dist = 0;
                bool ok = true;
                for (const auto fi : fis)
                {
                    const auto& src = tile_of[fi];
                    // cheap per-scheme reachability prune
                    if (!lyt::may_flow(params.scheme, topo, src, c))
                    {
                        ok = false;
                        break;
                    }
                    dist += lyt::grid_distance(src, c, topo);
                }
                if (!ok)
                {
                    continue;
                }
                // capacity prune: enough exit/entry room around the tile
                if (lyt::usable_exits(layout, c) < needed_exits)
                {
                    continue;
                }
                auto entries = lyt::usable_entries(layout, c);
                for (const auto fi : fis)
                {
                    const auto& src = tile_of[fi];
                    if (lyt::are_adjacent(src, c, topo) && clocking.is_incoming_clocked(c, src))
                    {
                        ++entries;
                    }
                }
                if (entries < fis.size())
                {
                    continue;
                }
                // bias toward the origin so minimal bounding boxes emerge
                candidates.push_back(scored_tile{dist * 4u + static_cast<std::uint32_t>(x + y), c});
            }
        }
        const auto later = [](const scored_tile& a, const scored_tile& b)
        { return a.key != b.key ? a.key > b.key : b.tile < a.tile; };
        auto* const first = candidates.begin();
        auto* last = candidates.end();
        std::make_heap(first, last, later);
        while (last != first)
        {
            std::pop_heap(first, last, later);
            const auto c = (--last)->tile;
            layout.place(c, t, io_name);
            tile_of[v] = c;
            if (route_fanins(layout, i, c, 0))
            {
                return true;
            }
            layout.clear_tile(c);
        }
        return false;
    }

    /// Paths per connection that path_list holds before its buffers grow;
    /// the default max_paths_per_edge fits.
    static constexpr std::size_t expected_paths = 8;
    inline static const std::string no_io_name{};

    const logic_network& net;
    const exact_params& params;
    std::chrono::steady_clock::time_point deadline;
    std::size_t search_nodes{0};
    std::uint32_t deadline_counter{0};
    std::vector<logic_network::node> order;
    /// Position in `order` of the last consumer of order[u] (0 if none).
    std::vector<std::size_t> last_use;
    /// Usable exits a tile needs to host order[i].
    std::vector<std::size_t> exits_needed;
    /// Tile of every placed node, indexed by node. Entries of nodes not yet
    /// placed are stale; the topological order only reads placed fanins.
    std::vector<coordinate> tile_of;
};

}  // namespace

std::uint8_t max_incoming_degree(const lyt::clocking_kind kind, const lyt::layout_topology topo)
{
    if (kind == lyt::clocking_kind::open)
    {
        return topo == lyt::layout_topology::cartesian ? 3 : 3;
    }
    const auto scheme = lyt::clocking_scheme::create(kind);
    std::uint8_t max_deg = 0;
    for (std::int32_t y = 0; y < 8; ++y)
    {
        for (std::int32_t x = 0; x < 8; ++x)
        {
            const coordinate c{x, y};
            std::uint8_t deg = 0;
            for (const auto& n : lyt::planar_neighbors(c, topo))
            {
                if (n.x >= 0 && n.y >= 0 && scheme.is_incoming_clocked(c, n))
                {
                    ++deg;
                }
            }
            max_deg = std::max(max_deg, deg);
        }
    }
    return max_deg;
}

std::optional<gate_level_layout> exact(const logic_network& network, const exact_params& params, exact_stats* stats)
{
    MNT_SPAN("exact");
    const tel::stopwatch watch;

    if (network.num_pos() == 0)
    {
        throw precondition_error{"exact: network has no primary outputs"};
    }
    if (params.scheme == lyt::clocking_kind::open)
    {
        throw precondition_error{"exact: the OPEN clocking scheme is not supported (choose a regular one)"};
    }
    if (params.topology == lyt::layout_topology::hexagonal_even_row && params.scheme != lyt::clocking_kind::row)
    {
        throw precondition_error{"exact: hexagonal layouts require ROW clocking"};
    }

    auto net = ntk::propagate_constants(network);
    if (max_incoming_degree(params.scheme, params.topology) < 3)
    {
        net = ntk::decompose_maj(net);
    }
    net = ntk::substitute_fanouts(net, 2);

    net.foreach_po(
        [&](const logic_network::node po)
        {
            if (net.is_constant(net.fanins(po)[0]))
            {
                throw precondition_error{"exact: constant primary outputs are not supported on FCN layouts"};
            }
        });

    const auto soft_deadline = std::chrono::steady_clock::now() +
                               std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                                   std::chrono::duration<double>(params.timeout_s));
    exact_solver solver{net, params, soft_deadline};

    exact_stats local{};
    local.placeable_nodes = solver.num_placeable();

    // aspect ratios by ascending area, then squarer-first
    std::vector<std::pair<std::uint32_t, std::uint32_t>> ratios;
    const auto lb = static_cast<std::uint64_t>(solver.num_placeable());
    for (std::uint32_t w = 1; w <= params.max_area; ++w)
    {
        for (std::uint32_t h = 1; h <= params.max_area; ++h)
        {
            const auto area = static_cast<std::uint64_t>(w) * h;
            if (area >= lb && area <= params.max_area)
            {
                ratios.emplace_back(w, h);
            }
        }
    }
    std::sort(ratios.begin(), ratios.end(),
              [](const auto& a, const auto& b)
              {
                  const auto area_a = static_cast<std::uint64_t>(a.first) * a.second;
                  const auto area_b = static_cast<std::uint64_t>(b.first) * b.second;
                  if (area_a != area_b)
                  {
                      return area_a < area_b;
                  }
                  const auto max_a = std::max(a.first, a.second);
                  const auto max_b = std::max(b.first, b.second);
                  return max_a != max_b ? max_a < max_b : a < b;
              });

    std::optional<gate_level_layout> result;
    if (trt::parallel() && ratios.size() > 1)
    {
        // Race the aspect ratios: the lowest-index ratio that yields a
        // solution wins — the same ratio the sequential sweep would have
        // returned, because the sweep tries ratios by ascending area and
        // stops at the first solvable one. Losing ratios are cancelled via
        // their tokens and unwind at their next deadline poll.
        struct ratio_outcome
        {
            std::optional<gate_level_layout> layout;
            bool soft_timeout{false};
        };

        std::atomic<std::size_t> search_nodes{0};
        std::atomic<std::size_t> deadline_checks{0};
        std::atomic<std::size_t> explored{0};

        auto winner = trt::first_winner<ratio_outcome>(
            ratios.size(),
            [&](const std::size_t i, const trt::cancel_token& token) -> std::optional<ratio_outcome>
            {
                exact_params task_params = params;
                task_params.deadline     = params.deadline.with_stop(token.handle());
                exact_solver task_solver{net, task_params, soft_deadline};
                const auto   accumulate = [&]
                {
                    search_nodes.fetch_add(task_solver.num_search_nodes(), std::memory_order_relaxed);
                    deadline_checks.fetch_add(task_solver.num_deadline_checks(), std::memory_order_relaxed);
                };
                try
                {
                    auto solution = task_solver.solve(ratios[i].first, ratios[i].second);
                    accumulate();
                    if (solution.has_value())
                    {
                        return ratio_outcome{std::move(solution), false};
                    }
                    explored.fetch_add(1, std::memory_order_relaxed);
                    return std::nullopt;
                }
                catch (const timeout_signal&)
                {
                    // the shared soft budget ran out: this "wins" the race as
                    // a timeout marker, exactly like the sequential sweep
                    // aborting at this ratio
                    accumulate();
                    return ratio_outcome{std::nullopt, true};
                }
                catch (const res::deadline_exceeded&)
                {
                    accumulate();
                    if (params.deadline.expired())
                    {
                        throw;  // the real global deadline — unwind out of exact()
                    }
                    return std::nullopt;  // lost the race (token cancellation)
                }
            });

        if (winner.has_value())
        {
            if (winner->layout.has_value())
            {
                result = std::move(winner->layout);
            }
            else
            {
                local.timed_out = true;
            }
        }
        local.search_nodes = search_nodes.load(std::memory_order_relaxed);
        local.deadline_checks = deadline_checks.load(std::memory_order_relaxed);
        local.explored_aspect_ratios = explored.load(std::memory_order_relaxed);
    }
    else
    {
        try
        {
            for (const auto& [w, h] : ratios)
            {
                auto solution = solver.solve(w, h);
                if (solution.has_value())
                {
                    result = std::move(solution);
                    break;
                }
                ++local.explored_aspect_ratios;
            }
        }
        catch (const timeout_signal&)
        {
            local.timed_out = true;
        }
        local.search_nodes = solver.num_search_nodes();
        local.deadline_checks = solver.num_deadline_checks();
    }

    local.runtime = watch.seconds();

    if (tel::enabled())
    {
        tel::count("exact.runs");
        tel::count("exact.search_nodes", local.search_nodes);
        tel::count("exact.deadline_checks", local.deadline_checks);
        tel::count("exact.explored_aspect_ratios", local.explored_aspect_ratios);
        if (local.timed_out)
        {
            tel::count("exact.timeouts");
        }
        tel::observe("exact.runtime_s", local.runtime);
    }

    if (stats != nullptr)
    {
        *stats = local;
    }
    return result;
}

}  // namespace mnt::pd
