#include "physical_design/nanoplacer.hpp"

#include "common/taskrt/taskrt.hpp"
#include "common/types.hpp"
#include "layout/layout_utils.hpp"
#include "layout/net_surgery.hpp"
#include "physical_design/exact.hpp"  // max_incoming_degree
#include "physical_design/ortho.hpp"
#include "network/transforms.hpp"
#include "telemetry/telemetry.hpp"

#include <algorithm>
#include <cmath>
#include <random>
#include <utility>
#include <vector>

namespace mnt::pd
{

namespace
{

using lyt::coordinate;
using lyt::gate_level_layout;
using ntk::gate_type;
using ntk::logic_network;

double cost_of(const gate_level_layout& layout, const double lambda)
{
    // origin-anchored area: regular clocking schemes permit only 4-periodic
    // translations, so the north-west margin is usually not recoverable and
    // must be part of the optimization objective
    const auto [min_c, max_c] = layout.bounding_box();
    static_cast<void>(min_c);
    const auto w = static_cast<double>(max_c.x + 1);
    const auto h = static_cast<double>(max_c.y + 1);
    return w * h + lambda * static_cast<double>(layout.num_wires());
}

/// Locates the connection whose chain runs through the wire tile \p wire.
std::optional<lyt::connection> connection_through(const lyt::net_surgeon& surgeon,
                                                  const gate_level_layout& layout, const coordinate& wire)
{
    // walk forward to the terminating gate
    auto cur = wire;
    while (layout.type_of(cur) == gate_type::buf)
    {
        const auto& outs = layout.outgoing_of(cur);
        if (outs.empty())
        {
            return std::nullopt;  // dangling wire (mid-surgery state)
        }
        cur = outs[0];
    }
    // identify the slot whose chain contains the wire
    for (std::size_t slot = 0; slot < layout.incoming_of(cur).size(); ++slot)
    {
        auto conn = surgeon.trace_incoming(cur, slot);
        if (std::find(conn.chain.cbegin(), conn.chain.cend(), wire) != conn.chain.cend())
        {
            return conn;
        }
    }
    return std::nullopt;
}

/// Routes src -> dst; if that fails because src is walled in by wires of
/// other nets, evicts one blocking connection, routes, and re-routes the
/// victim (classic rip-up-and-reroute). Fully rolled back on failure.
bool route_with_unblock(lyt::net_surgeon& surgeon, const coordinate& src, const coordinate& dst)
{
    auto& layout = surgeon.layout();
    if (surgeon.route_shortest(src, dst).has_value())
    {
        return true;
    }

    for (const auto& exit : layout.outgoing_clocked(src))
    {
        // candidate victims blocking this exit: the crossing wire first
        // (ripping it keeps the ground wire crossable), then the ground wire
        std::vector<coordinate> victims;
        if (layout.type_of(exit.elevated()) == gate_type::buf)
        {
            victims.push_back(exit.elevated());
        }
        if (layout.type_of(exit) == gate_type::buf)
        {
            victims.push_back(exit);
        }

        for (const auto& victim : victims)
        {
            const auto conn = connection_through(surgeon, layout, victim);
            if (!conn.has_value())
            {
                continue;
            }
            surgeon.rip(*conn);

            if (surgeon.route_shortest(src, dst).has_value())
            {
                const auto feeder = surgeon.route_shortest(conn->src, conn->dst);
                if (feeder.has_value())
                {
                    lyt::detail::rebuild_slot_order(layout, conn->dst, {conn->dst_slot}, {*feeder});
                    return true;
                }
                // cannot re-route the victim: undo our edge (it was appended
                // to dst's fanins last), then restore the victim
                surgeon.rip(surgeon.trace_incoming(dst, layout.incoming_of(dst).size() - 1));
            }

            const auto restored = surgeon.restore(*conn);
            lyt::detail::rebuild_slot_order(layout, conn->dst, {conn->dst_slot}, {restored});
        }
    }
    return false;
}

/// Greedy constructive placement in topological order. Returns false when a
/// node could not be placed/routed on the given grid.
bool constructive_placement(gate_level_layout& layout, const logic_network& net,
                            const nanoplacer_params& params, std::mt19937_64& rng)
{
    lyt::net_surgeon surgeon{layout, params.max_route_expansions};
    surgeon.options().respect_needy_exits = true;
    surgeon.options().deadline = params.deadline;

    // tile of every placed node, indexed by node (fanins are placed first)
    std::vector<coordinate> tile_of(net.size());
    std::vector<std::pair<double, coordinate>> candidates;

    for (const auto v : net.topological_order())
    {
        params.deadline.throw_if_expired("nanoplacer/constructive_placement");
        const auto t = net.type(v);
        if (t == gate_type::const0 || t == gate_type::const1)
        {
            continue;
        }
        const auto fis = net.fanins(v);

        // a tile is a usable step for future routes if it is empty or a
        // crossable ground wire
        const auto usable = [&](const coordinate& c)
        {
            return layout.is_empty_tile(c) ||
                   (layout.type_of(c) == gate_type::buf && layout.is_empty_tile(c.elevated()));
        };

        // placing on c must not consume the last free exit of a neighboring
        // gate that still needs outgoing connections (wall-in guard)
        const auto walls_in_neighbor = [&](const coordinate& c)
        {
            for (const auto& nb : lyt::planar_neighbors(c, layout.topology()))
            {
                if (!layout.within_bounds(nb) || layout.is_empty_tile(nb))
                {
                    continue;
                }
                const auto nb_type = layout.type_of(nb);
                if (nb_type == gate_type::buf || nb_type == gate_type::po)
                {
                    continue;  // wires are fully routed; POs need no exits
                }
                // v may consume nb directly, in which case c is its exit
                if (std::any_of(fis.begin(), fis.end(),
                                [&](const logic_network::node fi) { return tile_of[fi] == nb; }))
                {
                    continue;
                }
                const auto capacity = nb_type == gate_type::fanout ? std::size_t{2} : std::size_t{1};
                const auto used = layout.outgoing_of(nb).size();
                if (used >= capacity)
                {
                    continue;
                }
                std::size_t free_exits = 0;
                for (const auto& exit : layout.outgoing_clocked(nb))
                {
                    if (!(exit == c) && usable(exit))
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
        };

        // capacity prefilter: the node must be able to drive its successors
        // and receive all its fanins from tile c
        const auto exits_needed = [&]() -> std::size_t
        {
            if (t == gate_type::po)
            {
                return 0;
            }
            return t == gate_type::fanout ? 2 : 1;
        }();
        const auto capacity_ok = [&](const coordinate& c)
        {
            if (lyt::usable_exits(layout, c) < exits_needed)
            {
                return false;
            }
            auto entries = lyt::usable_entries(layout, c);
            for (const auto fi : fis)
            {
                const auto& src = tile_of[fi];
                if (lyt::are_adjacent(src, c, layout.topology()) &&
                    layout.clocking().is_incoming_clocked(c, src))
                {
                    ++entries;  // direct feed through the fanin's own tile
                }
            }
            return entries >= fis.size();
        };

        // candidate tiles, nearest to the fanins first (origin-biased),
        // with a random tie-break for stochastic diversity
        candidates.clear();
        for (std::int32_t y = 0; y < static_cast<std::int32_t>(layout.height()); ++y)
        {
            for (std::int32_t x = 0; x < static_cast<std::int32_t>(layout.width()); ++x)
            {
                const coordinate c{x, y, 0};
                if (!layout.is_empty_tile(c))
                {
                    continue;
                }
                // per-scheme reachability from every fanin
                const auto reachable = std::all_of(fis.begin(), fis.end(),
                                                   [&](const logic_network::node fi) {
                                                       return lyt::may_flow(params.scheme, params.topology,
                                                                            tile_of[fi], c);
                                                   });
                if (!reachable || !capacity_ok(c) || walls_in_neighbor(c))
                {
                    continue;
                }
                double score = 0.05 * static_cast<double>(x + y);
                for (const auto fi : fis)
                {
                    score += static_cast<double>(lyt::grid_distance(tile_of[fi], c, layout.topology()));
                }
                score += std::uniform_real_distribution<double>{0.0, 0.5}(rng);
                candidates.emplace_back(score, c);
            }
        }
        // at most max_tries candidates are tried, so they are popped from a
        // min-heap instead of sorted in full; (score, tile) is a strict
        // total order, so the pop order is the sorted order
        const auto later = [](const auto& a, const auto& b)
        { return a.first != b.first ? a.first > b.first : b.second < a.second; };
        std::make_heap(candidates.begin(), candidates.end(), later);

        constexpr std::size_t max_tries = 160;
        bool placed = false;
        std::size_t tries = 0;
        for (auto last = candidates.end(); last != candidates.begin();)
        {
            std::pop_heap(candidates.begin(), last, later);
            const auto c = (--last)->second;
            // the candidate list is a snapshot: a rip-up-and-reroute for an
            // earlier fanin (or an earlier failed attempt) may have moved
            // another net across this tile since it was collected
            if (!layout.is_empty_tile(c))
            {
                continue;
            }
            if (++tries > max_tries)
            {
                break;
            }
            layout.place(c, t, (net.is_pi(v) || net.is_po(v)) ? net.name_of(v) : std::string{});

            bool routed_all = true;
            for (const auto fi : fis)
            {
                if (!route_with_unblock(surgeon, tile_of[fi], c))
                {
                    routed_all = false;
                    break;
                }
            }
            if (routed_all)
            {
                tile_of[v] = c;
                placed = true;
                break;
            }
            // rip what was routed, free the tile
            for (std::size_t s = layout.incoming_of(c).size(); s > 0; --s)
            {
                surgeon.rip(surgeon.trace_incoming(c, s - 1));
            }
            layout.clear_tile(c);
        }
        if (!placed)
        {
            return false;
        }
    }
    return true;
}

/// The final quality metric (area, then wires): the best snapshot is
/// tracked by this key so more iterations can never end worse than fewer
/// for the same seed.
using layout_key = std::pair<std::uint64_t, std::size_t>;

[[nodiscard]] layout_key final_key(const gate_level_layout& l)
{
    const auto [min_c, max_c] = l.bounding_box();
    static_cast<void>(min_c);
    return {static_cast<std::uint64_t>(max_c.x + 1) * static_cast<std::uint64_t>(max_c.y + 1), l.num_wires()};
}

/// Non-wire tiles of \p layout — the relocatable gates of the annealer.
[[nodiscard]] std::vector<coordinate> gate_tiles(const gate_level_layout& layout)
{
    auto gates = layout.tiles_sorted();
    gates.erase(std::remove_if(gates.begin(), gates.end(),
                               [&](const coordinate& c) { return layout.type_of(c) == gate_type::buf; }),
                gates.end());
    return gates;
}

/// Everything one annealing chain owns. Chains never share mutable state:
/// each has its own layout copy, RNG stream and best snapshot, so segments
/// of different chains run concurrently without synchronization.
struct chain_state
{
    gate_level_layout layout;
    std::vector<coordinate> gates;
    std::mt19937_64 rng;
    double current_cost{0.0};
    double temperature{0.0};
    gate_level_layout best;
    layout_key best_key{};
};

/// Runs \p iterations annealing moves on \p st — the classic loop body,
/// verbatim: with a single chain and a single segment this consumes the RNG
/// stream in exactly the historic order, keeping single-chain output
/// byte-identical to previous releases.
void anneal_segment(chain_state& st, const nanoplacer_params& params, const double cooling,
                    const std::size_t iterations, nanoplacer_stats& segment_stats)
{
    lyt::net_surgeon surgeon{st.layout, params.max_route_expansions};
    surgeon.options().respect_needy_exits = true;
    surgeon.options().deadline = params.deadline;
    res::deadline_guard anneal_deadline{params.deadline, 64};

    std::uniform_real_distribution<double> uniform{0.0, 1.0};

    for (std::size_t it = 0; it < iterations; ++it, st.temperature *= cooling)
    {
        if (anneal_deadline.poll())
        {
            throw res::deadline_exceeded{"nanoplacer/annealing"};
        }
        ++segment_stats.attempted_moves;

        // pick a random gate; track its position across accepted moves
        auto& g = st.gates[std::uniform_int_distribution<std::size_t>{0, st.gates.size() - 1}(st.rng)];

        // random empty target, biased toward the origin
        const auto w = static_cast<std::int32_t>(st.layout.width());
        const auto h = static_cast<std::int32_t>(st.layout.height());
        coordinate target{};
        bool found = false;
        for (int probe = 0; probe < 12 && !found; ++probe)
        {
            const auto rx = std::min(std::uniform_int_distribution<std::int32_t>{0, w - 1}(st.rng),
                                     std::uniform_int_distribution<std::int32_t>{0, w - 1}(st.rng));
            const auto ry = std::min(std::uniform_int_distribution<std::int32_t>{0, h - 1}(st.rng),
                                     std::uniform_int_distribution<std::int32_t>{0, h - 1}(st.rng));
            const coordinate c{rx, ry, 0};
            if (st.layout.is_empty_tile(c) && st.layout.is_empty_tile(c.elevated()))
            {
                target = c;
                found = true;
            }
        }
        if (!found)
        {
            continue;
        }

        double new_cost = 0.0;
        const auto committed = lyt::try_relocate(surgeon, g, target,
                                                 [&]()
                                                 {
                                                     new_cost = cost_of(st.layout, params.lambda);
                                                     const auto delta = new_cost - st.current_cost;
                                                     return delta <= 0.0 ||
                                                            uniform(st.rng) < std::exp(-delta / st.temperature);
                                                 });
        if (committed)
        {
            st.current_cost = new_cost;
            g = target;
            ++segment_stats.accepted_moves;
            if (const auto key = final_key(st.layout); key < st.best_key)
            {
                st.best_key = key;
                st.best = st.layout;
            }
        }
    }
}

/// One-shot telemetry flush at the end of a nanoplacer run (counters are
/// accumulated locally so the annealing loop itself stays telemetry-free).
void flush_telemetry(const nanoplacer_stats& stats, const bool succeeded)
{
    if (!tel::enabled())
    {
        return;
    }
    tel::count("nanoplacer.runs");
    tel::count("nanoplacer.attempted_moves", stats.attempted_moves);
    tel::count("nanoplacer.accepted_moves", stats.accepted_moves);
    tel::count("nanoplacer.rejected_moves", stats.attempted_moves - stats.accepted_moves);
    tel::count("nanoplacer.restarts", stats.restarts);
    if (!succeeded)
    {
        tel::count("nanoplacer.failures");
    }
    tel::observe("nanoplacer.runtime_s", stats.runtime);
}

}  // namespace

std::uint64_t nanoplacer_chain_seed(const std::uint64_t base_seed, const std::size_t chain) noexcept
{
    // splitmix64 finalizer over (seed, chain) — the same derivation style as
    // pbt::rng, so chain streams are decorrelated even for adjacent seeds
    auto z = base_seed + 0x9e3779b97f4a7c15ULL * (static_cast<std::uint64_t>(chain) + 1);
    z = (z ^ (z >> 30U)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27U)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31U);
}

std::optional<gate_level_layout> nanoplacer(const logic_network& network, const nanoplacer_params& params,
                                            nanoplacer_stats* stats)
{
    MNT_SPAN("nanoplacer");
    const tel::stopwatch watch;

    if (network.num_pos() == 0)
    {
        throw precondition_error{"nanoplacer: network has no primary outputs"};
    }
    if (params.scheme == lyt::clocking_kind::open)
    {
        throw precondition_error{"nanoplacer: the OPEN clocking scheme is not supported"};
    }

    auto net = ntk::propagate_constants(network);
    if (max_incoming_degree(params.scheme, params.topology) < 3)
    {
        net = ntk::decompose_maj(net);
    }
    net = ntk::substitute_fanouts(net, 2);

    bool constant_po = false;
    net.foreach_po(
        [&](const logic_network::node po)
        {
            if (net.is_constant(net.fanins(po)[0]))
            {
                constant_po = true;
            }
        });
    if (constant_po)
    {
        throw precondition_error{"nanoplacer: constant primary outputs are not supported on FCN layouts"};
    }

    std::size_t placeable = 0;
    net.foreach_node(
        [&](const logic_network::node v)
        {
            if (!net.is_constant(v))
            {
                ++placeable;
            }
        });

    nanoplacer_stats local{};
    std::mt19937_64 rng{params.seed};

    std::optional<gate_level_layout> layout;
    if (params.scheme == lyt::clocking_kind::twoddwave && params.topology == lyt::layout_topology::cartesian)
    {
        // hybrid flow (as in the original "hybrid design automation" paper):
        // a deterministic ortho layout seeds the annealer, which then only
        // ever sees feasible states — scales to any network size
        auto seeded = ortho(network);
        const auto w = seeded.width() + seeded.width() / 4 + 2;
        const auto h = seeded.height() + seeded.height() / 4 + 2;
        seeded.resize(w, h);  // slack for the annealing moves
        layout = std::move(seeded);
    }
    else
    {
        // snaking schemes: greedy constructive placement with
        // rip-up-and-reroute, retried on growing grids
        auto side = static_cast<std::uint32_t>(
            std::ceil(std::sqrt(static_cast<double>(placeable)) * params.grid_factor) + 2);
        for (std::size_t attempt = 0; attempt <= params.max_restarts; ++attempt)
        {
            gate_level_layout trial{network.network_name(), params.topology,
                                    lyt::clocking_scheme::create(params.scheme), side, side};
            if (constructive_placement(trial, net, params, rng))
            {
                layout = std::move(trial);
                break;
            }
            ++local.restarts;
            side = static_cast<std::uint32_t>(side * 3 / 2 + 1);
        }
    }

    if (!layout.has_value())
    {
        local.runtime = watch.seconds();
        flush_telemetry(local, /*succeeded=*/false);
        if (stats != nullptr)
        {
            *stats = local;
        }
        return std::nullopt;
    }

    // simulated annealing over gate relocations
    const double cooling =
        params.iterations > 1 ? std::pow(params.t_end / params.t_start, 1.0 / static_cast<double>(params.iterations))
                              : 1.0;
    const auto chain_count = std::max<std::size_t>(params.chains, 1);

    if (chain_count == 1)
    {
        // classic single-chain annealer: one segment covering the whole
        // schedule, continuing the RNG stream the constructive placement
        // consumed from — byte-identical to all previous releases
        chain_state st{std::move(*layout), {}, std::move(rng), 0.0, params.t_start, {}, {}};
        st.gates = gate_tiles(st.layout);
        st.current_cost = cost_of(st.layout, params.lambda);
        st.best = st.layout;  // snapshot of the best solution seen (SA may end uphill)
        st.best_key = final_key(st.best);
        anneal_segment(st, params, cooling, params.iterations, local);
        *layout = std::move(st.best);
    }
    else
    {
        // multi-chain parallel annealing with periodic best-exchange: chains
        // anneal independent copies, synchronizing at fixed iteration
        // boundaries where the currently-worst chain restarts from the
        // globally best snapshot. All exchange decisions are deterministic
        // (keys, then chain index), so the result depends only on
        // (seed, chains, iterations) — not on the thread count.
        std::vector<chain_state> states;
        states.reserve(chain_count);
        for (std::size_t c = 0; c < chain_count; ++c)
        {
            chain_state st{*layout,
                           gate_tiles(*layout),
                           std::mt19937_64{nanoplacer_chain_seed(params.seed, c)},
                           cost_of(*layout, params.lambda),
                           params.t_start,
                           *layout,
                           final_key(*layout)};
            states.push_back(std::move(st));
        }

        const auto period = params.exchange_period > 0 ? params.exchange_period : params.iterations;
        std::size_t remaining = params.iterations;
        while (remaining > 0)
        {
            const auto segment = std::min(period, remaining);
            std::vector<nanoplacer_stats> segment_stats(chain_count);
            trt::parallel_for(0, chain_count, 1,
                              [&](const std::size_t chunk_begin, const std::size_t chunk_end)
                              {
                                  for (std::size_t c = chunk_begin; c < chunk_end; ++c)
                                  {
                                      anneal_segment(states[c], params, cooling, segment, segment_stats[c]);
                                  }
                              });
            for (const auto& s : segment_stats)
            {
                local.attempted_moves += s.attempted_moves;
                local.accepted_moves += s.accepted_moves;
            }
            remaining -= segment;

            if (remaining > 0)
            {
                // deterministic exchange: lowest-index best chain donates its
                // snapshot to the (first) worst current chain
                std::size_t best_chain = 0;
                std::size_t worst_chain = 0;
                for (std::size_t c = 1; c < chain_count; ++c)
                {
                    if (states[c].best_key < states[best_chain].best_key)
                    {
                        best_chain = c;
                    }
                    if (final_key(states[c].layout) > final_key(states[worst_chain].layout))
                    {
                        worst_chain = c;
                    }
                }
                if (worst_chain != best_chain)
                {
                    states[worst_chain].layout = states[best_chain].best;
                    states[worst_chain].gates = gate_tiles(states[worst_chain].layout);
                    states[worst_chain].current_cost = cost_of(states[worst_chain].layout, params.lambda);
                }
            }
        }

        std::size_t winner = 0;
        for (std::size_t c = 1; c < chain_count; ++c)
        {
            if (states[c].best_key < states[winner].best_key)
            {
                winner = c;
            }
        }
        *layout = std::move(states[winner].best);
    }

    layout->shrink_to_fit();

    local.runtime = watch.seconds();
    flush_telemetry(local, /*succeeded=*/true);
    if (stats != nullptr)
    {
        *stats = local;
    }
    return layout;
}

}  // namespace mnt::pd
