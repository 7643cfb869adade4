/// \file micro_layout.cpp
/// \brief Storage microbenchmarks (μ6): construct/traverse/route/verify
///        workloads that exercise `gate_level_layout`'s tile storage — the
///        single hottest data structure of the reproduction — at realistic
///        Table I sizes, plus an end-to-end portfolio stage per benchmark
///        set. Run with `--benchmark_out=micro_layout.json
///        --benchmark_out_format=json` to produce the artifact tracked in
///        BENCH_pr4.json and by the CI perf-smoke job.

#include "benchmarks/suites.hpp"
#include "benchmarks/synthetic.hpp"
#include "layout/gate_level_layout.hpp"
#include "layout/routing.hpp"
#include "physical_design/ortho.hpp"
#include "physical_design/portfolio.hpp"
#include "verification/drc.hpp"
#include "verification/wave_simulation.hpp"

#include <benchmark/benchmark.h>

#include <cstdint>
#include <vector>

namespace
{

using namespace mnt;
using lyt::coordinate;
using lyt::gate_level_layout;

bm::synthetic_spec spec_of(const std::size_t gates)
{
    bm::synthetic_spec spec{};
    spec.name = "bench";
    spec.num_pis = 8;
    spec.num_pos = 4;
    spec.num_gates = gates;
    spec.window = 32;
    return spec;
}

/// Fills a side x side 2DDWave grid with a serpentine wire snake:
/// PI -> buf -> ... -> PO, alternating east/west rows joined by south steps.
/// Every tile is placed and connected — the densest construction workload a
/// layout of that area can see.
gate_level_layout serpentine(const std::int32_t side)
{
    gate_level_layout layout{"serp", lyt::layout_topology::cartesian, lyt::clocking_scheme::use(),
                             static_cast<std::uint32_t>(side), static_cast<std::uint32_t>(side)};
    coordinate prev{0, 0};
    layout.place(prev, ntk::gate_type::pi, "a");
    for (std::int32_t y = 0; y < side; ++y)
    {
        const bool eastward = (y % 2) == 0;
        for (std::int32_t step = (y == 0 ? 1 : 0); step < side; ++step)
        {
            const auto x = eastward ? step : side - 1 - step;
            const coordinate c{x, y};
            const bool last = (y == side - 1) && (step == side - 1);
            layout.place(c, last ? ntk::gate_type::po : ntk::gate_type::buf, last ? "y" : "");
            layout.connect(prev, c);
            prev = c;
        }
    }
    return layout;
}

// --------------------------------------------------------------- construct

void layout_construct(benchmark::State& state)
{
    const auto side = static_cast<std::int32_t>(state.range(0));
    for (auto _ : state)
    {
        auto layout = serpentine(side);
        benchmark::DoNotOptimize(layout.num_occupied());
    }
    state.SetItemsProcessed(state.iterations() * state.range(0) * state.range(0));
}
BENCHMARK(layout_construct)->Arg(16)->Arg(48)->Arg(96)->Unit(benchmark::kMicrosecond);

// ---------------------------------------------------------------- traverse

/// The DRC/writer access pattern: full foreach_tile sweep touching incoming
/// lists, outgoing degrees and clock zones, plus a deterministic
/// tiles_sorted pass.
void layout_traverse(benchmark::State& state)
{
    const auto layout = serpentine(static_cast<std::int32_t>(state.range(0)));
    for (auto _ : state)
    {
        std::uint64_t acc = 0;
        layout.foreach_tile(
            [&](const coordinate& c, const gate_level_layout::tile_data& d)
            {
                acc += static_cast<std::uint64_t>(d.incoming.size());
                acc += layout.outgoing_of(c).size();
                acc += layout.clock_number(c);
            });
        for (const auto& c : layout.tiles_sorted())
        {
            acc += static_cast<std::uint64_t>(c.x) + static_cast<std::uint64_t>(c.y);
        }
        benchmark::DoNotOptimize(acc);
    }
    state.SetItemsProcessed(state.iterations() * state.range(0) * state.range(0));
}
BENCHMARK(layout_traverse)->Arg(16)->Arg(48)->Arg(96)->Unit(benchmark::kMicrosecond);

/// Random-access probe pattern of the router/annealer: type_of /
/// is_empty_tile / outgoing_of over the whole grid including empty tiles.
void layout_probe(benchmark::State& state)
{
    const auto side = static_cast<std::int32_t>(state.range(0));
    auto layout = serpentine(side);
    // punch some holes so both occupied and empty probes occur
    for (std::int32_t y = 1; y < side; y += 3)
    {
        for (std::int32_t x = 1; x < side; x += 3)
        {
            layout.clear_tile({x, y});
        }
    }
    for (auto _ : state)
    {
        std::uint64_t acc = 0;
        for (std::int32_t y = 0; y < side; ++y)
        {
            for (std::int32_t x = 0; x < side; ++x)
            {
                const coordinate c{x, y};
                acc += static_cast<std::uint64_t>(layout.type_of(c));
                acc += layout.is_empty_tile(c.elevated()) ? 1u : 0u;
                acc += layout.outgoing_of(c).size();
            }
        }
        benchmark::DoNotOptimize(acc);
    }
    state.SetItemsProcessed(state.iterations() * side * side);
}
BENCHMARK(layout_probe)->Arg(16)->Arg(48)->Arg(96)->Unit(benchmark::kMicrosecond);

// ------------------------------------------------------------------- route

/// Route/rip cycles on an empty side x side grid: the annealing placer's
/// inner loop (find_path + establish_path + rip_up_path) from the north-west
/// corner to \p dst.
void route_rip_cycles(benchmark::State& state, const lyt::layout_topology topo, const lyt::clocking_scheme& scheme,
                      const coordinate& dst)
{
    const auto side = static_cast<std::uint32_t>(state.range(0));
    for (auto _ : state)
    {
        gate_level_layout layout{"r", topo, scheme, side, side};
        layout.place({0, 0}, ntk::gate_type::pi, "a");
        layout.place(dst, ntk::gate_type::po, "y");
        for (int repeat = 0; repeat < 8; ++repeat)
        {
            benchmark::DoNotOptimize(lyt::route(layout, {0, 0}, dst));
            lyt::rip_up_path(layout, {0, 0}, dst);
        }
    }
}

/// Cartesian 2DDWave (the QCA ONE half of Table I), corner to corner.
void layout_route_rip(benchmark::State& state)
{
    const auto last = static_cast<std::int32_t>(state.range(0)) - 1;
    route_rip_cycles(state, lyt::layout_topology::cartesian, lyt::clocking_scheme::twoddwave(), {last, last});
}
BENCHMARK(layout_route_rip)->Arg(16)->Arg(32)->Arg(64)->Unit(benchmark::kMillisecond);

/// Hexagonal ROW (the Bestagon half of Table I): every step goes one row
/// south and at most half a column east, so the target is the farthest
/// tile of the last row that the source can reach.
void layout_route_rip_hex(benchmark::State& state)
{
    const auto last = static_cast<std::int32_t>(state.range(0)) - 1;
    route_rip_cycles(state, lyt::layout_topology::hexagonal_even_row, lyt::clocking_scheme::row(), {last / 2, last});
}
BENCHMARK(layout_route_rip_hex)->Arg(16)->Arg(32)->Unit(benchmark::kMillisecond);

// ----------------------------------------------------------- verification

void layout_drc(benchmark::State& state)
{
    const auto layout = pd::ortho(bm::synthetic_network(spec_of(static_cast<std::size_t>(state.range(0)))));
    for (auto _ : state)
    {
        const auto report = ver::gate_level_drc(layout);
        benchmark::DoNotOptimize(report.errors.size());
    }
    state.counters["tiles"] = static_cast<double>(layout.num_occupied());
}
BENCHMARK(layout_drc)->Arg(64)->Arg(256)->Unit(benchmark::kMillisecond);

void layout_wave(benchmark::State& state)
{
    const auto layout = pd::ortho(bm::synthetic_network(spec_of(static_cast<std::size_t>(state.range(0)))));
    const std::vector<std::uint64_t> words(layout.num_pis(), 0xA5A5A5A5A5A5A5A5ull);
    for (auto _ : state)
    {
        const auto result = ver::wave_simulate(layout, words);
        benchmark::DoNotOptimize(result.settle_ticks);
    }
    state.counters["tiles"] = static_cast<double>(layout.num_occupied());
}
BENCHMARK(layout_wave)->Arg(64)->Arg(256)->Unit(benchmark::kMillisecond);

// ------------------------------------------------- end-to-end (Table I)

/// Full portfolio wall clock over a benchmark set. Exact is disabled (its
/// runtime is solver-search-bound and capped by timeouts, which only adds
/// noise); NPR/ortho/InOrd/PLO with verification exercise every storage
/// path: construction, routing, net surgery, DRC, equivalence and wave
/// simulation.
void run_set(benchmark::State& state, const std::vector<bm::benchmark_entry>& entries)
{
    pd::portfolio_params params{};
    params.try_exact = false;
    params.verify = true;
    for (auto _ : state)
    {
        std::size_t layouts = 0;
        for (const auto& entry : entries)
        {
            const auto network = entry.build();
            layouts += pd::generate_portfolio(network, pd::portfolio_flavor::cartesian, params).results.size();
            layouts += pd::generate_portfolio(network, pd::portfolio_flavor::hexagonal, params).results.size();
        }
        benchmark::DoNotOptimize(layouts);
        state.counters["layouts"] = static_cast<double>(layouts);
    }
}

void portfolio_trindade16(benchmark::State& state)
{
    run_set(state, bm::trindade16());
}
BENCHMARK(portfolio_trindade16)->Unit(benchmark::kMillisecond)->Iterations(1);

void portfolio_fontes18(benchmark::State& state)
{
    run_set(state, bm::fontes18());
}
BENCHMARK(portfolio_fontes18)->Unit(benchmark::kMillisecond)->Iterations(1);

}  // namespace

BENCHMARK_MAIN();
