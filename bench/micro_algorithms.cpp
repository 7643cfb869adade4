/// \file micro_algorithms.cpp
/// \brief Engineering microbenchmarks (μ1–μ3): ortho scaling over network
///        size (with the fanout-substitution ablation), router throughput
///        (generic BFS vs the monotone shortcut baked into ortho),
///        hexagonalization/PLO passes, and exact's search on the Table I
///        rows that dominate its time. Not part of the paper's evaluation;
///        tracked to keep the reproduction's algorithms honest.

#include "benchmarks/functions.hpp"
#include "benchmarks/synthetic.hpp"
#include "common/taskrt/taskrt.hpp"
#include "layout/routing.hpp"
#include "network/transforms.hpp"
#include "physical_design/exact.hpp"
#include "physical_design/hexagonalization.hpp"
#include "physical_design/ortho.hpp"
#include "physical_design/post_layout_optimization.hpp"

#include <benchmark/benchmark.h>

namespace
{

using namespace mnt;

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

void ortho_scaling(benchmark::State& state)
{
    const auto network = bm::synthetic_network(spec_of(static_cast<std::size_t>(state.range(0))));
    for (auto _ : state)
    {
        auto layout = pd::ortho(network);
        benchmark::DoNotOptimize(layout.area());
    }
    state.counters["area"] = static_cast<double>(pd::ortho(network).area());
}
BENCHMARK(ortho_scaling)->Arg(32)->Arg(128)->Arg(512)->Unit(benchmark::kMillisecond)->Iterations(3);

void fanout_substitution(benchmark::State& state)
{
    const auto network = bm::synthetic_network(spec_of(static_cast<std::size_t>(state.range(0))));
    for (auto _ : state)
    {
        auto substituted = ntk::substitute_fanouts(network);
        benchmark::DoNotOptimize(substituted.size());
    }
}
BENCHMARK(fanout_substitution)->Arg(512)->Arg(2048)->Unit(benchmark::kMillisecond)->Iterations(5);

void router_bfs(benchmark::State& state)
{
    // route across an empty 64x64 grid, corner to corner
    for (auto _ : state)
    {
        lyt::gate_level_layout layout{"r", lyt::layout_topology::cartesian, lyt::clocking_scheme::twoddwave(), 64,
                                      64};
        layout.place({0, 0}, ntk::gate_type::pi, "a");
        layout.place({63, 63}, ntk::gate_type::po, "y");
        benchmark::DoNotOptimize(lyt::route(layout, {0, 0}, {63, 63}));
    }
}
BENCHMARK(router_bfs)->Unit(benchmark::kMillisecond)->Iterations(20);

void router_use_snake(benchmark::State& state)
{
    for (auto _ : state)
    {
        lyt::gate_level_layout layout{"r", lyt::layout_topology::cartesian, lyt::clocking_scheme::use(), 32, 32};
        layout.place({0, 0}, ntk::gate_type::pi, "a");
        layout.place({31, 31}, ntk::gate_type::po, "y");
        benchmark::DoNotOptimize(lyt::route(layout, {0, 0}, {31, 31}));
    }
}
BENCHMARK(router_use_snake)->Unit(benchmark::kMillisecond)->Iterations(20);

void hexagonalization_pass(benchmark::State& state)
{
    const auto cartesian = pd::ortho(bm::synthetic_network(spec_of(256)));
    for (auto _ : state)
    {
        auto hex = pd::hexagonalization(cartesian);
        benchmark::DoNotOptimize(hex.area());
    }
}
BENCHMARK(hexagonalization_pass)->Unit(benchmark::kMillisecond)->Iterations(5);

void plo_pass(benchmark::State& state)
{
    const auto layout = pd::ortho(bm::synthetic_network(spec_of(64)));
    for (auto _ : state)
    {
        pd::plo_params params{};
        params.max_passes = 2;
        params.max_gate_moves = 500;
        auto optimized = pd::post_layout_optimization(layout, params);
        benchmark::DoNotOptimize(optimized.area());
    }
    pd::plo_params params{};
    auto optimized = pd::post_layout_optimization(layout, params);
    state.counters["area_before"] = static_cast<double>(layout.area());
    state.counters["area_after"] = static_cast<double>(optimized.area());
}
BENCHMARK(plo_pass)->Unit(benchmark::kMillisecond)->Iterations(3);

/// One exact call on a Trindade16 function at one compute thread, with Table
/// I's area bound and a budget it never reaches; `search_nodes` counts the
/// backtracking search's nodes.
void exact_search(benchmark::State& state, ntk::logic_network (*function)(), const lyt::layout_topology topology,
                  const lyt::clocking_kind scheme)
{
    const auto network = function();
    pd::exact_params params{};
    params.topology = topology;
    params.scheme = scheme;
    params.max_area = 60;
    params.timeout_s = 120.0;
    trt::set_thread_count(1);
    pd::exact_stats stats{};
    for (auto _ : state)
    {
        auto layout = pd::exact(network, params, &stats);
        benchmark::DoNotOptimize(layout.has_value());
    }
    trt::set_thread_count(0);
    state.counters["search_nodes"] = static_cast<double>(stats.search_nodes);
}
BENCHMARK_CAPTURE(exact_search, parity_check_esr, &bm::parity_checker, lyt::layout_topology::cartesian,
                  lyt::clocking_kind::esr)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(exact_search, parity_check_use, &bm::parity_checker, lyt::layout_topology::cartesian,
                  lyt::clocking_kind::use)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(exact_search, half_adder_hex_row, &bm::half_adder, lyt::layout_topology::hexagonal_even_row,
                  lyt::clocking_kind::row)
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
