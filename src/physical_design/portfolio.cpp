#include "physical_design/portfolio.hpp"

#include "common/provenance.hpp"
#include "common/taskrt/taskrt.hpp"
#include "common/types.hpp"
#include "network/transforms.hpp"
#include "physical_design/exact.hpp"
#include "physical_design/hexagonalization.hpp"
#include "physical_design/input_ordering.hpp"
#include "physical_design/nanoplacer.hpp"
#include "physical_design/ortho.hpp"
#include "physical_design/post_layout_optimization.hpp"
#include "network/optimization.hpp"
#include "telemetry/eventlog.hpp"
#include "telemetry/telemetry.hpp"
#include "verification/equivalence.hpp"
#include "verification/wave_simulation.hpp"

#include <algorithm>
#include <functional>
#include <iterator>

namespace mnt::pd
{

namespace
{

using lyt::gate_level_layout;
using ntk::logic_network;

/// Telemetry span name of one algorithm×clocking×optimization combination,
/// e.g. "NPR@USE" or "ortho@ROW+InOrd (SDN)+45°". Doubles as the combination
/// label in combo_outcomes, the failure manifest, and the service layer's
/// store cache keys — one vocabulary everywhere (see provenance.hpp).
std::string combo_span_name(const std::string& algorithm, const std::string& clocking,
                            const std::vector<std::string>& optimizations)
{
    return prov::combo_label(algorithm, clocking, optimizations);
}

/// Placeable node count after the standard preprocessing (used for tool
/// applicability thresholds).
std::size_t placeable_nodes(const logic_network& network)
{
    const auto net = ntk::substitute_fanouts(ntk::decompose_maj(ntk::propagate_constants(network)), 2);
    std::size_t count = 0;
    net.foreach_node(
        [&](const logic_network::node v)
        {
            if (!net.is_constant(v))
            {
                ++count;
            }
        });
    return count;
}

void verify_or_throw(const logic_network& network, const gate_level_layout& layout, const std::string& label)
{
    MNT_SPAN("verify");
    if (MNT_FAULT_FIRES("verify.check"))
    {
        throw verification_error{"injected fault at verify.check for '" + label + "' (MNT_FAULT_INJECT)"};
    }
    const auto result = ver::check_layout_equivalence(network, layout);
    if (!result.equivalent)
    {
        throw verification_error{"portfolio: layout produced by '" + label + "' for '" + network.network_name() +
                                 "' is NOT equivalent to its specification: " + result.reason};
    }
    // small layouts get the physical (clock-phase-accurate) check on top
    if (layout.num_occupied() <= 400)
    {
        const auto wave = ver::check_wave_equivalence(network, layout);
        if (!wave.equivalent)
        {
            throw verification_error{"portfolio: layout produced by '" + label + "' for '" +
                                     network.network_name() + "' fails wave simulation: " + wave.reason};
        }
    }
}

void add_result(std::vector<layout_result>& results, const logic_network& network, gate_level_layout layout,
                std::string algorithm, std::vector<std::string> optimizations, const double runtime,
                const bool verify)
{
    layout_result r{std::move(layout), std::move(algorithm), std::move(optimizations),
                    /*clocking=*/"", runtime};
    r.clocking = r.layout.clocking().name();
    if (verify)
    {
        verify_or_throw(network, r.layout, r.label());
    }
    tel::count("portfolio.layouts");
    results.push_back(std::move(r));
}

/// Shared state of one generate_portfolio invocation, threaded through the
/// per-combination helpers.
struct combo_context
{
    const logic_network& network;
    const portfolio_params& params;
    res::guard_params guard;
    std::vector<layout_result>& results;
    std::vector<res::combo_outcome>& outcomes;
};

/// Runs one combination under run_guarded: exceptions become outcomes,
/// transient failures are retried, and results appended by a failed attempt
/// are rolled back so retries and failures never leave partial entries.
template <typename Body>
void attempt_combo(combo_context& ctx, const std::string& label, Body&& body)
{
    // incremental regeneration: a combination whose result already exists in
    // the caller's store is skipped wholesale (no outcome entry either —
    // the cached run already recorded one)
    if (ctx.params.is_cached && ctx.params.is_cached(label))
    {
        tel::count("portfolio.cache_hits");
        return;
    }

    const auto mark = ctx.results.size();
    auto outcome = res::run_guarded(label, ctx.guard,
                                    [&](const std::size_t attempt)
                                    {
                                        ctx.results.resize(mark);  // drop partial entries of a prior attempt
                                        return body(attempt);
                                    });
    if (!outcome.is_ok())
    {
        ctx.results.resize(mark);
        tel::log_event(tel::log_severity::warn, "portfolio", "combination failed",
                       {{"combo", outcome.label},
                        {"kind", res::outcome_kind_name(outcome.kind)},
                        {"attempts", std::to_string(outcome.attempts)},
                        {"detail", outcome.message}});
    }

    if (tel::enabled())
    {
        tel::count(outcome.is_ok() ? "portfolio.combos_ok" : "portfolio.combos_failed");
        if (!outcome.is_ok())
        {
            tel::count(std::string{"portfolio.failed."} + res::outcome_kind_name(outcome.kind));
            tel::add_event({"combo_failure", outcome.label, res::outcome_kind_name(outcome.kind),
                            outcome.message, outcome.elapsed_s});
        }
        if (outcome.attempts > 1)
        {
            tel::count("portfolio.retries", outcome.attempts - 1);
        }
    }
    ctx.outcomes.push_back(std::move(outcome));
}

/// exact on one scheme (both grid families).
void attempt_exact(combo_context& ctx, const lyt::layout_topology topo, const lyt::clocking_kind scheme)
{
    const auto label = combo_span_name(prov::algo_exact, lyt::clocking_name(scheme), {});
    attempt_combo(ctx, label,
                  [&](const std::size_t) -> res::outcome_kind
                  {
                      const tel::span combo{label};
                      exact_params ep{};
                      ep.topology = topo;
                      ep.scheme = scheme;
                      ep.timeout_s = ctx.params.exact_timeout_s;
                      ep.max_area = ctx.params.exact_max_area;
                      ep.deadline = ctx.guard.deadline;
                      exact_stats es{};
                      auto layout = exact(ctx.network, ep, &es);
                      if (es.timed_out)
                      {
                          tel::count("portfolio.exact_timeouts");
                          return res::outcome_kind::timeout;  // soft per-tool budget, no unwind
                      }
                      if (layout.has_value())
                      {
                          add_result(ctx.results, ctx.network, std::move(*layout), prov::algo_exact, {}, es.runtime,
                                     ctx.params.verify);
                      }
                      return res::outcome_kind::ok;
                  });
}

/// Applies PLO to results[base_index] (if budgeted) and appends the optimized
/// variant as an additional portfolio entry, as its own guarded combination.
void maybe_add_plo(combo_context& ctx, const std::size_t base_index)
{
    // copy: the results vector may reallocate during the guarded attempt
    const auto base = ctx.results[base_index];
    if (!ctx.params.try_plo || base.layout.num_occupied() > ctx.params.plo_max_tiles)
    {
        if (ctx.params.try_plo)
        {
            tel::count("portfolio.skipped.plo");
        }
        return;
    }
    auto opts = base.optimizations;
    opts.emplace_back(prov::opt_post_layout);
    const auto label = combo_span_name(base.algorithm, base.clocking, opts);
    attempt_combo(ctx, label,
                  [&](const std::size_t)
                  {
                      const tel::span combo{label};
                      const tel::stopwatch watch;
                      plo_params plo{};
                      plo.max_gate_moves = ctx.params.plo_max_gate_moves;
                      plo.deadline = ctx.guard.deadline;
                      const auto optimized = post_layout_optimization(base.layout, plo);
                      if (optimized.area() >= base.layout.area())
                      {
                          tel::count("portfolio.plo_no_gain");
                          return;  // no improvement: not a distinct portfolio entry
                      }
                      add_result(ctx.results, ctx.network, optimized, base.algorithm, opts,
                                 base.runtime + watch.seconds(), ctx.params.verify);
                  });
}

/// NanoPlaceR substitute on one scheme, with the PLO follow-up.
void attempt_nanoplacer(combo_context& ctx, const lyt::layout_topology topo, const lyt::clocking_kind scheme)
{
    const auto label = combo_span_name(prov::algo_nanoplacer, lyt::clocking_name(scheme), {});
    const auto mark = ctx.results.size();
    attempt_combo(ctx, label,
                  [&](const std::size_t attempt)
                  {
                      const tel::span combo{label};
                      nanoplacer_params np{};
                      np.topology = topo;
                      np.scheme = scheme;
                      // shifted seed per retry: a stochastic tool that failed
                      // verification deserves a genuinely different run
                      np.seed = ctx.params.seed + (attempt - 1) * 7919;
                      np.iterations = ctx.params.nanoplacer_iterations;
                      np.deadline = ctx.guard.deadline;
                      nanoplacer_stats ns{};
                      auto layout = nanoplacer(ctx.network, np, &ns);
                      if (layout.has_value())
                      {
                          add_result(ctx.results, ctx.network, std::move(*layout), prov::algo_nanoplacer, {},
                                     ns.runtime, ctx.params.verify);
                      }
                      else
                      {
                          tel::count("portfolio.nanoplacer_failures");
                      }
                  });
    if (ctx.results.size() > mark)
    {
        maybe_add_plo(ctx, mark);
    }
}

/// One ortho-family combination: plain or input-ordered, optionally
/// hexagonalized (the Bestagon path), with the PLO follow-up.
void attempt_ortho_variant(combo_context& ctx, const bool hexagonal, const bool ordered)
{
    const auto clocking =
        lyt::clocking_name(hexagonal ? lyt::clocking_kind::row : lyt::clocking_kind::twoddwave);
    std::vector<std::string> opts;
    if (ordered)
    {
        opts.emplace_back(prov::opt_input_ordering);
    }
    if (hexagonal)
    {
        opts.emplace_back(prov::opt_hexagonalization);
    }
    const auto label = combo_span_name(prov::algo_ortho, clocking, opts);
    const auto mark = ctx.results.size();
    attempt_combo(ctx, label,
                  [&](const std::size_t attempt)
                  {
                      const tel::span combo{label};
                      const tel::stopwatch watch;
                      ortho_params op{};
                      op.deadline = ctx.guard.deadline;
                      gate_level_layout cartesian = [&]
                      {
                          if (!ordered)
                          {
                              return ortho(ctx.network, op);
                          }
                          input_ordering_params ip{};
                          ip.max_orderings = ctx.params.input_orderings;
                          ip.seed = ctx.params.seed + (attempt - 1) * 7919;
                          ip.ortho = op;
                          return input_ordering_ortho(ctx.network, ip);
                      }();
                      auto layout = hexagonal ? hexagonalization(cartesian) : std::move(cartesian);
                      add_result(ctx.results, ctx.network, std::move(layout), prov::algo_ortho, opts,
                                 watch.seconds(), ctx.params.verify);
                  });
    if (ctx.results.size() > mark)
    {
        maybe_add_plo(ctx, mark);
    }
}

}  // namespace

std::string layout_result::label() const
{
    return prov::label(algorithm, optimizations);
}

std::vector<res::combo_outcome> portfolio_run::failures() const
{
    std::vector<res::combo_outcome> failed;
    for (const auto& o : outcomes)
    {
        if (!o.is_ok())
        {
            failed.push_back(o);
        }
    }
    return failed;
}

portfolio_run generate_portfolio(const logic_network& input, const portfolio_flavor flavor,
                                 const portfolio_params& params)
{
    const tel::span top{flavor == portfolio_flavor::cartesian ? "portfolio/cartesian" : "portfolio/hexagonal"};
    const auto network = params.optimize_network ? ntk::optimize(input) : input;

    res::guard_params guard{};
    if (params.deadline_s > 0.0)
    {
        guard.deadline = res::deadline_clock::after(params.deadline_s);
    }
    if (params.stop != nullptr)
    {
        guard.deadline.attach_stop(params.stop);
    }
    guard.retry.max_attempts = std::max<std::size_t>(params.max_attempts, 1);
    guard.retry.backoff_base_s = params.retry_backoff_s;
    guard.retry.seed = params.seed;

    const auto nodes = placeable_nodes(network);
    const auto exact_applicable = params.try_exact && nodes <= params.exact_max_nodes;
    const auto npr_applicable = params.try_nanoplacer && nodes <= params.nanoplacer_max_nodes;

    // every independent top-level combination (including its follow-up chain,
    // e.g. NPR → PLO) becomes one task; the task list is the unit of
    // --jobs parallelism AND the deterministic merge order
    using combo_task = std::function<void(combo_context&)>;
    std::vector<combo_task> tasks;

    const auto hexagonal = flavor == portfolio_flavor::hexagonal;
    if (flavor == portfolio_flavor::cartesian)
    {
        for (const auto scheme : params.cartesian_schemes)
        {
            if (scheme == lyt::clocking_kind::row)
            {
                continue;  // Cartesian ROW cannot host 2-input gates
            }
            if (exact_applicable)
            {
                tasks.emplace_back([scheme](combo_context& ctx)
                                   { attempt_exact(ctx, lyt::layout_topology::cartesian, scheme); });
            }
        }
        for (const auto scheme : params.cartesian_schemes)
        {
            if (scheme == lyt::clocking_kind::row)
            {
                continue;
            }
            if (npr_applicable)
            {
                tasks.emplace_back([scheme](combo_context& ctx)
                                   { attempt_nanoplacer(ctx, lyt::layout_topology::cartesian, scheme); });
            }
        }
    }
    else
    {
        if (exact_applicable)
        {
            tasks.emplace_back(
                [](combo_context& ctx)
                { attempt_exact(ctx, lyt::layout_topology::hexagonal_even_row, lyt::clocking_kind::row); });
        }
        if (npr_applicable)
        {
            tasks.emplace_back(
                [](combo_context& ctx)
                { attempt_nanoplacer(ctx, lyt::layout_topology::hexagonal_even_row, lyt::clocking_kind::row); });
        }
    }
    if (params.try_exact && !exact_applicable)
    {
        tel::count("portfolio.skipped.exact");
    }
    if (params.try_nanoplacer && !npr_applicable)
    {
        tel::count("portfolio.skipped.nanoplacer");
    }
    if (params.try_ortho)
    {
        tasks.emplace_back([hexagonal](combo_context& ctx)
                           { attempt_ortho_variant(ctx, hexagonal, /*ordered=*/false); });
        if (params.try_input_ordering && network.num_pis() > 1)
        {
            tasks.emplace_back([hexagonal](combo_context& ctx)
                               { attempt_ortho_variant(ctx, hexagonal, /*ordered=*/true); });
        }
    }

    portfolio_run run{};
    if (params.jobs <= 1 || tasks.size() <= 1)
    {
        combo_context ctx{network, params, guard, run.results, run.outcomes};
        for (const auto& task : tasks)
        {
            task(ctx);
        }
    }
    else
    {
        // each task writes into its own slot; slots are merged in task order
        // afterwards, so the output is identical to the sequential run
        struct task_slot
        {
            std::vector<layout_result> results;
            std::vector<res::combo_outcome> outcomes;
        };
        std::vector<task_slot> slots(tasks.size());

        // combos become tasks of the shared runtime, composing with any
        // in-algorithm parallelism (exact races, NPR chains) instead of
        // oversubscribing with a second thread pool; a serial runtime runs
        // them inline in task order. Span adoption is handled by the runtime.
        trt::parallel_for(0, tasks.size(), 1,
                          [&](const std::size_t chunk_begin, const std::size_t chunk_end)
                          {
                              for (std::size_t i = chunk_begin; i < chunk_end; ++i)
                              {
                                  combo_context ctx{network, params, guard, slots[i].results, slots[i].outcomes};
                                  tasks[i](ctx);
                              }
                          });

        for (auto& slot : slots)
        {
            std::move(slot.results.begin(), slot.results.end(), std::back_inserter(run.results));
            std::move(slot.outcomes.begin(), slot.outcomes.end(), std::back_inserter(run.outcomes));
        }
    }

    tel::set_gauge("portfolio.results", static_cast<double>(run.results.size()));
    return run;
}

std::vector<layout_result> run_cartesian_portfolio(const logic_network& input, const portfolio_params& params)
{
    return generate_portfolio(input, portfolio_flavor::cartesian, params).results;
}

std::vector<layout_result> run_hexagonal_portfolio(const logic_network& input, const portfolio_params& params)
{
    return generate_portfolio(input, portfolio_flavor::hexagonal, params).results;
}

const layout_result* best_by_area(const std::vector<layout_result>& results)
{
    const layout_result* best = nullptr;
    for (const auto& r : results)
    {
        if (best == nullptr || r.layout.area() < best->layout.area() ||
            (r.layout.area() == best->layout.area() &&
             (r.layout.num_wires() < best->layout.num_wires() ||
              (r.layout.num_wires() == best->layout.num_wires() && r.label() < best->label()))))
        {
            best = &r;
        }
    }
    return best;
}

}  // namespace mnt::pd
