#pragma once

/// \file replay.hpp
/// \brief The traced replay of the generation and store workloads. It
///        re-executes pd::generate_portfolio and svc::populate_store step by
///        step through the public layer functions they call, in the same
///        order and with the same parameters, with a span around each call.
///        The replay must reproduce the untraced run's layouts and manifest
///        bytes exactly; the workloads check that, so the trace provably
///        covers the same work.
///
/// Covered paths: generate_portfolio with jobs = 1 and optimize_network off,
/// and populate_store in-process (workers = 0) into a fresh store without
/// resume. These are the only paths the workloads use.

#include "trace.hpp"

#include "benchmarks/suites.hpp"
#include "common/provenance.hpp"
#include "io/fgl_reader.hpp"
#include "io/fgl_writer.hpp"
#include "network/transforms.hpp"
#include "physical_design/exact.hpp"
#include "physical_design/hexagonalization.hpp"
#include "physical_design/input_ordering.hpp"
#include "physical_design/nanoplacer.hpp"
#include "physical_design/ortho.hpp"
#include "physical_design/portfolio.hpp"
#include "physical_design/post_layout_optimization.hpp"
#include "service/journal.hpp"
#include "service/populate.hpp"
#include "service/store.hpp"
#include "verification/equivalence.hpp"
#include "verification/wave_simulation.hpp"

#include <filesystem>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace e2e
{

using namespace mnt;

/// Outcome counts the per-layer ratios are computed from.
struct replay_counts
{
    std::size_t exact_solved{0};
    std::size_t nanoplacer_placed{0};
    std::size_t plo_gains{0};
    double fgl_write_bytes{0.0};
    std::size_t saves{0};
    double manifest_bytes{0.0};
    /// Combinations that threw or timed out.
    std::size_t failed_combos{0};
};

/// What one replayed portfolio produced, in generate_portfolio's order.
struct portfolio_replay
{
    std::vector<pd::layout_result> results;
    /// Labels of the combinations whose outcome was ok.
    std::vector<std::string> ok_labels;
};

namespace detail
{

/// The portfolio's applicability measure: placeable nodes after its
/// standard preprocessing.
[[nodiscard]] inline std::size_t placeable_nodes(const ntk::logic_network& network)
{
    const auto net = ntk::substitute_fanouts(ntk::decompose_maj(ntk::propagate_constants(network)), 2);
    std::size_t count = 0;
    net.foreach_node(
        [&](const ntk::logic_network::node v)
        {
            if (!net.is_constant(v))
            {
                ++count;
            }
        });
    return count;
}

struct portfolio_context
{
    tracer& tr;
    const ntk::logic_network& network;
    const pd::portfolio_params& params;
    portfolio_replay& out;
    replay_counts& counts;
};

inline void add_result(portfolio_context& ctx, lyt::gate_level_layout layout, const std::string& algorithm,
                       std::vector<std::string> optimizations)
{
    pd::layout_result r{std::move(layout), algorithm, std::move(optimizations), "", 0.0};
    r.clocking = r.layout.clocking().name();
    if (ctx.params.verify)
    {
        ver::equivalence_result equivalence;
        {
            const auto span = ctx.tr.layer("verification.equivalence");
            equivalence = ver::check_layout_equivalence(ctx.network, r.layout);
        }
        if (!equivalence.equivalent)
        {
            throw std::runtime_error{"not equivalent: " + equivalence.reason};
        }
        if (r.layout.num_occupied() <= 400)
        {
            ver::wave_equivalence_result wave;
            {
                const auto span = ctx.tr.layer("verification.wave");
                wave = ver::check_wave_equivalence(ctx.network, r.layout);
            }
            if (!wave.equivalent)
            {
                throw std::runtime_error{"fails wave simulation: " + wave.reason};
            }
        }
    }
    ctx.out.results.push_back(std::move(r));
}

/// One combination: ok when the body returns, failed when it throws (the
/// portfolio would retry a verification failure; the replay reports it).
template <typename Body>
void attempt(portfolio_context& ctx, std::string label, Body&& body)
{
    const auto span = ctx.tr.step("combo");
    const auto mark = ctx.out.results.size();
    try
    {
        body();
        ctx.out.ok_labels.push_back(std::move(label));
    }
    catch (const std::exception&)
    {
        ctx.out.results.resize(mark);
        ++ctx.counts.failed_combos;
    }
}

inline void replay_exact(portfolio_context& ctx, const lyt::layout_topology topology, const lyt::clocking_kind scheme)
{
    attempt(ctx, prov::combo_label(prov::algo_exact, lyt::clocking_name(scheme), {}),
            [&]
            {
                pd::exact_params ep{};
                ep.topology = topology;
                ep.scheme = scheme;
                ep.timeout_s = ctx.params.exact_timeout_s;
                ep.max_area = ctx.params.exact_max_area;
                pd::exact_stats stats{};
                std::optional<lyt::gate_level_layout> layout;
                {
                    const auto span = ctx.tr.layer("physical_design.exact");
                    layout = pd::exact(ctx.network, ep, &stats);
                }
                if (stats.timed_out)
                {
                    throw std::runtime_error{"exact timed out"};
                }
                if (layout.has_value())
                {
                    ++ctx.counts.exact_solved;
                    add_result(ctx, std::move(*layout), prov::algo_exact, {});
                }
            });
}

inline void replay_plo(portfolio_context& ctx, const std::size_t base_index)
{
    const auto base = ctx.out.results[base_index];  // copied, as the portfolio does
    if (!ctx.params.try_plo || base.layout.num_occupied() > ctx.params.plo_max_tiles)
    {
        return;
    }
    auto optimizations = base.optimizations;
    optimizations.emplace_back(prov::opt_post_layout);
    attempt(ctx, prov::combo_label(base.algorithm, base.clocking, optimizations),
            [&]
            {
                pd::plo_params plo{};
                plo.max_gate_moves = ctx.params.plo_max_gate_moves;
                std::optional<lyt::gate_level_layout> optimized;
                {
                    const auto span = ctx.tr.layer("physical_design.plo");
                    optimized = pd::post_layout_optimization(base.layout, plo);
                }
                if (optimized->area() >= base.layout.area())
                {
                    return;
                }
                ++ctx.counts.plo_gains;
                add_result(ctx, std::move(*optimized), base.algorithm, optimizations);
            });
}

inline void replay_nanoplacer(portfolio_context& ctx, const lyt::layout_topology topology,
                              const lyt::clocking_kind scheme)
{
    const auto mark = ctx.out.results.size();
    attempt(ctx, prov::combo_label(prov::algo_nanoplacer, lyt::clocking_name(scheme), {}),
            [&]
            {
                pd::nanoplacer_params np{};
                np.topology = topology;
                np.scheme = scheme;
                np.seed = ctx.params.seed;
                np.iterations = ctx.params.nanoplacer_iterations;
                std::optional<lyt::gate_level_layout> layout;
                {
                    const auto span = ctx.tr.layer("physical_design.nanoplacer");
                    layout = pd::nanoplacer(ctx.network, np);
                }
                if (layout.has_value())
                {
                    ++ctx.counts.nanoplacer_placed;
                    add_result(ctx, std::move(*layout), prov::algo_nanoplacer, {});
                }
            });
    if (ctx.out.results.size() > mark)
    {
        replay_plo(ctx, mark);
    }
}

inline void replay_ortho(portfolio_context& ctx, const bool hexagonal, const bool ordered)
{
    const auto clocking = lyt::clocking_name(hexagonal ? lyt::clocking_kind::row : lyt::clocking_kind::twoddwave);
    std::vector<std::string> optimizations;
    if (ordered)
    {
        optimizations.emplace_back(prov::opt_input_ordering);
    }
    if (hexagonal)
    {
        optimizations.emplace_back(prov::opt_hexagonalization);
    }
    const auto mark = ctx.out.results.size();
    attempt(ctx, prov::combo_label(prov::algo_ortho, clocking, optimizations),
            [&]
            {
                std::optional<lyt::gate_level_layout> layout;
                if (ordered)
                {
                    pd::input_ordering_params ip{};
                    ip.max_orderings = ctx.params.input_orderings;
                    ip.seed = ctx.params.seed;
                    const auto span = ctx.tr.layer("physical_design.input_ordering");
                    layout = pd::input_ordering_ortho(ctx.network, ip);
                }
                else
                {
                    const auto span = ctx.tr.layer("physical_design.ortho");
                    layout = pd::ortho(ctx.network);
                }
                if (hexagonal)
                {
                    const auto span = ctx.tr.layer("physical_design.hexagonalization");
                    layout = pd::hexagonalization(*layout);
                }
                add_result(ctx, std::move(*layout), prov::algo_ortho, optimizations);
            });
    if (ctx.out.results.size() > mark)
    {
        replay_plo(ctx, mark);
    }
}

/// populate's size-class budgets (populate.cpp applies them per entry).
inline void apply_size_defaults(pd::portfolio_params& params, const bm::size_class size)
{
    switch (size)
    {
        case bm::size_class::tiny: break;
        case bm::size_class::small: params.try_exact = false; break;
        case bm::size_class::medium:
            params.try_exact = false;
            params.try_nanoplacer = false;
            params.input_orderings = 3;
            break;
        case bm::size_class::large:
            params.try_exact = false;
            params.try_nanoplacer = false;
            params.input_orderings = 2;
            params.try_plo = false;
            break;
    }
}

}  // namespace detail

/// Replays pd::generate_portfolio(network, flavor, params).
[[nodiscard]] inline portfolio_replay replay_portfolio(tracer& tr, const ntk::logic_network& network,
                                                       const pd::portfolio_flavor flavor,
                                                       const pd::portfolio_params& params, replay_counts& counts)
{
    portfolio_replay out{};
    detail::portfolio_context ctx{tr, network, params, out, counts};

    std::size_t nodes = 0;
    {
        const auto span = tr.layer("network");
        nodes = detail::placeable_nodes(network);
    }
    const auto exact_applicable = params.try_exact && nodes <= params.exact_max_nodes;
    const auto npr_applicable = params.try_nanoplacer && nodes <= params.nanoplacer_max_nodes;

    const auto hexagonal = flavor == pd::portfolio_flavor::hexagonal;
    if (!hexagonal)
    {
        for (const auto scheme : params.cartesian_schemes)
        {
            if (scheme != lyt::clocking_kind::row && exact_applicable)
            {
                detail::replay_exact(ctx, lyt::layout_topology::cartesian, scheme);
            }
        }
        for (const auto scheme : params.cartesian_schemes)
        {
            if (scheme != lyt::clocking_kind::row && npr_applicable)
            {
                detail::replay_nanoplacer(ctx, lyt::layout_topology::cartesian, scheme);
            }
        }
    }
    else
    {
        if (exact_applicable)
        {
            detail::replay_exact(ctx, lyt::layout_topology::hexagonal_even_row, lyt::clocking_kind::row);
        }
        if (npr_applicable)
        {
            detail::replay_nanoplacer(ctx, lyt::layout_topology::hexagonal_even_row, lyt::clocking_kind::row);
        }
    }
    if (params.try_ortho)
    {
        detail::replay_ortho(ctx, hexagonal, false);
        if (params.try_input_ordering && network.num_pis() > 1)
        {
            detail::replay_ortho(ctx, hexagonal, true);
        }
    }
    return out;
}

/// Replays svc::populate_store(store, entries, options) with
/// options.workers == 0 and options.resume off, into a store that holds
/// none of \p entries yet. Job spans are numbered from \p first_job.
/// Returns the blob ids of the stored layouts.
inline std::vector<std::string> replay_populate(tracer& tr, svc::layout_store& store,
                                                const std::vector<bm::benchmark_entry>& entries,
                                                const svc::populate_options& options, replay_counts& counts,
                                                const std::size_t first_job)
{
    std::vector<std::string> stored;
    const auto root = store.root();
    const auto jobs = svc::enumerate_regen_jobs(entries, options);
    const auto journaling = options.journal;
    std::optional<svc::run_journal> journal;
    if (journaling)
    {
        const auto span = tr.layer("service.journal.append");
        journal.emplace(root / svc::run_journal::default_filename);
        journal->run_start(jobs.size(), std::string{"qca="} + (options.qca ? "1" : "0") + ",bestagon=" +
                                            (options.bestagon ? "1" : "0") + ",deterministic=" +
                                            (options.deterministic ? "1" : "0") + ",size_defaults=" +
                                            (options.use_entry_size_defaults ? "1" : "0"));
    }

    const auto manifest = root / "manifest.json";
    const auto save = [&]
    {
        {
            const auto span = tr.layer("service.store.save");
            store.save();
        }
        ++counts.saves;
        tr.untimed([&] { counts.manifest_bytes += static_cast<double>(std::filesystem::file_size(manifest)); });
    };

    for (std::size_t j = first_job; j < first_job + jobs.size(); ++j)
    {
        const auto& job = jobs[j - first_job];
        const auto& entry = entries[job.entry_index];
        const auto job_span = tr.step("job", j);
        if (journaling)
        {
            const auto span = tr.layer("service.journal.append", j);
            journal->job_start(job.id);
        }

        ntk::logic_network network;
        {
            const auto span = tr.layer("network", j);
            network = entry.build();
        }
        if (!store.has_network(entry.set, entry.name))
        {
            const auto span = tr.layer("service.store.put", j);
            store.put_network(entry.set, entry.name, network, entry.family);
        }

        auto params = options.params;
        if (options.use_entry_size_defaults)
        {
            detail::apply_size_defaults(params, entry.size);
        }
        if (options.deterministic)
        {
            params.try_exact = false;
        }
        const auto run = replay_portfolio(tr, network, job.flavor, params, counts);

        std::vector<std::string> blob_ids;
        for (const auto& r : run.results)
        {
            cat::layout_record record{};
            record.benchmark_set = entry.set;
            record.benchmark_name = entry.name;
            record.library = job.library;
            record.clocking = r.clocking;
            record.algorithm = r.algorithm;
            record.optimizations = r.optimizations;
            record.runtime = options.deterministic ? 0.0 : r.runtime;
            record.family = entry.family;
            record.family_seed = entry.family_seed;
            record.layout = r.layout;

            const auto fgl_s = tr.inner(
                [&] { counts.fgl_write_bytes += static_cast<double>(io::write_fgl_string(r.layout).size()); });
            const auto span = tr.layer("service.store.put", j);
            tr.attribute(span.id(), "io.fgl_write", fgl_s);
            blob_ids.push_back(store.put_layout(record));
        }
        std::size_t completed = 0;
        for (const auto& label : run.ok_labels)
        {
            const auto key = svc::cache_key(entry.set, entry.name, job.library, label);
            if (!store.contains(key))
            {
                store.mark_completed(key);
                ++completed;
            }
        }
        store.remove_failure(entry.set, entry.name, cat::gate_library_name(job.library), svc::worker_combination);
        if (journaling)
        {
            save();
            const auto span = tr.layer("service.journal.append", j);
            journal->job_done(job.id, run.results.size(), 0, completed, blob_ids);
        }
        stored.insert(stored.end(), blob_ids.begin(), blob_ids.end());
    }

    if (journaling)
    {
        const auto span = tr.layer("service.journal.append");
        journal->run_end(jobs.size(), 0);
    }
    save();
    return stored;
}

/// Replays reopening the store at \p root into \p store and
/// svc::layout_store::load(). The .fgl parsing inside load is timed by a
/// separate read_fgl_string call on every layout blob in \p blob_ids.
inline svc::store_snapshot replay_load(tracer& tr, std::optional<svc::layout_store>& store,
                                       const std::filesystem::path& root, const std::vector<std::string>& blob_ids)
{
    double parse_s = 0.0;
    if (tr.enabled())
    {
        tr.untimed(
            [&]
            {
                const svc::layout_store blobs{root};
                for (const auto& id : blob_ids)
                {
                    const auto bytes = svc::read_file(blobs.blob_path(id).value());
                    const auto start = clock_type::now();
                    static_cast<void>(io::read_fgl_string(bytes));
                    parse_s += seconds_since(start);
                }
            });
    }
    const auto span = tr.layer("service.store.load");
    tr.attribute(span.id(), "io.fgl_read", parse_s);
    store.emplace(root);
    return store->load();
}

}  // namespace e2e
