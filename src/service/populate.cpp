#include "service/populate.hpp"

#include "common/supervisor.hpp"
#include "common/types.hpp"
#include "service/hash.hpp"
#include "telemetry/eventlog.hpp"
#include "telemetry/telemetry.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>

namespace mnt::svc
{

void apply_size_defaults(pd::portfolio_params& params, const bm::size_class size)
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

namespace
{

/// Human-readable options fingerprint for the journal's run_start record; a
/// resume under a different configuration logs a warning (the done set is
/// still safe to skip, but the job matrix may differ).
// only options that change what the run *produces* belong here: resuming a
// sharded run in-process (or vice versa) is legitimate and must not warn
std::string config_fingerprint(const populate_options& options)
{
    std::string config;
    config += "qca=" + std::to_string(options.qca ? 1 : 0);
    config += ",bestagon=" + std::to_string(options.bestagon ? 1 : 0);
    config += ",deterministic=" + std::to_string(options.deterministic ? 1 : 0);
    config += ",size_defaults=" + std::to_string(options.use_entry_size_defaults ? 1 : 0);
    return config;
}

bool cancelled(const populate_options& options) noexcept
{
    return options.cancel != nullptr && options.cancel->load(std::memory_order_relaxed);
}

/// What running one job of the matrix produced, before it is folded into
/// the populate_report.
struct job_products
{
    std::size_t networks_added{0};
    std::size_t layouts_added{0};
    std::size_t failures_recorded{0};
    std::size_t completed_marked{0};
    std::vector<std::string> blob_ids{};
    /// True when the job was cut short by the cancellation flag: its partial
    /// products are ingested (idempotent) but it must not be marked done.
    bool interrupted{false};
};

/// Runs one regen_job's portfolio and ingests everything into \p sink.
/// \p cache decides which combinations are skipped (for supervised workers
/// the main store is consulted in addition to the shard being written).
job_products run_job_into(layout_store& sink, const layout_store* cache, const bm::benchmark_entry& entry,
                          const regen_job& job, const populate_options& options,
                          std::atomic<std::size_t>& skipped, std::atomic<std::size_t>& ran)
{
    MNT_SPAN("populate/job");
    job_products products{};

    // the fault site the CI crash-containment demo triggers: a worker
    // process aborts here, exercising the supervisor's capture path
    if (MNT_FAULT_FIRES("worker.crash"))
    {
        std::abort();
    }

    const auto network = entry.build();
    sup::heartbeat();
    const bool network_known =
        sink.has_network(entry.set, entry.name) || (cache != nullptr && cache->has_network(entry.set, entry.name));
    if (!network_known)
    {
        sink.put_network(entry.set, entry.name, network, entry.family);
        ++products.networks_added;
    }

    auto params = options.params;
    if (options.use_entry_size_defaults)
    {
        apply_size_defaults(params, entry.size);
    }
    if (options.deterministic)
    {
        // exact's soft wall-clock timeout makes its result set
        // timing-dependent; a byte-identity run must exclude it
        params.try_exact = false;
    }
    if (options.cancel != nullptr)
    {
        params.stop = options.cancel;
    }

    const auto& set = entry.set;
    const auto& name = entry.name;
    const auto library = job.library;
    // incremental regeneration: the portfolio consults the store(s) before
    // running each combination; the hook doubles as a worker heartbeat
    params.is_cached = [&](const std::string& combo)
    {
        sup::heartbeat();
        const auto key = cache_key(set, name, library, combo);
        if (sink.contains(key) || (cache != nullptr && cache->contains(key)))
        {
            skipped.fetch_add(1, std::memory_order_relaxed);
            return true;
        }
        ran.fetch_add(1, std::memory_order_relaxed);
        return false;
    };

    const auto run = pd::generate_portfolio(network, job.flavor, params);
    sup::heartbeat();
    products.interrupted = cancelled(options);

    for (const auto& r : run.results)
    {
        cat::layout_record record{};
        record.benchmark_set = set;
        record.benchmark_name = name;
        record.library = library;
        record.clocking = r.clocking;
        record.algorithm = r.algorithm;
        record.optimizations = r.optimizations;
        record.runtime = options.deterministic ? 0.0 : r.runtime;
        record.family = entry.family;
        record.family_seed = entry.family_seed;
        record.layout = r.layout;
        const auto blob = sink.put_layout(record);
        if (!blob.empty())
        {
            products.blob_ids.push_back(blob);
        }
        ++products.layouts_added;
    }
    for (const auto& o : run.outcomes)
    {
        const auto key = cache_key(set, name, library, o.label);
        if (o.is_ok())
        {
            // covers completed-without-layout combinations (exact finding no
            // solution, PLO yielding no gain), so reruns skip them too;
            // layout-producing combos are keyed twice harmlessly
            if (!sink.contains(key) && (cache == nullptr || !cache->contains(key)))
            {
                sink.mark_completed(key);
                ++products.completed_marked;
            }
            continue;
        }
        if (products.interrupted)
        {
            // a cancelled run reports the cut-off combinations as timeouts;
            // those are artifacts of the interrupt, not results — the job
            // re-runs on resume, so record nothing for it
            continue;
        }
        cat::failure_record failure{};
        failure.benchmark_set = set;
        failure.benchmark_name = name;
        failure.library = library;
        failure.combination = o.label;
        failure.kind = res::outcome_kind_name(o.kind);
        failure.message = o.message;
        failure.elapsed_s = options.deterministic ? 0.0 : o.elapsed_s;
        failure.attempts = o.attempts;
        sink.put_failure(failure);
        ++products.failures_recorded;
    }
    return products;
}

void fold(populate_report& report, const job_products& products)
{
    report.networks_added += products.networks_added;
    report.layouts_added += products.layouts_added;
    report.failures_recorded += products.failures_recorded;
}

/// Records a worker-process death as a failure_record attributed to the
/// worker itself (combination "(worker)").
cat::failure_record synthesize_worker_failure(const bm::benchmark_entry& entry, const regen_job& job,
                                              const sup::worker_result& result)
{
    cat::failure_record failure{};
    failure.benchmark_set = entry.set;
    failure.benchmark_name = entry.name;
    failure.library = job.library;
    failure.combination = worker_combination;
    failure.kind = res::outcome_kind_name(sup::classify(result));
    failure.message = sup::describe(result);
    if (!result.stderr_tail.empty())
    {
        failure.message += " | stderr: " + result.stderr_tail;
    }
    failure.elapsed_s = result.elapsed_s;
    failure.attempts = 1;
    return failure;
}

}  // namespace

std::vector<regen_job> enumerate_regen_jobs(const std::vector<bm::benchmark_entry>& entries,
                                            const populate_options& options)
{
    std::vector<std::pair<cat::gate_library_kind, pd::portfolio_flavor>> libraries;
    if (options.qca)
    {
        libraries.emplace_back(cat::gate_library_kind::qca_one, pd::portfolio_flavor::cartesian);
    }
    if (options.bestagon)
    {
        libraries.emplace_back(cat::gate_library_kind::bestagon, pd::portfolio_flavor::hexagonal);
    }

    std::vector<regen_job> jobs;
    jobs.reserve(entries.size() * libraries.size());
    for (std::size_t i = 0; i < entries.size(); ++i)
    {
        for (const auto& [library, flavor] : libraries)
        {
            regen_job job{};
            job.entry_index = i;
            job.library = library;
            job.flavor = flavor;
            job.id = entries[i].set + "/" + entries[i].name + "|" + cat::gate_library_name(library);
            jobs.push_back(std::move(job));
        }
    }
    return jobs;
}

std::filesystem::path shard_manifest_path(const std::filesystem::path& store_root, const std::string& job_id)
{
    return store_root / layout_store::shard_dir_name / ("job-" + content_hash(job_id) + ".json");
}

populate_report run_regen_job(const std::filesystem::path& store_root,
                              const std::vector<bm::benchmark_entry>& entries, const std::string& job_id,
                              const populate_options& options)
{
    const auto jobs = enumerate_regen_jobs(entries, options);
    const auto it = std::find_if(jobs.begin(), jobs.end(), [&](const regen_job& j) { return j.id == job_id; });
    if (it == jobs.end())
    {
        throw mnt_error{"populate: unknown regeneration job '" + job_id + "'"};
    }
    const auto& job = *it;
    const auto& entry = entries[job.entry_index];

    // the main store is the read-only cache view; all writes land in the
    // per-job shard manifest (same blob directory — blobs are idempotent)
    layout_store main_store{store_root};
    layout_store shard{store_root, std::filesystem::path{layout_store::shard_dir_name} /
                                       ("job-" + content_hash(job_id) + ".json")};

    std::atomic<std::size_t> skipped{0};
    std::atomic<std::size_t> ran{0};
    const auto products = run_job_into(shard, &main_store, entry, job, options, skipped, ran);
    shard.save();
    sup::heartbeat();

    populate_report report{};
    report.jobs_total = 1;
    report.jobs_run = 1;
    fold(report, products);
    report.cached_combos_skipped = skipped.load();
    report.combos_run = ran.load();
    report.interrupted = products.interrupted;
    return report;
}

populate_report populate_store(layout_store& store, const std::vector<bm::benchmark_entry>& entries,
                               const populate_options& options)
{
    MNT_SPAN("populate/store");
    populate_report report{};
    std::atomic<std::size_t> skipped{0};
    std::atomic<std::size_t> ran{0};

    const auto jobs = enumerate_regen_jobs(entries, options);
    report.jobs_total = jobs.size();

    const bool journaling = options.journal || options.workers > 0 || options.resume;
    const auto journal_path = store.root() / run_journal::default_filename;

    // resume: replay the journal; durable job_done records are skipped
    journal_replay replay{};
    if (options.resume)
    {
        replay = journal_replay::replay(journal_path);
        if (!replay.config.empty() && replay.config != config_fingerprint(options))
        {
            tel::log_event(tel::log_severity::warn, "populate", "resuming under a different configuration",
                           {{"journal", replay.config}, {"current", config_fingerprint(options)}});
        }
        if (replay.malformed_lines > 0)
        {
            tel::log_event(tel::log_severity::warn, "populate", "journal contained malformed records",
                           {{"path", journal_path.string()},
                            {"malformed", std::to_string(replay.malformed_lines)}});
        }
    }

    std::unique_ptr<run_journal> journal;
    if (journaling)
    {
        journal = std::make_unique<run_journal>(journal_path);
        journal->run_start(jobs.size(), config_fingerprint(options));
    }

    // partition the matrix into skip (done on a previous run) and work
    std::vector<const regen_job*> work;
    work.reserve(jobs.size());
    for (const auto& job : jobs)
    {
        if (options.resume && replay.done.count(job.id) != 0)
        {
            ++report.jobs_skipped_resume;
            tel::count("regen.jobs[state=skipped]");
            continue;
        }
        work.push_back(&job);
    }

    const auto finish_job_inline = [&](const regen_job& job, const job_products& products)
    {
        // a successful rerun clears any worker-crash record a previous
        // (crashed) attempt left for this job
        store.remove_failure(entries[job.entry_index].set, entries[job.entry_index].name,
                             cat::gate_library_name(job.library), worker_combination);
        if (journaling)
        {
            // durability ordering: the manifest holding the job's results is
            // fsync'd (store.save) *before* the journal marks the job done —
            // a done record therefore always points at durable results
            store.save();
            journal->job_done(job.id, products.layouts_added, products.failures_recorded,
                              products.completed_marked, products.blob_ids);
        }
        ++report.jobs_run;
        tel::count("regen.jobs[state=done]");
    };

    if (options.workers == 0)
    {
        // ------------------------------------------------- in-process path
        for (const auto* job_ptr : work)
        {
            const auto& job = *job_ptr;
            if (cancelled(options))
            {
                report.interrupted = true;
                break;
            }
            if (journaling)
            {
                journal->job_start(job.id);
            }
            const auto products = run_job_into(store, nullptr, entries[job.entry_index], job, options, skipped, ran);
            fold(report, products);
            if (products.interrupted)
            {
                // partial products are ingested (idempotent), but the job is
                // NOT marked done: resume re-runs it to completion
                report.interrupted = true;
                break;
            }
            finish_job_inline(job, products);
        }
    }
    else
    {
        // ------------------------------------------------ supervised path
        if (options.worker_command.empty())
        {
            throw mnt_error{"populate: workers > 0 requires a worker_command"};
        }

        std::mutex merge_mutex;  // serializes store/journal/report access
        std::deque<const regen_job*> queue{work.begin(), work.end()};

        const auto worker_loop = [&]
        {
            for (;;)
            {
                const regen_job* job_ptr = nullptr;
                {
                    const std::lock_guard<std::mutex> lock{merge_mutex};
                    if (queue.empty() || report.interrupted)
                    {
                        return;
                    }
                    if (cancelled(options))
                    {
                        report.interrupted = true;
                        return;
                    }
                    job_ptr = queue.front();
                    queue.pop_front();
                    if (journaling)
                    {
                        journal->job_start(job_ptr->id);
                    }
                }
                const auto& job = *job_ptr;
                const auto& entry = entries[job.entry_index];

                auto argv = options.worker_command;
                argv.push_back("--worker-job");
                argv.push_back(job.id);

                sup::worker_limits limits{};
                limits.wall_timeout_s = options.worker_wall_timeout_s;
                limits.hang_timeout_s = options.worker_hang_timeout_s;
                limits.cpu_limit_s = options.worker_cpu_limit_s;
                limits.address_space_bytes = options.worker_address_space_bytes;
                limits.cancel = options.cancel.get();

                const auto result = sup::run_worker(argv, limits);

                const std::lock_guard<std::mutex> lock{merge_mutex};
                if (result.ok())
                {
                    const auto shard_path = shard_manifest_path(store.root(), job.id);
                    try
                    {
                        const auto stats = store.merge_manifest_file(shard_path);
                        store.remove_failure(entry.set, entry.name, cat::gate_library_name(job.library),
                                             worker_combination);
                        store.save();
                        if (journaling)
                        {
                            journal->job_done(job.id, stats.layouts, stats.failures, stats.completed,
                                              stats.blob_ids);
                        }
                        std::error_code ec;
                        std::filesystem::remove(shard_path, ec);  // merged: the shard is spent
                        report.networks_added += stats.networks;
                        report.layouts_added += stats.layouts;
                        report.failures_recorded += stats.failures;
                        ++report.jobs_run;
                        tel::count("regen.jobs[state=done]");
                    }
                    catch (const std::exception& e)
                    {
                        // worker claimed success but its shard is unusable:
                        // treat like a crash so resume re-runs the job
                        tel::log_event(tel::log_severity::error, "populate", "shard merge failed",
                                       {{"job", job.id}, {"error", e.what()}});
                        if (journaling)
                        {
                            journal->job_crashed(job.id, "shard_merge_failed", 0, result.exit_code, e.what());
                        }
                        ++report.jobs_crashed;
                        tel::count("regen.jobs[state=crashed]");
                    }
                    continue;
                }

                if (result.reason == sup::kill_reason::cancel)
                {
                    // the watchdog killed the worker because *we* are
                    // shutting down — that is an interrupt, not a crash
                    report.interrupted = true;
                    continue;
                }

                const auto failure = synthesize_worker_failure(entry, job, result);
                store.put_failure(failure);
                ++report.failures_recorded;
                store.save();
                if (journaling)
                {
                    journal->job_crashed(job.id, sup::worker_status_name(result.status), result.signal,
                                         result.exit_code, sup::describe(result));
                }
                ++report.jobs_crashed;
                tel::count("regen.jobs[state=crashed]");
                tel::log_event(tel::log_severity::warn, "populate", "worker job failed",
                               {{"job", job.id},
                                {"status", sup::worker_status_name(result.status)},
                                {"detail", sup::describe(result)}});
            }
        };

        std::vector<std::thread> supervisors;
        const auto n = std::min<std::size_t>(std::max<std::size_t>(options.workers, 1), work.size());
        supervisors.reserve(n);
        for (std::size_t i = 0; i < n; ++i)
        {
            supervisors.emplace_back(worker_loop);
        }
        for (auto& t : supervisors)
        {
            t.join();
        }
        if (cancelled(options))
        {
            report.interrupted = true;
        }
    }

    report.cached_combos_skipped = skipped.load();
    report.combos_run = ran.load();

    if (journaling)
    {
        if (report.interrupted)
        {
            journal->checkpoint("cancelled");
        }
        else
        {
            journal->run_end(report.jobs_run, report.jobs_crashed);
        }
    }
    store.save();

    if (tel::enabled())
    {
        tel::count("populate.runs");
        tel::count("populate.layouts_added", report.layouts_added);
        tel::count("populate.cached_combos_skipped", report.cached_combos_skipped);
        tel::count("populate.combos_run", report.combos_run);
    }
    return report;
}

}  // namespace mnt::svc
