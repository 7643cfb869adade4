#pragma once

/// \file populate.hpp
/// \brief Incremental, crash-contained store population: runs the
///        layout-generation portfolio over benchmark entries and ingests
///        every product into a \ref layout_store — skipping combinations
///        whose results the store already holds. This is the glue between
///        generation (PR 2's resilient portfolio) and serving (the store +
///        query engine): the CLI, the server's --generate mode and the CI
///        smoke job all populate through this one function, so cache
///        semantics are identical everywhere.
///
/// Cache semantics:
///
/// - A combination is skipped when \ref cache_key(set, name, library, combo)
///   is already in the store — either as a stored layout or as a
///   completed-without-layout marker (exact finding no solution, PLO
///   yielding no gain).
/// - ok outcomes are always marked completed, so a second run skips every
///   combination of an already-populated benchmark.
/// - Failed combinations are recorded as failure provenance but NOT cached:
///   a rerun retries them.
///
/// Crash containment and resume (PR 7):
///
/// - The run decomposes into a **job matrix**: one \ref regen_job per
///   benchmark entry × gate library. Each job's results are made durable
///   (store.save(), fsync'd) *before* its `job_done` record lands in the
///   \ref run_journal — so after a kill at any instant, the journal's done
///   set is an underestimate that is always safe to skip on resume.
/// - With \ref populate_options::resume, the journal is replayed and done
///   jobs are skipped; in-flight and crashed jobs re-run. Because blob
///   writes are idempotent and the manifest is saved in canonical order, a
///   resumed run converges on a store byte-identical to an uninterrupted
///   one.
/// - With \ref populate_options::workers > 0, jobs are fork/exec'd into
///   supervised worker processes (see common/supervisor.hpp): a worker that
///   segfaults, hangs or exceeds its rlimits is captured as a synthesized
///   \ref mnt::cat::failure_record (combination \ref worker_combination)
///   while the remaining jobs complete. On a later resume the crashed job
///   re-runs and, if it succeeds, the synthesized record is removed.

#include "benchmarks/suites.hpp"
#include "physical_design/portfolio.hpp"
#include "service/journal.hpp"
#include "service/store.hpp"

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

namespace mnt::svc
{

/// The combination label under which a worker-process death (crash, hang,
/// OOM kill) is recorded as a failure_record: the whole job died, not one
/// specific combination, so the record is attributed to the worker itself.
inline constexpr const char* worker_combination = "(worker)";

/// One cell of the regeneration job matrix: a benchmark entry × gate
/// library, the unit of journaling, supervision and resume.
struct regen_job
{
    /// Index into the entries vector handed to \ref populate_store.
    std::size_t entry_index{0};
    cat::gate_library_kind library{};
    pd::portfolio_flavor flavor{};
    /// Stable job id: `<set>/<name>|<library>` (cache-key prefix).
    std::string id{};
};

/// Configuration of \ref populate_store.
struct populate_options
{
    /// Portfolio configuration (deadline, retries, jobs, tool budgets). The
    /// is_cached hook is overwritten by populate_store; size-class defaults
    /// are applied per entry unless \ref use_entry_size_defaults is off.
    pd::portfolio_params params{};

    /// Apply per-entry size-class tool budgets (the Table I policy: exact
    /// only for tiny functions, NanoPlaceR for small ones, ...) on top of
    /// \ref params.
    bool use_entry_size_defaults{true};

    /// Gate libraries to generate for.
    bool qca{true};
    bool bestagon{true};

    /// Write the append-only run journal (journal.jsonl in the store root)
    /// and save the manifest durably after every job. Off = the pre-PR 7
    /// behavior: one save at the end, no resume capability.
    bool journal{true};

    /// Replay the journal before running: jobs with a durable job_done
    /// record are skipped, in-flight and crashed jobs re-run.
    bool resume{false};

    /// Deterministic output mode for byte-identity verification: zeroes the
    /// wall-clock fields persisted in the manifest (runtime_s, elapsed_s)
    /// and disables exact (whose soft wall-clock timeout makes its result
    /// set timing-dependent). Everything else in the pipeline is already
    /// seed-deterministic.
    bool deterministic{false};

    /// Cooperative cancellation (SIGINT/SIGTERM): once set, the current
    /// job's portfolio unwinds at its next deadline poll, its partial
    /// products are kept (idempotently re-ingested on resume), no job_done
    /// is written for it, and the journal gets a checkpoint record.
    std::shared_ptr<const std::atomic<bool>> cancel{};

    /// Number of supervised worker *processes* to run jobs in (0 = run all
    /// jobs in-process). Each worker is fork/exec'd per job with rlimits, a
    /// heartbeat pipe and a SIGTERM→SIGKILL watchdog; requires
    /// \ref worker_command. Implies \ref journal.
    std::size_t workers{0};

    /// argv prefix used to launch one worker process; populate appends
    /// `--worker-job <id>`. Typically the running executable itself plus
    /// the flags reproducing this configuration (store path, deadline, ...).
    std::vector<std::string> worker_command{};

    /// Supervision limits for each worker process (0 = disabled).
    double worker_wall_timeout_s{0.0};
    double worker_hang_timeout_s{0.0};
    double worker_cpu_limit_s{0.0};
    std::uint64_t worker_address_space_bytes{0};
};

/// What one populate run did.
struct populate_report
{
    std::size_t networks_added{0};
    std::size_t layouts_added{0};
    std::size_t failures_recorded{0};
    /// Combinations skipped because the store already had their result.
    std::size_t cached_combos_skipped{0};
    /// Combinations actually executed.
    std::size_t combos_run{0};

    /// Size of the job matrix for this configuration.
    std::size_t jobs_total{0};
    /// Jobs that actually ran (in-process or in a worker).
    std::size_t jobs_run{0};
    /// Jobs skipped because the journal already marks them done.
    std::size_t jobs_skipped_resume{0};
    /// Jobs whose worker process crashed, hung or failed to spawn.
    std::size_t jobs_crashed{0};
    /// True when the run stopped on the cancellation flag; the journal holds
    /// a checkpoint record and the run is resumable.
    bool interrupted{false};
};

/// Size-class tool budgets, mirroring the Table I policy (exact only on tiny
/// functions, stochastic placement up to small, scalable heuristics beyond):
/// applied per entry by \ref populate_store, and by the CLI's in-memory
/// generation.
void apply_size_defaults(pd::portfolio_params& params, bm::size_class size);

/// The job matrix \ref populate_store will execute for this configuration,
/// in execution order (entries × enabled libraries).
[[nodiscard]] std::vector<regen_job> enumerate_regen_jobs(const std::vector<bm::benchmark_entry>& entries,
                                                          const populate_options& options = {});

/// Runs the portfolio for every entry × enabled library, ingests networks,
/// layouts and failures into \p store and saves the manifest. Combinations
/// already present in the store are skipped (incremental regeneration);
/// journaling, resume, cancellation and process supervision per
/// \ref populate_options.
///
/// \throws mnt::mnt_error when the manifest or journal cannot be written
populate_report populate_store(layout_store& store, const std::vector<bm::benchmark_entry>& entries,
                               const populate_options& options = {});

/// Worker-process entry point: runs the single job \p job_id against the
/// store at \p store_root, writing results into a per-job shard manifest
/// (`shards/job-<hash>.json`) that the supervising parent merges. The main
/// manifest is only ever read here — the parent stays its single writer.
/// Returns the per-job report.
///
/// \throws mnt::mnt_error when \p job_id does not name a job of \p entries
populate_report run_regen_job(const std::filesystem::path& store_root,
                              const std::vector<bm::benchmark_entry>& entries, const std::string& job_id,
                              const populate_options& options = {});

/// Shard-manifest path (relative joins under \p store_root) for \p job_id.
[[nodiscard]] std::filesystem::path shard_manifest_path(const std::filesystem::path& store_root,
                                                        const std::string& job_id);

}  // namespace mnt::svc
