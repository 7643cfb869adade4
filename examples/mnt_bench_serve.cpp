/// \file mnt_bench_serve.cpp
/// \brief The MNT Bench catalog server: generates layouts into a persistent
///        store (incrementally — already-present combinations are skipped),
///        loads the store into the indexed query engine, and serves the
///        website's facet queries plus .fgl downloads over HTTP.
///
/// Usage:
///   mnt_bench_serve [--store <dir>] [--generate] [--set <name>] [--name <fn>]
///                   [--family <name>] [--family-count <n>] [--family-seed <s>]
///                   [--port <p>] [--threads <n>] [--jobs <n>] [--pd-threads <n>]
///                   [--deadline <s>] [--retries <n>] [--no-serve]
///                   [--report <file.json>] [--verbose-telemetry]
///                   [--trace-out <file.json>] [--event-log <file.jsonl>]
///                   [--resume] [--supervise] [--shards <n>] [--deterministic]
///                   [--idle-timeout <s>] [--max-connections <n>]
///
/// Typical session:
///   mnt_bench_serve --store bench_store --generate --set Trindade16   # populate
///   mnt_bench_serve --store bench_store --port 8080                   # serve
///
/// Crash-contained regeneration (PR 7): --supervise/--shards fork each
/// benchmark × library job into a sandboxed worker process; a SIGKILLed or
/// interrupted run resumes with --resume, replaying the store's journal.
///
/// On startup the server prints one machine-readable line to stdout:
///   serving <N> layouts on http://127.0.0.1:<port>
/// (used by the CI smoke job to discover the ephemeral port).

#include "benchmarks/families.hpp"
#include "benchmarks/suites.hpp"
#include "common/supervisor.hpp"
#include "common/taskrt/taskrt.hpp"
#include "service/populate.hpp"
#include "service/query.hpp"
#include "service/server.hpp"
#include "service/store.hpp"
#include "telemetry/eventlog.hpp"
#include "telemetry/report.hpp"
#include "telemetry/telemetry.hpp"
#include "telemetry/trace_export.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

namespace
{

using namespace mnt;

struct serve_options
{
    std::string store_dir{"mnt_bench_store"};
    bool generate{false};
    bool serve{true};
    std::optional<std::string> set;
    std::optional<std::string> name;
    std::uint16_t port{0};
    std::size_t threads{4};
    std::size_t jobs{1};
    /// Keep-alive idle timeout (seconds).
    double idle_timeout_s{15.0};
    /// Open-connection cap across all event loops.
    std::size_t max_connections{1024};
    /// Physical-design task-runtime threads (0 = auto). --threads here means
    /// *server* worker threads, so the compute pool gets its own flag:
    /// --pd-threads > MNT_THREADS > hardware concurrency.
    std::optional<std::size_t> pd_threads;
    double deadline_s{0.0};
    std::optional<std::size_t> max_attempts;
    std::optional<std::string> report_path;
    std::optional<std::string> trace_path;
    std::optional<std::string> event_log_path;
    bool verbose_telemetry{false};
    bool help{false};

    /// Resume a killed/interrupted regeneration from the store's journal.
    bool resume{false};
    /// Run generation jobs in supervised worker processes.
    bool supervise{false};
    /// Number of concurrent supervised workers (implies --supervise).
    std::size_t shards{1};
    /// Deterministic output mode (zeroed wall-clock fields, no exact).
    bool deterministic{false};
    /// Worker rlimits (0 = off).
    double worker_cpu_s{0.0};
    std::uint64_t worker_mem_mb{0};
    double worker_hang_s{0.0};
    /// Hidden: run exactly one regeneration job and exit (worker mode).
    std::optional<std::string> worker_job;

    /// Synthetic family selection (reference family name + overrides);
    /// --generate then populates the family instead of the curated sets.
    std::optional<std::string> family;
    std::optional<std::size_t> family_count;
    std::optional<std::string> family_seed;
};

serve_options parse_args(const int argc, const char** argv)
{
    serve_options options{};
    for (int i = 1; i < argc; ++i)
    {
        const std::string arg = argv[i];
        const auto next = [&]() -> std::string
        { return i + 1 < argc ? argv[++i] : std::string{}; };
        if (arg == "--store")
        {
            options.store_dir = next();
        }
        else if (arg == "--generate")
        {
            options.generate = true;
        }
        else if (arg == "--no-serve")
        {
            options.serve = false;
        }
        else if (arg == "--set")
        {
            options.set = next();
        }
        else if (arg == "--name")
        {
            options.name = next();
        }
        else if (arg == "--port")
        {
            options.port = static_cast<std::uint16_t>(std::stoul(next()));
        }
        else if (arg == "--threads")
        {
            options.threads = std::max<std::size_t>(1, std::stoul(next()));
        }
        else if (arg == "--jobs")
        {
            options.jobs = std::max<std::size_t>(1, std::stoul(next()));
        }
        else if (arg == "--idle-timeout")
        {
            options.idle_timeout_s = std::stod(next());
        }
        else if (arg == "--max-connections")
        {
            options.max_connections = std::max<std::size_t>(1, std::stoul(next()));
        }
        else if (arg == "--pd-threads")
        {
            options.pd_threads = std::stoul(next());
        }
        else if (arg == "--deadline")
        {
            options.deadline_s = std::stod(next());
        }
        else if (arg == "--retries")
        {
            options.max_attempts = static_cast<std::size_t>(std::stoul(next())) + 1;
        }
        else if (arg == "--report")
        {
            options.report_path = next();
        }
        else if (arg == "--verbose-telemetry")
        {
            options.verbose_telemetry = true;
        }
        else if (arg == "--trace-out")
        {
            options.trace_path = next();
        }
        else if (arg == "--event-log")
        {
            options.event_log_path = next();
        }
        else if (arg == "--resume")
        {
            options.resume = true;
            options.generate = true;
        }
        else if (arg == "--supervise")
        {
            options.supervise = true;
        }
        else if (arg == "--shards")
        {
            options.shards = std::max<std::size_t>(1, std::stoul(next()));
            options.supervise = true;
        }
        else if (arg == "--deterministic")
        {
            options.deterministic = true;
        }
        else if (arg == "--worker-cpu")
        {
            options.worker_cpu_s = std::stod(next());
        }
        else if (arg == "--worker-mem")
        {
            options.worker_mem_mb = std::stoull(next());
        }
        else if (arg == "--worker-hang-timeout")
        {
            options.worker_hang_s = std::stod(next());
        }
        else if (arg == "--worker-job")
        {
            options.worker_job = next();
        }
        else if (arg == "--family")
        {
            options.family = next();
        }
        else if (arg == "--family-count")
        {
            options.family_count = std::stoul(next());
        }
        else if (arg == "--family-seed")
        {
            options.family_seed = next();
        }
        else if (arg == "--help" || arg == "-h")
        {
            options.help = true;
        }
        else
        {
            std::fprintf(stderr, "unknown argument '%s'\n", arg.c_str());
            options.help = true;
        }
    }
    return options;
}

/// Resolves --family/--family-count/--family-seed into a concrete spec.
///
/// \throws mnt::mnt_error on an unknown family name
std::optional<bm::family_spec> family_for(const serve_options& options)
{
    if (!options.family.has_value())
    {
        return std::nullopt;
    }
    auto spec = bm::find_reference_family(*options.family);
    if (!spec.has_value())
    {
        throw mnt_error{"unknown family '" + *options.family + "' (known: aoi, xor, maj)"};
    }
    if (options.family_count.has_value())
    {
        spec->count = *options.family_count;
    }
    if (options.family_seed.has_value())
    {
        spec->seed = std::stoull(*options.family_seed, nullptr, 0);
    }
    return spec;
}

std::vector<bm::benchmark_entry> selected_entries(const serve_options& options)
{
    // family mode: generation targets the synthetic family's functions
    // instead of the curated sets (--name still narrows to one function)
    if (const auto family = family_for(options); family.has_value())
    {
        auto entries = bm::family_entries(*family);
        if (options.name.has_value())
        {
            std::erase_if(entries, [&](const bm::benchmark_entry& e) { return e.name != *options.name; });
        }
        return entries;
    }

    std::vector<bm::benchmark_entry> selection;
    for (const auto& entry : bm::all_suites())
    {
        if (options.set.has_value() && entry.set != *options.set)
        {
            continue;
        }
        if (options.name.has_value() && entry.name != *options.name)
        {
            continue;
        }
        // interactive default: skip the big sets unless explicitly requested
        if (!options.set.has_value() && (entry.set == "ISCAS85" || entry.set == "EPFL"))
        {
            continue;
        }
        selection.push_back(entry);
    }
    return selection;
}

std::atomic<bool> interrupted{false};
std::atomic<int> interrupt_signal{0};
std::atomic<bool> reload_requested{false};

void on_signal(const int sig)
{
    // async-signal-safe: only set flags; generation observes the flag via
    // portfolio_params::stop and checkpoints the journal on the normal path
    interrupt_signal.store(sig);
    interrupted.store(true);
}

void on_reload(const int)
{
    // SIGHUP = "the store changed on disk, pick it up": the serve loop
    // reloads the store and publishes a fresh snapshot without dropping
    // connections
    reload_requested.store(true);
}

/// Non-owning view of the global interrupt flag for populate/portfolio.
std::shared_ptr<const std::atomic<bool>> interrupt_flag()
{
    return {&interrupted, [](const std::atomic<bool>*) {}};
}

void write_telemetry(const serve_options& options)
{
    if (!options.report_path.has_value() && !options.verbose_telemetry)
    {
        return;
    }
    const auto report = tel::capture_report();
    if (options.report_path.has_value())
    {
        tel::write_report_json_file(report, *options.report_path);
        std::fprintf(stderr, "wrote telemetry report %s\n", options.report_path->c_str());
    }
    if (options.verbose_telemetry)
    {
        tel::write_report_text(report, std::cerr);
    }
}

/// Emits the Chrome trace requested via --trace-out (or MNT_TRACE_OUT).
void write_trace(const serve_options& options)
{
    if (options.trace_path.has_value())
    {
        tel::write_chrome_trace_file(*options.trace_path);
        std::fprintf(stderr, "wrote trace %s\n", options.trace_path->c_str());
        return;
    }
    if (const auto path = tel::export_trace_if_requested(); !path.empty())
    {
        std::fprintf(stderr, "wrote trace %s\n", path.c_str());
    }
}

svc::populate_options build_populate_options(const serve_options& options)
{
    svc::populate_options populate{};
    populate.params.deadline_s = options.deadline_s;
    populate.params.jobs = options.jobs;
    if (options.max_attempts.has_value())
    {
        populate.params.max_attempts = *options.max_attempts;
    }
    populate.resume = options.resume;
    populate.deterministic = options.deterministic;
    populate.cancel = interrupt_flag();
    return populate;
}

/// argv prefix that re-invokes this very binary as a one-job worker; the
/// populate layer appends `--worker-job <id>`.
std::vector<std::string> worker_command(const serve_options& options)
{
    std::vector<std::string> argv{sup::self_executable(), "--store", options.store_dir, "--no-serve"};
    if (options.set.has_value())
    {
        argv.insert(argv.end(), {"--set", *options.set});
    }
    if (options.name.has_value())
    {
        argv.insert(argv.end(), {"--name", *options.name});
    }
    // workers must rebuild the exact same entry list, so the family
    // selection travels with them
    if (options.family.has_value())
    {
        argv.insert(argv.end(), {"--family", *options.family});
        if (options.family_count.has_value())
        {
            argv.insert(argv.end(), {"--family-count", std::to_string(*options.family_count)});
        }
        if (options.family_seed.has_value())
        {
            argv.insert(argv.end(), {"--family-seed", *options.family_seed});
        }
    }
    if (options.deadline_s > 0.0)
    {
        argv.insert(argv.end(), {"--deadline", std::to_string(options.deadline_s)});
    }
    if (options.max_attempts.has_value())
    {
        argv.insert(argv.end(), {"--retries", std::to_string(*options.max_attempts - 1)});
    }
    if (options.jobs > 1)
    {
        argv.insert(argv.end(), {"--jobs", std::to_string(options.jobs)});
    }
    // fair-share compute threads per shard worker (cores/shards, min 1)
    // unless the user pinned an explicit count
    const auto worker_threads =
        options.pd_threads.has_value()
            ? *options.pd_threads
            : std::max<std::size_t>(1, trt::resolve_auto_threads() / std::max<std::size_t>(1, options.shards));
    argv.insert(argv.end(), {"--pd-threads", std::to_string(worker_threads)});
    if (options.deterministic)
    {
        argv.push_back("--deterministic");
    }
    return argv;
}

int run(const serve_options& options)
{
    // regeneration must be interruptible from the very first job: the
    // handlers set a flag that the portfolio observes cooperatively, the
    // journal records a checkpoint, and the run exits resumable
    std::signal(SIGPIPE, SIG_IGN);
    std::signal(SIGINT, on_signal);
    std::signal(SIGTERM, on_signal);

    if (options.worker_job.has_value())
    {
        // supervised worker mode: run exactly one job into a shard manifest
        const auto report =
            svc::run_regen_job(options.store_dir, selected_entries(options), *options.worker_job,
                               build_populate_options(options));
        return report.interrupted ? 1 : 0;
    }

    // store corruption / repair reports flow through the structured event
    // log (echoed to stderr via the warn mirror) instead of ad-hoc prints
    svc::layout_store store{options.store_dir};

    if (options.generate)
    {
        auto populate = build_populate_options(options);
        if (options.supervise)
        {
            populate.workers = options.shards;
            populate.worker_command = worker_command(options);
            populate.worker_cpu_limit_s = options.worker_cpu_s;
            populate.worker_address_space_bytes = options.worker_mem_mb * 1024 * 1024;
            populate.worker_hang_timeout_s = options.worker_hang_s;
        }
        const auto report = svc::populate_store(store, selected_entries(options), populate);
        std::printf("generated: %zu layouts added, %zu failures, %zu combos run, %zu cached combos skipped\n",
                    report.layouts_added, report.failures_recorded, report.combos_run,
                    report.cached_combos_skipped);
        if (report.jobs_total > 0)
        {
            std::printf("jobs: %zu total, %zu run, %zu resumed-skip, %zu crashed%s\n", report.jobs_total,
                        report.jobs_run, report.jobs_skipped_resume, report.jobs_crashed,
                        report.interrupted ? ", interrupted (resume with --resume)" : "");
        }
        std::fflush(stdout);
        if (report.interrupted)
        {
            // journal is checkpointed; flush observability sinks and exit
            // with the conventional 128+signal status
            write_telemetry(options);
            write_trace(options);
            tel::event_log::instance().flush();
            return 128 + interrupt_signal.load();
        }
    }

    if (!options.serve)
    {
        const auto snapshot = store.load();
        std::printf("store %s: %zu networks, %zu layouts, %zu failures\n", options.store_dir.c_str(),
                    snapshot.catalog.num_networks(), snapshot.catalog.num_layouts(),
                    snapshot.catalog.num_failures());
        write_telemetry(options);
        write_trace(options);
        return 0;
    }

    // the engine indexes (and references) its store snapshot, so the two
    // travel as one shared bundle; catalog_snapshot's engine shared_ptr
    // aliases the bundle, keeping the catalog alive for as long as any
    // in-flight request still reads it — which is what makes SIGHUP reloads
    // safe while serving
    struct engine_bundle
    {
        svc::store_snapshot snapshot;
        std::unique_ptr<svc::query_engine> engine;
    };
    const auto load_engine = [&store]
    {
        auto bundle = std::make_shared<engine_bundle>();
        bundle->snapshot = store.load();
        bundle->engine =
            std::make_unique<svc::query_engine>(bundle->snapshot.catalog, bundle->snapshot.layout_ids);
        return std::shared_ptr<const svc::query_engine>{bundle, bundle->engine.get()};
    };

    auto engine = load_engine();
    const auto num_layouts = engine->catalog().num_layouts();
    svc::server_options server_options{};
    server_options.port = options.port;
    server_options.threads = options.threads;
    server_options.idle_timeout_s = options.idle_timeout_s;
    server_options.max_connections = options.max_connections;
    svc::catalog_server server{std::move(engine), server_options};
    server.attach_store(&store);
    server.start();

    std::printf("serving %zu layouts on http://127.0.0.1:%u\n", num_layouts,
                static_cast<unsigned>(server.port()));
    std::fflush(stdout);

    // the server sends with MSG_NOSIGNAL, but ignore SIGPIPE process-wide
    // too so no stray write to a disconnected peer can kill the process
    std::signal(SIGPIPE, SIG_IGN);
    std::signal(SIGINT, on_signal);
    std::signal(SIGTERM, on_signal);
    std::signal(SIGHUP, on_reload);
    while (!interrupted.load())
    {
        if (reload_requested.exchange(false))
        {
            auto reloaded = load_engine();
            std::fprintf(stderr, "reloading store: %zu layouts\n", reloaded->catalog().num_layouts());
            server.publish(std::move(reloaded));
        }
        std::this_thread::sleep_for(std::chrono::milliseconds{100});
    }
    std::fprintf(stderr, "shutting down ...\n");
    server.stop();
    write_telemetry(options);
    write_trace(options);
    return 0;
}

}  // namespace

int main(const int argc, const char** argv)
{
    const auto options = parse_args(argc, argv);
    if (options.pd_threads.has_value())
    {
        trt::set_thread_count(*options.pd_threads);
    }
    if (options.help)
    {
        std::printf("MNT Bench catalog server (reproduction)\n"
                    "usage: mnt_bench_serve [options]\n"
                    "  --store <dir>          store root (default mnt_bench_store)\n"
                    "  --generate             populate the store before serving (incremental:\n"
                    "                         already-present combinations are skipped)\n"
                    "  --set <name>           restrict generation to one benchmark set\n"
                    "  --name <fn>            restrict generation to one function\n"
                    "  --family <name>        generate a synthetic benchmark family instead of the\n"
                    "                         curated sets (reference families: aoi, xor, maj)\n"
                    "  --family-count <n>     number of functions to expand the family to\n"
                    "  --family-seed <seed>   override the family seed (decimal or 0x-hex)\n"
                    "  --port <p>             TCP port (default 0 = ephemeral; printed on startup)\n"
                    "  --threads <n>          server event-loop threads (default 4)\n"
                    "  --idle-timeout <s>     close idle keep-alive connections after s seconds (default 15)\n"
                    "  --max-connections <n>  open-connection cap; past it the oldest idle\n"
                    "                         keep-alive connection is shed (default 1024)\n"
                    "  --jobs <n>             n > 1 runs portfolio combinations as compute-runtime tasks;\n"
                    "                         they overlap only when that runtime has >1 thread (default 1)\n"
                    "  --pd-threads <n>       physical-design compute threads, 0 = auto\n"
                    "                         (precedence --pd-threads > MNT_THREADS > hardware)\n"
                    "  --deadline <seconds>   wall-clock budget per portfolio run\n"
                    "  --retries <n>          retries per combination for transient failures\n"
                    "  --no-serve             exit after generation / store inspection\n"
                    "  --report <file.json>   write a JSON telemetry run report on exit\n"
                    "  --verbose-telemetry    print the run report as text to stderr\n"
                    "  --trace-out <file>     write a Chrome/Perfetto trace on exit (or MNT_TRACE_OUT)\n"
                    "  --event-log <file>     append the structured JSONL event log (or MNT_EVENT_LOG)\n"
                    "  --resume               resume a killed regeneration from the store's journal\n"
                    "  --supervise            run each generation job in a supervised worker process\n"
                    "  --shards <n>           concurrent supervised workers (implies --supervise)\n"
                    "  --deterministic        byte-reproducible output (zeroed runtimes, no exact)\n"
                    "  --worker-cpu <s>       RLIMIT_CPU seconds per worker process\n"
                    "  --worker-mem <mb>      RLIMIT_AS megabytes per worker process\n"
                    "  --worker-hang-timeout <s>  kill a worker silent for this long\n"
                    "signals: SIGTERM/SIGINT drain and exit; SIGHUP reloads the store and publishes\n"
                    "         a fresh serving snapshot without dropping connections\n"
                    "endpoints: /healthz /metrics /statz /benchmarks /layouts /facets /best /download/<id>\n");
        return 0;
    }
    if (options.report_path.has_value() || options.verbose_telemetry)
    {
        tel::set_enabled(true);
    }
    if (options.trace_path.has_value())
    {
        tel::set_trace_recording(true);
    }
    if (options.event_log_path.has_value())
    {
        tel::event_log::instance().open_sink(*options.event_log_path);
    }
    tel::event_log::instance().set_stderr_echo(true);
    try
    {
        return run(options);
    }
    catch (const std::exception& e)
    {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
}
