/// \file mnt_bench_serve.cpp
/// \brief The MNT Bench catalog server: generates layouts into a persistent
///        store (incrementally — already-present combinations are skipped),
///        loads the store into the indexed query engine, and serves the
///        website's facet queries plus .fgl downloads over HTTP.
///
/// Usage: `mnt_bench_serve [options]`; `mnt_bench_serve --help` prints every
/// flag, generated from the flag table below.
///
/// Typical session:
///   mnt_bench_serve --store bench_store --generate --set Trindade16   # populate
///   mnt_bench_serve --store bench_store --port 8080                   # serve
///
/// Crash-contained regeneration: --supervise/--shards fork each
/// benchmark × library job into a sandboxed worker process; a SIGKILLed or
/// interrupted run resumes with --resume, replaying the store's journal.
///
/// On startup the server prints one machine-readable line to stdout:
///   serving <N> layouts on http://127.0.0.1:<port>
/// (used by the CI smoke job to discover the ephemeral port).

#include "front_end.hpp"

#include "service/populate.hpp"
#include "service/query.hpp"
#include "service/server.hpp"
#include "service/store.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

namespace
{

using namespace mnt;

struct serve_options : fe::generation_options
{
    bool generate{false};
    bool serve{true};
    std::uint16_t port{0};
    /// Server event-loop threads; the compute pool has its own flag,
    /// --pd-threads.
    std::size_t threads{4};
    /// Keep-alive idle timeout (seconds).
    double idle_timeout_s{15.0};
    /// Open-connection cap across all event loops.
    std::size_t max_connections{1024};
    /// Worker rlimits (0 = off).
    double worker_cpu_s{0.0};
    std::uint64_t worker_mem_mb{0};
    double worker_hang_s{0.0};
};

const std::vector<fe::flag<serve_options>>& serve_flags()
{
    using o = serve_options;
    static const auto table = fe::flag_table<serve_options>({
        {"", "", "server:", false, nullptr},
        {"--generate", "", "populate the store before serving (incremental: present combinations are skipped)",
         false, [](o& x, std::string_view) { x.generate = true; }},
        {"--no-serve", "", "exit after generation / store inspection", false,
         [](o& x, std::string_view) { x.serve = false; }},
        {"--port", "<p>", "TCP port (default 0 = ephemeral; printed on startup)", false,
         [](o& x, std::string_view v) { x.port = static_cast<std::uint16_t>(fe::to_count(v, 65535)); }},
        {"--threads", "<n>", "server event-loop threads (default 4)", false,
         [](o& x, std::string_view v) { x.threads = std::max<std::size_t>(1, fe::to_count(v)); }},
        {"--idle-timeout", "<s>", "close idle keep-alive connections after s seconds (default 15)", false,
         [](o& x, std::string_view v) { x.idle_timeout_s = fe::to_seconds(v); }},
        {"--max-connections", "<n>", "open-connection cap; past it the oldest idle one is shed (default 1024)", false,
         [](o& x, std::string_view v) { x.max_connections = std::max<std::size_t>(1, fe::to_count(v)); }},
        {"--pd-threads", "<n>", "compute threads (0 = auto: MNT_THREADS, else all cores); shard workers: cores/shards",
         false, [](o& x, std::string_view v) { x.compute_threads = fe::to_count(v); }},
        {"--worker-cpu", "<s>", "RLIMIT_CPU seconds per worker process", false,
         [](o& x, std::string_view v) { x.worker_cpu_s = fe::to_seconds(v); }},
        {"--worker-mem", "<mb>", "RLIMIT_AS megabytes per worker process", false,
         [](o& x, std::string_view v)
         { x.worker_mem_mb = fe::to_count(v, std::numeric_limits<std::uint64_t>::max() >> 20); }},
        {"--worker-hang-timeout", "<s>", "kill a worker silent for this long", false,
         [](o& x, std::string_view v) { x.worker_hang_s = fe::to_seconds(v); }},
    });
    return table;
}

std::atomic<bool> reload_requested{false};

void on_reload(const int)
{
    // SIGHUP = "the store changed on disk, pick it up": the serve loop
    // reloads the store and publishes a fresh snapshot without dropping
    // connections
    reload_requested.store(true);
}

/// Store-backed generation; supervised workers re-invoke this binary on the
/// same store without serving, with the worker rlimits.
svc::populate_options populate_options(const serve_options& options)
{
    auto populate = fe::populate_options_for(options, {"--store", *options.store_dir, "--no-serve"}, "--pd-threads");
    populate.worker_cpu_limit_s = options.worker_cpu_s;
    populate.worker_address_space_bytes = options.worker_mem_mb * 1024 * 1024;
    populate.worker_hang_timeout_s = options.worker_hang_s;
    return populate;
}

int print_usage()
{
    std::printf("MNT Bench catalog server (reproduction)\n"
                "usage: mnt_bench_serve [options]   (store root defaults to mnt_bench_store)\n");
    fe::print_flags(serve_flags());
    std::printf("signals: SIGTERM/SIGINT drain and exit; SIGHUP reloads the store and publishes\n"
                "         a fresh serving snapshot without dropping connections\n"
                "endpoints: /healthz /metrics /statz /benchmarks /layouts /facets /best /download/<id>\n"
                "usage errors exit 2\n");
    return 0;
}

int serve(const serve_options& options)
{
    // the server sends with MSG_NOSIGNAL, but ignore SIGPIPE process-wide
    // too so no stray write to a disconnected peer can kill the process
    std::signal(SIGPIPE, SIG_IGN);

    if (options.worker_job.has_value())
    {
        // supervised worker mode: run exactly one job into a shard manifest
        const auto report = svc::run_regen_job(*options.store_dir, fe::selected_entries(options), *options.worker_job,
                                               populate_options(options));
        return report.interrupted ? 1 : 0;
    }

    // store corruption / repair reports flow through the structured event
    // log (echoed to stderr via the warn mirror) instead of ad-hoc prints
    svc::layout_store store{*options.store_dir};

    if (options.generate)
    {
        const auto report = svc::populate_store(store, fe::selected_entries(options), populate_options(options));
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
            // the journal is checkpointed; exit with the conventional
            // 128+signal status after the sinks are flushed
            return 128 + fe::interrupt_signal.load();
        }
    }

    if (!options.serve)
    {
        const auto snapshot = store.load();
        std::printf("store %s: %zu networks, %zu layouts, %zu failures\n", options.store_dir->c_str(),
                    snapshot.catalog.num_networks(), snapshot.catalog.num_layouts(),
                    snapshot.catalog.num_failures());
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

    std::signal(SIGHUP, on_reload);
    while (!fe::interrupted.load())
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
    return 0;
}

int run(const int argc, const char** argv)
{
    serve_options options{};
    if (!fe::parse(argc, argv, 1, serve_flags(), options))
    {
        return print_usage();
    }
    options.store_dir = options.store_dir.value_or("mnt_bench_store");
    options.generate = options.generate || options.resume;
    // regeneration must be interruptible from the very first job: the
    // handlers set a flag that the portfolio observes cooperatively, the
    // journal records a checkpoint, and the run exits resumable
    fe::start(options);
    const auto code = serve(options);
    fe::flush_sinks(options);
    return code;
}

}  // namespace

int main(const int argc, const char** argv)
{
    return fe::guarded_main("mnt_bench_serve", [&] { return run(argc, argv); });
}
