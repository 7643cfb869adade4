/// \file mnt_bench_cli.cpp
/// \brief Command-line counterpart of the MNT Bench website / pip package:
///        lists benchmarks, generates layouts on demand, shows the filter
///        facets, reports the best layout per function, and exports the
///        benchmark files.
///
/// Usage:
///   mnt_bench_cli list
///   mnt_bench_cli facets  [--set <name>]
///   mnt_bench_cli best    --set <name> --name <function> [--library <qca|bestagon>]
///   mnt_bench_cli render  --set <name> --name <function> [--library <qca|bestagon>]
///   mnt_bench_cli export  --dir <path> [--set <name>] [--best-only] [--cell-level] [--json]
///   mnt_bench_cli families [--family <name>] [--family-count <n>] [--family-manifest <file>]
///
/// Layout generation runs the same size-budgeted portfolio as the Table I
/// benches; only the small sets are generated by default to keep runtimes
/// interactive (pass --set ISCAS85 / EPFL explicitly for the big ones).

#include "benchmarks/families.hpp"
#include "benchmarks/suites.hpp"
#include "common/supervisor.hpp"
#include "common/taskrt/taskrt.hpp"
#include "core/best_selection.hpp"
#include "core/catalog.hpp"
#include "core/export.hpp"
#include "core/filters.hpp"
#include "core/json_export.hpp"
#include "io/ascii_printer.hpp"
#include "physical_design/portfolio.hpp"
#include "service/hash.hpp"
#include "service/populate.hpp"
#include "service/store.hpp"
#include "telemetry/eventlog.hpp"
#include "telemetry/report.hpp"
#include "telemetry/telemetry.hpp"
#include "telemetry/trace_export.hpp"

#include <algorithm>
#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace
{

using namespace mnt;

struct cli_options
{
    std::string command;
    std::optional<std::string> set;
    std::optional<std::string> name;
    std::optional<std::string> library;
    std::string directory{"mnt_bench_files"};
    std::optional<std::string> report_path;
    std::optional<std::string> trace_path;
    bool best_only{false};
    bool cell_level{false};
    bool json{false};
    bool verbose_telemetry{false};
    /// Global wall-clock budget per portfolio run (0 = unbounded).
    double deadline_s{0.0};
    /// Attempts per combination (retries of transient failures).
    std::optional<std::size_t> max_attempts;
    /// Above 1, portfolio combinations run as task-runtime tasks (see
    /// pd::portfolio_params::jobs).
    std::size_t jobs{1};
    /// Task-runtime compute threads (0 = auto). Precedence:
    /// --threads > MNT_THREADS > hardware concurrency.
    std::optional<std::size_t> threads;

    /// Route generation through a persistent store (journaled, resumable).
    std::optional<std::string> store_dir;
    std::optional<std::string> event_log_path;
    bool resume{false};
    bool supervise{false};
    std::size_t shards{1};
    bool deterministic{false};
    /// Hidden: run exactly one regeneration job and exit (worker mode).
    std::optional<std::string> worker_job;

    /// Synthetic family selection: reference family name (aoi, xor, maj)
    /// plus optional count/seed overrides. When set, the generating commands
    /// operate on the family's functions instead of the curated sets.
    std::optional<std::string> family;
    std::optional<std::size_t> family_count;
    std::optional<std::string> family_seed;
    /// `families` command: write the family manifest to this path.
    std::optional<std::string> family_manifest_path;
};

cli_options parse_args(const int argc, const char** argv)
{
    cli_options options{};
    if (argc < 2)
    {
        return options;
    }
    options.command = argv[1];
    for (int i = 2; i < argc; ++i)
    {
        const std::string arg = argv[i];
        const auto next = [&]() -> std::string
        { return i + 1 < argc ? argv[++i] : std::string{}; };
        if (arg == "--set")
        {
            options.set = next();
        }
        else if (arg == "--name")
        {
            options.name = next();
        }
        else if (arg == "--library")
        {
            options.library = next();
        }
        else if (arg == "--dir")
        {
            options.directory = next();
        }
        else if (arg == "--best-only")
        {
            options.best_only = true;
        }
        else if (arg == "--cell-level")
        {
            options.cell_level = true;
        }
        else if (arg == "--json")
        {
            options.json = true;
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
        else if (arg == "--deadline")
        {
            options.deadline_s = std::stod(next());
        }
        else if (arg == "--retries")
        {
            options.max_attempts = static_cast<std::size_t>(std::stoul(next())) + 1;
        }
        else if (arg == "--jobs")
        {
            options.jobs = std::max<std::size_t>(1, std::stoul(next()));
        }
        else if (arg == "--threads")
        {
            options.threads = std::stoul(next());
        }
        else if (arg == "--store")
        {
            options.store_dir = next();
        }
        else if (arg == "--event-log")
        {
            options.event_log_path = next();
        }
        else if (arg == "--resume")
        {
            options.resume = true;
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
        else if (arg == "--family-manifest")
        {
            options.family_manifest_path = next();
        }
        else
        {
            std::fprintf(stderr, "unknown argument '%s'\n", arg.c_str());
        }
    }
    return options;
}

/// Resolves --family/--family-count/--family-seed into a concrete spec.
///
/// \throws mnt::mnt_error on an unknown family name
std::optional<bm::family_spec> family_for(const cli_options& options)
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

std::vector<bm::benchmark_entry> selected_entries(const cli_options& options)
{
    // family mode: the generating commands operate on the family's functions
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

void on_signal(const int sig)
{
    // async-signal-safe: set flags only; the portfolio observes the flag at
    // its next deadline poll and the normal return path flushes every sink
    interrupt_signal.store(sig);
    interrupted.store(true);
}

std::shared_ptr<const std::atomic<bool>> interrupt_flag()
{
    return {&interrupted, [](const std::atomic<bool>*) {}};
}

svc::populate_options build_populate_options(const cli_options& options)
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
    if (options.supervise)
    {
        populate.workers = options.shards;
        std::vector<std::string> argv{sup::self_executable(), "generate", "--store", *options.store_dir};
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
        // each shard is a full process: unless the user pinned a count, give
        // every worker its fair share of the machine (cores/shards, min 1)
        // instead of letting N shards each auto-detect all cores
        const auto worker_threads =
            options.threads.has_value()
                ? *options.threads
                : std::max<std::size_t>(1, trt::resolve_auto_threads() / std::max<std::size_t>(1, options.shards));
        argv.insert(argv.end(), {"--threads", std::to_string(worker_threads)});
        if (options.deterministic)
        {
            argv.push_back("--deterministic");
        }
        populate.worker_command = std::move(argv);
    }
    return populate;
}

/// `generate --store <dir>`: journaled, resumable, optionally supervised
/// store regeneration — the CLI face of the PR 7 crash-containment pipeline.
int run_generate(const cli_options& options)
{
    if (!options.store_dir.has_value())
    {
        std::fprintf(stderr, "generate: --store <dir> is required\n");
        return 1;
    }
    const auto entries = selected_entries(options);
    if (options.worker_job.has_value())
    {
        const auto report =
            svc::run_regen_job(*options.store_dir, entries, *options.worker_job, build_populate_options(options));
        return report.interrupted ? 1 : 0;
    }
    svc::layout_store store{*options.store_dir};
    const auto report = svc::populate_store(store, entries, build_populate_options(options));
    std::printf("generated: %zu layouts added, %zu failures, %zu combos run, %zu cached combos skipped\n",
                report.layouts_added, report.failures_recorded, report.combos_run, report.cached_combos_skipped);
    std::printf("jobs: %zu total, %zu run, %zu resumed-skip, %zu crashed%s\n", report.jobs_total, report.jobs_run,
                report.jobs_skipped_resume, report.jobs_crashed,
                report.interrupted ? ", interrupted (resume with --resume)" : "");
    if (!report.interrupted)
    {
        std::printf("serve it:  mnt_bench_serve --store %s --port 8080\n", options.store_dir->c_str());
        std::printf("(a SIGHUP to a running server re-reads the store after further generation)\n");
    }
    std::fflush(stdout);
    return report.interrupted ? 128 + interrupt_signal.load() : 0;
}

/// Builds the catalog for the browse commands. With --store, generation is
/// routed through the persistent store (incremental + journaled) and the
/// catalog is its loaded snapshot; without, it is generated in memory.
cat::catalog generate(const std::vector<bm::benchmark_entry>& entries, const cli_options& options)
{
    if (options.store_dir.has_value())
    {
        svc::layout_store store{*options.store_dir};
        svc::populate_store(store, entries, build_populate_options(options));
        return std::move(store.load().catalog);
    }
    cat::catalog catalog;
    for (const auto& entry : entries)
    {
        std::fprintf(stderr, "generating %s/%s ...\n", entry.set.c_str(), entry.name.c_str());
        const auto network = entry.build();
        catalog.add_network(entry.set, entry.name, network);
        pd::portfolio_params params{};
        svc::apply_size_defaults(params, entry.size);
        params.deadline_s = options.deadline_s;
        params.jobs = options.jobs;
        params.stop = interrupt_flag();
        if (options.max_attempts.has_value())
        {
            params.max_attempts = *options.max_attempts;
        }
        for (const auto library : {cat::gate_library_kind::qca_one, cat::gate_library_kind::bestagon})
        {
            const auto run = pd::generate_portfolio(network,
                                                    library == cat::gate_library_kind::qca_one ?
                                                        pd::portfolio_flavor::cartesian :
                                                        pd::portfolio_flavor::hexagonal,
                                                    params);
            for (const auto& r : run.results)
            {
                cat::layout_record record{};
                record.benchmark_set = entry.set;
                record.benchmark_name = entry.name;
                record.library = library;
                record.clocking = r.clocking;
                record.algorithm = r.algorithm;
                record.optimizations = r.optimizations;
                record.runtime = r.runtime;
                record.layout = r.layout;
                catalog.add_layout(std::move(record));
            }
            for (const auto& o : run.outcomes)
            {
                if (o.is_ok())
                {
                    continue;
                }
                cat::failure_record failure{};
                failure.benchmark_set = entry.set;
                failure.benchmark_name = entry.name;
                failure.library = library;
                failure.combination = o.label;
                failure.kind = res::outcome_kind_name(o.kind);
                failure.message = o.message;
                failure.elapsed_s = o.elapsed_s;
                failure.attempts = o.attempts;
                catalog.add_failure(std::move(failure));
            }
        }
    }
    if (catalog.num_failures() > 0)
    {
        std::fprintf(stderr, "%zu combination(s) failed:\n", catalog.num_failures());
        for (const auto& f : catalog.failures())
        {
            std::fprintf(stderr, "  %s/%s [%s] %s: %s — %.100s\n", f.benchmark_set.c_str(),
                         f.benchmark_name.c_str(), cat::gate_library_name(f.library).c_str(),
                         f.combination.c_str(), f.kind.c_str(), f.message.c_str());
        }
    }
    return catalog;
}

/// `families`: lists the reference families, or — with --family — resolves
/// one (count/seed overridable), prints its id and canonical manifest hash,
/// and optionally writes the manifest document (--family-manifest <file>).
int run_families(const cli_options& options)
{
    if (!options.family.has_value())
    {
        std::printf("%-8s %-34s %-12s %8s\n", "Name", "Family id", "Set", "Count");
        for (const auto& spec : bm::reference_families())
        {
            std::printf("%-8s %-34s %-12s %8zu\n", spec.name.c_str(), bm::family_id(spec).c_str(),
                        bm::family_set_name(spec).c_str(), spec.count);
        }
        std::printf("\nresolve one:  mnt_bench_cli families --family aoi [--family-count <n>] [--family-seed <s>]\n");
        return 0;
    }
    const auto spec = *family_for(options);
    std::printf("family:         %s (%zu functions, seed 0x%016llx)\n", spec.name.c_str(), spec.count,
                static_cast<unsigned long long>(spec.seed));
    std::printf("set:            %s\n", bm::family_set_name(spec).c_str());
    std::printf("family id:      %s\n", bm::family_id(spec).c_str());
    const auto bytes = bm::family_manifest_bytes(spec);
    std::printf("manifest hash:  %s\n", svc::content_hash(bytes).c_str());
    if (options.family_manifest_path.has_value())
    {
        svc::write_file_atomic(*options.family_manifest_path, bytes);
        std::printf("wrote manifest %s (%zu bytes)\n", options.family_manifest_path->c_str(), bytes.size());
    }
    std::printf("generate+serve: mnt_bench_cli generate --store <dir> --family %s --family-count %zu\n",
                spec.name.c_str(), spec.count);
    std::fflush(stdout);
    return 0;
}

int run_list(const cli_options& options)
{
    std::printf("%-12s %-16s %6s %6s %8s\n", "Set", "Name", "I", "O", "N");
    for (const auto& entry : bm::all_suites())
    {
        if (options.set.has_value() && entry.set != *options.set)
        {
            continue;
        }
        const auto network = entry.build();
        std::printf("%-12s %-16s %6zu %6zu %8zu\n", entry.set.c_str(), entry.name.c_str(), network.num_pis(),
                    network.num_pos(), network.num_gates());
    }
    return 0;
}

int run_facets(const cli_options& options)
{
    const auto catalog = generate(selected_entries(options), options);
    const auto facets = cat::compute_facets(catalog);
    const auto print_facet = [](const char* title, const std::map<std::string, std::size_t>& histogram)
    {
        std::printf("%s:\n", title);
        for (const auto& [name, count] : histogram)
        {
            std::printf("  %-24s %zu\n", name.c_str(), count);
        }
    };
    std::printf("networks: %zu, layouts: %zu\n\n", catalog.num_networks(), catalog.num_layouts());
    print_facet("Gate library", facets.per_library);
    print_facet("Clocking scheme", facets.per_clocking);
    print_facet("Physical design algorithm", facets.per_algorithm);
    print_facet("Optimization algorithm", facets.per_optimization);
    return 0;
}

int run_best(const cli_options& options)
{
    if (!options.set.has_value() || !options.name.has_value())
    {
        std::fprintf(stderr, "best: --set and --name are required\n");
        return 1;
    }
    const auto entries = selected_entries(options);
    if (entries.empty())
    {
        std::fprintf(stderr, "best: no benchmark named %s/%s\n", options.set->c_str(), options.name->c_str());
        return 1;
    }
    const auto catalog = generate(entries, options);
    const auto libraries = options.library.has_value() ?
                               std::vector<cat::gate_library_kind>{cat::gate_library_from_name(*options.library)} :
                               std::vector<cat::gate_library_kind>{cat::gate_library_kind::qca_one,
                                                                   cat::gate_library_kind::bestagon};
    for (const auto library : libraries)
    {
        const auto entry = cat::select_best(catalog, *options.set, *options.name, library);
        if (entry.best == nullptr)
        {
            std::printf("%s: no layout\n", cat::gate_library_name(library).c_str());
            continue;
        }
        std::printf("%s: %u x %u = %lu tiles via '%s' on %s", cat::gate_library_name(library).c_str(),
                    entry.best->width, entry.best->height, static_cast<unsigned long>(entry.best->area),
                    entry.best->label().c_str(), entry.best->clocking.c_str());
        if (entry.delta_area_percent.has_value())
        {
            std::printf(" (dA %+.1f%% vs %s)", *entry.delta_area_percent,
                        cat::baseline_label(library).c_str());
        }
        std::printf("\n");
    }
    return 0;
}

int run_render(const cli_options& options)
{
    if (!options.set.has_value() || !options.name.has_value())
    {
        std::fprintf(stderr, "render: --set and --name are required\n");
        return 1;
    }
    const auto entries = selected_entries(options);
    if (entries.empty())
    {
        std::fprintf(stderr, "render: no benchmark named %s/%s\n", options.set->c_str(), options.name->c_str());
        return 1;
    }
    const auto catalog = generate(entries, options);
    const auto libraries = options.library.has_value() ?
                               std::vector<cat::gate_library_kind>{cat::gate_library_from_name(*options.library)} :
                               std::vector<cat::gate_library_kind>{cat::gate_library_kind::qca_one,
                                                                   cat::gate_library_kind::bestagon};
    for (const auto library : libraries)
    {
        const auto entry = cat::select_best(catalog, *options.set, *options.name, library);
        if (entry.best == nullptr)
        {
            continue;
        }
        std::printf("\n%s — best layout (%s on %s):\n", cat::gate_library_name(library).c_str(),
                    entry.best->label().c_str(), entry.best->clocking.c_str());
        io::print_layout(entry.best->layout, std::cout);
    }
    return 0;
}

int run_export(const cli_options& options)
{
    const auto catalog = generate(selected_entries(options), options);
    cat::filter_query query{};
    query.best_only = options.best_only;
    if (options.library.has_value())
    {
        query.libraries = {cat::gate_library_from_name(*options.library)};
    }
    const auto selection = cat::apply_filter(catalog, query);
    cat::export_options export_options{};
    export_options.write_cell_level = options.cell_level;
    const auto report = cat::export_selection(catalog, selection, options.directory, export_options);
    std::printf("exported %zu files to %s (%zu skipped)\n", report.written.size(), options.directory.c_str(),
                report.skipped.size());
    for (const auto& note : report.skipped)
    {
        std::printf("  skipped: %.120s\n", note.c_str());
    }
    if (options.json)
    {
        const auto index_path = std::filesystem::path{options.directory} / "index.json";
        std::ofstream index{index_path};
        cat::write_selection_json(catalog, selection, index);
        std::printf("wrote catalog index %s\n", index_path.string().c_str());
    }
    return 0;
}

/// Runs the requested command; -1 means "unknown command" (print usage).
int dispatch(const cli_options& options)
{
    if (options.command == "list")
    {
        return run_list(options);
    }
    if (options.command == "facets")
    {
        return run_facets(options);
    }
    if (options.command == "best")
    {
        return run_best(options);
    }
    if (options.command == "render")
    {
        return run_render(options);
    }
    if (options.command == "export")
    {
        return run_export(options);
    }
    if (options.command == "generate")
    {
        return run_generate(options);
    }
    if (options.command == "families")
    {
        return run_families(options);
    }
    return -1;
}

/// Emits the run report requested via --report / --verbose-telemetry.
void write_telemetry(const cli_options& options)
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
void write_trace(const cli_options& options)
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

}  // namespace

int main(const int argc, const char** argv)
{
    const auto options = parse_args(argc, argv);
    if (options.threads.has_value())
    {
        trt::set_thread_count(*options.threads);
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
    // cooperative interrupt handling: the handler only sets a flag, the
    // portfolio unwinds at its next poll, and the normal return path below
    // flushes --trace-out / --event-log so no sink is left truncated
    std::signal(SIGINT, on_signal);
    std::signal(SIGTERM, on_signal);
    int code = -1;
    try
    {
        code = dispatch(options);
        if (code >= 0)
        {
            write_telemetry(options);
            write_trace(options);
            tel::event_log::instance().flush();
            if (interrupted.load() && code == 0)
            {
                code = 128 + interrupt_signal.load();
            }
        }
    }
    catch (const std::exception& e)
    {
        std::fprintf(stderr, "error: %s\n", e.what());
        tel::event_log::instance().flush();
        return 1;
    }
    if (code >= 0)
    {
        return code;
    }

    std::printf("MNT Bench CLI (reproduction)\n"
                "usage:\n"
                "  mnt_bench_cli list     [--set <name>]\n"
                "  mnt_bench_cli facets   [--set <name>]\n"
                "  mnt_bench_cli best     --set <name> --name <function> [--library qca|bestagon]\n"
                "  mnt_bench_cli render   --set <name> --name <function> [--library qca|bestagon]\n"
                "  mnt_bench_cli export   --dir <path> [--set <name>] [--best-only] [--cell-level] [--json]\n"
                "  mnt_bench_cli generate --store <dir> [--set <name>] [--resume] [--supervise]\n"
                "                         [--shards <n>] [--deterministic]\n"
                "  mnt_bench_cli families [--family aoi|xor|maj] [--family-count <n>]\n"
                "                         [--family-seed <seed>] [--family-manifest <file.json>]\n"
                "synthetic families (generating commands; see DESIGN.md 17):\n"
                "  --family <name>        operate on a synthetic benchmark family instead of the\n"
                "                         curated sets (reference families: aoi, xor, maj)\n"
                "  --family-count <n>     number of functions to expand the family to\n"
                "  --family-seed <seed>   override the family seed (decimal or 0x-hex)\n"
                "telemetry (any command):\n"
                "  --report <file.json>   write a JSON run report (counters, histograms, events, span tree)\n"
                "  --verbose-telemetry    print the run report as text to stderr\n"
                "  --trace-out <file>     write a Chrome/Perfetto trace of the run (or set MNT_TRACE_OUT)\n"
                "  --event-log <file>     append the structured JSONL event log (or set MNT_EVENT_LOG)\n"
                "  (or set MNT_TELEMETRY=1 to record without reporting)\n"
                "resilience (generating commands):\n"
                "  --deadline <seconds>   global wall-clock budget per portfolio run (cooperative)\n"
                "  --retries <n>          retries per combination for transient failures (default 1)\n"
                "  --jobs <n>             n > 1 runs independent portfolio combinations as task-runtime\n"
                "                         tasks; they overlap only when the runtime has >1 thread (default 1)\n"
                "  --threads <n>          task-runtime compute threads, 0 = auto; precedence\n"
                "                         --threads > MNT_THREADS > hardware concurrency; supervised\n"
                "                         shard workers default to cores/shards (min 1)\n"
                "  --store <dir>          generate through the persistent store (incremental, journaled)\n"
                "crash containment / resume (generate; see DESIGN.md 14):\n"
                "  --resume               skip jobs the store's journal marks done; re-run the rest\n"
                "  --supervise            fork each benchmark x library job into a supervised worker\n"
                "  --shards <n>           concurrent supervised workers (implies --supervise)\n"
                "  --deterministic        byte-reproducible output (zeroed runtimes, no exact)\n"
                "  (set MNT_FAULT_INJECT=site[:prob[:seed]],... or site=N kill-points; see DESIGN.md)\n"
                "SIGINT/SIGTERM checkpoint the journal and flush --trace-out/--event-log before exit\n");
    const bool help_requested = options.command.empty() || options.command == "help" ||
                                options.command == "--help" || options.command == "-h";
    return help_requested ? 0 : 1;
}
