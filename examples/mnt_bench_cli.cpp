/// \file mnt_bench_cli.cpp
/// \brief Command-line counterpart of the MNT Bench website / pip package:
///        lists benchmarks, generates layouts on demand, shows the filter
///        facets, reports the best layout per function, and exports the
///        benchmark files.
///
/// Usage: `mnt_bench_cli <command> [options]`; `mnt_bench_cli --help` prints
/// the commands and every flag, generated from the flag table below.
///
/// Layout generation runs the same size-budgeted portfolio as the Table I
/// benches; only the small sets are generated by default to keep runtimes
/// interactive (pass --set ISCAS85 / EPFL explicitly for the big ones).

#include "front_end.hpp"

#include "benchmarks/families.hpp"
#include "benchmarks/suites.hpp"
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

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace
{

using namespace mnt;

struct cli_options : fe::generation_options
{
    std::optional<cat::gate_library_kind> library;
    std::string directory{"mnt_bench_files"};
    bool best_only{false};
    bool cell_level{false};
    bool json{false};
    /// `families` command: write the family manifest to this path.
    std::optional<std::string> family_manifest_path;
};

const std::vector<fe::flag<cli_options>>& cli_flags()
{
    using o = cli_options;
    static const auto table = fe::flag_table<cli_options>({
        {"", "", "options:", false, nullptr},
        {"--library", "<qca|bestagon>", "best/render/export: one gate library (default both)", false,
         [](o& x, std::string_view v) { x.library = cat::gate_library_from_name(std::string{v}); }},
        {"--dir", "<path>", "export: target directory (default mnt_bench_files)", false,
         [](o& x, std::string_view v) { x.directory = std::string{v}; }},
        {"--best-only", "", "export: only the best layout per function and library", false,
         [](o& x, std::string_view) { x.best_only = true; }},
        {"--cell-level", "", "export: also write the cell-level layouts", false,
         [](o& x, std::string_view) { x.cell_level = true; }},
        {"--json", "", "export: also write the catalog index index.json", false,
         [](o& x, std::string_view) { x.json = true; }},
        {"--family-manifest", "<file>", "families: write the family manifest document (JSON)", false,
         [](o& x, std::string_view v) { x.family_manifest_path = std::string{v}; }},
        {"--threads", "<n>", "compute threads (0 = auto: MNT_THREADS, else all cores); shard workers: cores/shards",
         false, [](o& x, std::string_view v) { x.compute_threads = fe::to_count(v); }},
    });
    return table;
}

/// Store-backed generation; supervised workers re-invoke `generate` on the
/// same store.
svc::populate_options populate_options(const cli_options& options)
{
    return fe::populate_options_for(options, {"generate", "--store", *options.store_dir}, "--threads");
}

/// --library, or both libraries.
std::vector<cat::gate_library_kind> libraries(const cli_options& options)
{
    if (options.library.has_value())
    {
        return {*options.library};
    }
    return {cat::gate_library_kind::qca_one, cat::gate_library_kind::bestagon};
}

/// `generate --store <dir>`: journaled, resumable, optionally supervised
/// store regeneration — the CLI face of the PR 7 crash-containment pipeline.
int run_generate(const cli_options& options)
{
    if (!options.store_dir.has_value())
    {
        throw fe::usage_error{"generate: --store <dir> is required"};
    }
    const auto entries = fe::selected_entries(options);
    if (options.worker_job.has_value())
    {
        const auto report =
            svc::run_regen_job(*options.store_dir, entries, *options.worker_job, populate_options(options));
        return report.interrupted ? 1 : 0;
    }
    svc::layout_store store{*options.store_dir};
    const auto report = svc::populate_store(store, entries, populate_options(options));
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
    return report.interrupted ? 128 + fe::interrupt_signal.load() : 0;
}

/// Builds the catalog for the browse commands. With --store, generation is
/// routed through the persistent store (incremental + journaled) and the
/// catalog is its loaded snapshot; without, it is generated in memory.
cat::catalog generate(const std::vector<bm::benchmark_entry>& entries, const cli_options& options)
{
    if (options.store_dir.has_value())
    {
        svc::layout_store store{*options.store_dir};
        svc::populate_store(store, entries, populate_options(options));
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
        params.stop = fe::interrupt_flag();
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
    const auto spec = *fe::family_for(options);
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
    const auto catalog = generate(fe::selected_entries(options), options);
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
        throw fe::usage_error{"best: --set and --name are required"};
    }
    const auto entries = fe::selected_entries(options);
    if (entries.empty())
    {
        std::fprintf(stderr, "best: no benchmark named %s/%s\n", options.set->c_str(), options.name->c_str());
        return 1;
    }
    const auto catalog = generate(entries, options);
    for (const auto library : libraries(options))
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
        throw fe::usage_error{"render: --set and --name are required"};
    }
    const auto entries = fe::selected_entries(options);
    if (entries.empty())
    {
        std::fprintf(stderr, "render: no benchmark named %s/%s\n", options.set->c_str(), options.name->c_str());
        return 1;
    }
    const auto catalog = generate(entries, options);
    for (const auto library : libraries(options))
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
    const auto catalog = generate(fe::selected_entries(options), options);
    cat::filter_query query{};
    query.best_only = options.best_only;
    if (options.library.has_value())
    {
        query.libraries = {*options.library};
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

struct command
{
    std::string_view name;
    std::string_view usage;
    int (*run)(const cli_options&);
};

constexpr command commands[] = {
    {"list", "[--set <name>]", run_list},
    {"facets", "[--set <name>]", run_facets},
    {"best", "--set <name> --name <function> [--library qca|bestagon]", run_best},
    {"render", "--set <name> --name <function> [--library qca|bestagon]", run_render},
    {"export", "[--dir <path>] [--set <name>] [--best-only] [--cell-level] [--json]", run_export},
    {"generate", "--store <dir> [--set <name>] [--resume] [--shards <n>] [--deterministic]", run_generate},
    {"families", "[--family aoi|xor|maj] [--family-count <n>] [--family-seed <seed>] [--family-manifest <file>]",
     run_families},
};

int print_usage()
{
    std::printf("MNT Bench CLI (reproduction)\n"
                "usage: mnt_bench_cli <command> [options]\n");
    for (const auto& c : commands)
    {
        std::printf("  mnt_bench_cli %-8.*s %.*s\n", static_cast<int>(c.name.size()), c.name.data(),
                    static_cast<int>(c.usage.size()), c.usage.data());
    }
    fe::print_flags(cli_flags());
    std::printf("(set MNT_TELEMETRY=1 to record without reporting; MNT_FAULT_INJECT=site[:prob[:seed]],... or\n"
                " site=N kill-points inject faults, see DESIGN.md)\n"
                "SIGINT/SIGTERM checkpoint the journal and flush --trace-out/--event-log before exit\n"
                "usage errors exit 2\n");
    return 0;
}

int run(const int argc, const char** argv)
{
    const std::string_view name = argc > 1 ? argv[1] : "help";
    if (name == "help" || name == "--help" || name == "-h")
    {
        return print_usage();
    }
    const auto* const match =
        std::find_if(std::begin(commands), std::end(commands), [&](const command& c) { return c.name == name; });
    if (match == std::end(commands))
    {
        throw fe::usage_error{"unknown command '" + std::string{name} + "' (see --help)"};
    }
    cli_options options{};
    if (!fe::parse(argc, argv, 2, cli_flags(), options))
    {
        return print_usage();
    }
    fe::start(options);
    // the signal handlers only set a flag: the portfolio unwinds at its next
    // poll and the normal return path below flushes every sink
    auto code = match->run(options);
    fe::flush_sinks(options);
    if (fe::interrupted.load() && code == 0)
    {
        code = 128 + fe::interrupt_signal.load();
    }
    return code;
}

}  // namespace

int main(const int argc, const char** argv)
{
    return fe::guarded_main("mnt_bench_cli", [&] { return run(argc, argv); });
}
