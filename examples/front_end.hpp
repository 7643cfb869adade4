#pragma once

/// \file front_end.hpp
/// \brief The command-line front end shared by mnt_bench_cli and
///        mnt_bench_serve: the generation options both accept, the flag-table
///        row type whose rows drive parsing, value checks, --help and
///        supervised-worker forwarding, benchmark selection, the SIGINT/SIGTERM
///        flag, the run-report/trace/event-log sinks and the one function that
///        turns the options into populate options and worker argv.
///
/// Each binary owns one table: its own rows plus the generation rows below
/// (\ref flag_table). A row marked `forward` reaches every supervised worker
/// as the raw tokens it was given, in command-line order, so a worker
/// rebuilds the same job list and budgets and the worker argv cannot miss a
/// flag the parser accepts.

#include "benchmarks/families.hpp"
#include "benchmarks/suites.hpp"
#include "common/supervisor.hpp"
#include "common/taskrt/taskrt.hpp"
#include "service/populate.hpp"
#include "telemetry/eventlog.hpp"
#include "telemetry/report.hpp"
#include "telemetry/telemetry.hpp"
#include "telemetry/trace_export.hpp"

#include <algorithm>
#include <atomic>
#include <charconv>
#include <cmath>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <initializer_list>
#include <iostream>
#include <limits>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace mnt::fe
{

/// A malformed command line. The binaries print it as one stderr line and
/// exit with status 2 (see \ref guarded_main).
struct usage_error : std::runtime_error
{
    using std::runtime_error::runtime_error;
};

/// Options every generating command of both binaries understands.
struct generation_options
{
    std::optional<std::string> set;
    std::optional<std::string> name;
    /// Synthetic family selection: a reference family (aoi, xor, maj) plus
    /// optional count/seed overrides; replaces the curated sets when set.
    std::optional<std::string> family;
    std::optional<std::size_t> family_count;
    std::optional<std::uint64_t> family_seed;
    /// Global wall-clock budget per portfolio run (0 = unbounded).
    double deadline_s{0.0};
    /// Attempts per combination (retries of transient failures + 1).
    std::optional<std::size_t> max_attempts;
    /// Above 1, portfolio combinations run as task-runtime tasks (see
    /// pd::portfolio_params::jobs).
    std::size_t jobs{1};
    /// Task-runtime compute threads (0 = auto). Each binary names the flag:
    /// flag > MNT_THREADS > hardware concurrency.
    std::optional<std::size_t> compute_threads;

    /// Route generation through a persistent store (journaled, resumable).
    std::optional<std::string> store_dir;
    bool resume{false};
    bool supervise{false};
    std::size_t shards{1};
    bool deterministic{false};
    /// Hidden: run exactly one regeneration job and exit (worker mode).
    std::optional<std::string> worker_job;

    std::optional<std::string> report_path;
    bool verbose_telemetry{false};
    std::optional<std::string> trace_path;
    std::optional<std::string> event_log_path;

    /// Raw tokens of every `forward` flag, in command-line order.
    std::vector<std::string> forwarded;
};

/// One command-line flag. A row with an empty name is a heading in --help.
template <typename Options>
struct flag
{
    std::string_view name;
    /// Placeholder shown in --help; empty for a switch that takes no value.
    std::string_view value_name;
    /// One line of --help; empty hides the flag.
    std::string_view help;
    /// Supervised workers receive this flag as given.
    bool forward;
    /// Stores the value (empty for a switch); throws on a value it rejects.
    void (*apply)(Options&, std::string_view value);
};

// ------------------------------------------------------------- value checks

/// A decimal integer in [0, max]: digits only, no sign, blank or suffix.
inline std::uint64_t to_count(const std::string_view text,
                              const std::uint64_t max = std::numeric_limits<std::uint64_t>::max())
{
    std::uint64_t value{};
    const auto [end, ec] = std::from_chars(text.data(), text.data() + text.size(), value);
    if (text.empty() || end != text.data() + text.size() || ec == std::errc::invalid_argument)
    {
        throw usage_error{"expected a non-negative integer, got '" + std::string{text} + "'"};
    }
    if (ec == std::errc::result_out_of_range || value > max)
    {
        throw usage_error{"'" + std::string{text} + "' is out of range (at most " + std::to_string(max) + ")"};
    }
    return value;
}

/// A finite, non-negative number of seconds.
inline double to_seconds(const std::string_view text)
{
    double value{};
    const auto [end, ec] = std::from_chars(text.data(), text.data() + text.size(), value);
    if (text.empty() || end != text.data() + text.size() || ec != std::errc{} || !std::isfinite(value) ||
        value < 0.0)
    {
        throw usage_error{"expected a non-negative number of seconds, got '" + std::string{text} + "'"};
    }
    return value;
}

/// A 64-bit seed in decimal or 0x-hex (a leading 0 reads octal, as strtoull
/// does).
inline std::uint64_t to_seed(std::string_view text)
{
    const auto original = text;
    int base = 10;
    if (text.starts_with("0x") || text.starts_with("0X"))
    {
        base = 16;
        text.remove_prefix(2);
    }
    else if (text.size() > 1 && text.front() == '0')
    {
        base = 8;
        text.remove_prefix(1);
    }
    std::uint64_t value{};
    const auto [end, ec] = std::from_chars(text.data(), text.data() + text.size(), value, base);
    if (text.empty() || end != text.data() + text.size() || ec != std::errc{})
    {
        throw usage_error{"expected a 64-bit decimal or 0x-hex seed, got '" + std::string{original} + "'"};
    }
    return value;
}

// ---------------------------------------------------------------- the table

/// One binary's flag table: \p own rows first, then the generation rows
/// shared by both binaries. Every flag the binary accepts is a row here.
template <typename Options>
std::vector<flag<Options>> flag_table(const std::initializer_list<flag<Options>> own)
{
    using o = Options;
    std::vector<flag<Options>> rows{own};
    rows.insert(rows.end(), {
        {"", "", "selection and budgets (supervised workers receive these as given):", false, nullptr},
        {"--set", "<name>", "restrict to one benchmark set (ISCAS85 and EPFL only when named)", true,
         [](o& x, std::string_view v) { x.set = std::string{v}; }},
        {"--name", "<function>", "restrict to one function", true,
         [](o& x, std::string_view v) { x.name = std::string{v}; }},
        {"--family", "<aoi|xor|maj>", "a synthetic benchmark family instead of the curated sets (DESIGN.md 17)", true,
         [](o& x, std::string_view v)
         {
             if (!bm::find_reference_family(std::string{v}).has_value())
             {
                 throw usage_error{"unknown family '" + std::string{v} + "' (known: aoi, xor, maj)"};
             }
             x.family = std::string{v};
         }},
        {"--family-count", "<n>", "number of functions to expand the family to", true,
         [](o& x, std::string_view v) { x.family_count = to_count(v); }},
        {"--family-seed", "<seed>", "override the family seed (decimal or 0x-hex)", true,
         [](o& x, std::string_view v) { x.family_seed = to_seed(v); }},
        {"--deadline", "<seconds>", "wall-clock budget per portfolio run, cooperative (default 0 = none)", true,
         [](o& x, std::string_view v) { x.deadline_s = to_seconds(v); }},
        {"--retries", "<n>", "retries per combination for transient failures (default 1)", true,
         [](o& x, std::string_view v)
         { x.max_attempts = to_count(v, std::numeric_limits<std::size_t>::max() - 1) + 1; }},
        {"--jobs", "<n>", "n > 1 runs portfolio combinations as task-runtime tasks (default 1)", true,
         [](o& x, std::string_view v) { x.jobs = std::max<std::size_t>(1, to_count(v)); }},
        {"--deterministic", "", "byte-reproducible output (zeroed runtimes, no exact)", true,
         [](o& x, std::string_view) { x.deterministic = true; }},
        {"", "", "store and crash containment (DESIGN.md 14):", false, nullptr},
        {"--store", "<dir>", "generate through the persistent store (incremental, journaled)", false,
         [](o& x, std::string_view v) { x.store_dir = std::string{v}; }},
        {"--resume", "", "skip jobs the store's journal marks done; re-run the rest", false,
         [](o& x, std::string_view) { x.resume = true; }},
        {"--supervise", "", "run each benchmark x library job in a supervised worker process", false,
         [](o& x, std::string_view) { x.supervise = true; }},
        {"--shards", "<n>", "concurrent supervised workers (implies --supervise)", false,
         [](o& x, std::string_view v)
         {
             x.shards = std::max<std::size_t>(1, to_count(v));
             x.supervise = true;
         }},
        {"--worker-job", "<id>", "", false, [](o& x, std::string_view v) { x.worker_job = std::string{v}; }},
        {"", "", "telemetry:", false, nullptr},
        {"--report", "<file.json>", "write a JSON run report (counters, histograms, events, span tree)", false,
         [](o& x, std::string_view v) { x.report_path = std::string{v}; }},
        {"--verbose-telemetry", "", "print the run report as text to stderr", false,
         [](o& x, std::string_view) { x.verbose_telemetry = true; }},
        {"--trace-out", "<file>", "write a Chrome/Perfetto trace of the run (or set MNT_TRACE_OUT)", false,
         [](o& x, std::string_view v) { x.trace_path = std::string{v}; }},
        {"--event-log", "<file>", "append the structured JSONL event log (or set MNT_EVENT_LOG)", false,
         [](o& x, std::string_view v) { x.event_log_path = std::string{v}; }},
    });
    return rows;
}

/// Parses argv[first, argc) into \p options. Returns false when --help or -h
/// asks for the usage text instead.
///
/// \throws usage_error naming the flag on an unknown argument, a missing
///         value or a value its row rejects
template <typename Options>
bool parse(const int argc, const char* const* argv, const int first, const std::vector<flag<Options>>& table,
           Options& options)
{
    for (int i = first; i < argc; ++i)
    {
        const std::string token = argv[i];
        if (token == "--help" || token == "-h")
        {
            return false;
        }
        const auto row = std::find_if(table.begin(), table.end(),
                                      [&](const flag<Options>& r) { return !r.name.empty() && r.name == token; });
        if (row == table.end())
        {
            throw usage_error{"unknown argument '" + token + "' (see --help)"};
        }
        std::string_view value;
        if (!row->value_name.empty())
        {
            if (i + 1 == argc)
            {
                throw usage_error{token + ": missing value " + std::string{row->value_name}};
            }
            value = argv[++i];
        }
        try
        {
            row->apply(options, value);
        }
        catch (const std::exception& e)
        {
            throw usage_error{token + ": " + e.what()};
        }
        if (row->forward)
        {
            options.forwarded.push_back(token);
            if (!row->value_name.empty())
            {
                options.forwarded.emplace_back(value);
            }
        }
    }
    return true;
}

/// Prints \p table as the options part of --help: one line per flag,
/// headings as given, hidden flags left out.
template <typename Options>
void print_flags(const std::vector<flag<Options>>& table)
{
    for (const auto& row : table)
    {
        if (row.name.empty())
        {
            std::printf("%.*s\n", static_cast<int>(row.help.size()), row.help.data());
            continue;
        }
        if (row.help.empty())
        {
            continue;
        }
        std::string usage{row.name};
        if (!row.value_name.empty())
        {
            usage.append(" ").append(row.value_name);
        }
        std::printf("  %-24s %.*s\n", usage.c_str(), static_cast<int>(row.help.size()), row.help.data());
    }
    std::printf("  %-24s %s\n", "-h, --help", "print this help");
}

// ---------------------------------------------------------------- selection

/// Resolves --family/--family-count/--family-seed into a concrete spec
/// (the parser has already rejected unknown family names).
inline std::optional<bm::family_spec> family_for(const generation_options& options)
{
    if (!options.family.has_value())
    {
        return std::nullopt;
    }
    auto spec = bm::find_reference_family(*options.family).value();
    if (options.family_count.has_value())
    {
        spec.count = *options.family_count;
    }
    if (options.family_seed.has_value())
    {
        spec.seed = *options.family_seed;
    }
    return spec;
}

/// The benchmark entries the generating commands operate on.
inline std::vector<bm::benchmark_entry> selected_entries(const generation_options& options)
{
    // family mode: the family's functions replace the curated sets
    // (--name still narrows to one function)
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

// ------------------------------------------------------ interrupts and sinks

inline std::atomic<bool> interrupted{false};
inline std::atomic<int> interrupt_signal{0};

inline void on_signal(const int sig)
{
    // async-signal-safe: set flags only; generation observes the flag at its
    // next deadline poll, checkpoints the journal, and the normal return
    // path flushes every sink
    interrupt_signal.store(sig);
    interrupted.store(true);
}

/// Non-owning view of the interrupt flag for populate/portfolio.
inline std::shared_ptr<const std::atomic<bool>> interrupt_flag()
{
    return {&interrupted, [](const std::atomic<bool>*) {}};
}

/// Sets up what the options ask of the process before any work: the compute
/// thread count, telemetry and trace recording, the event-log sink, and the
/// cooperative SIGINT/SIGTERM handlers.
inline void start(const generation_options& options)
{
    if (options.compute_threads.has_value())
    {
        trt::set_thread_count(*options.compute_threads);
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
    std::signal(SIGINT, on_signal);
    std::signal(SIGTERM, on_signal);
}

/// Writes the run report (--report / --verbose-telemetry), the Chrome trace
/// (--trace-out or MNT_TRACE_OUT) and flushes the event log.
inline void flush_sinks(const generation_options& options)
{
    if (options.report_path.has_value() || options.verbose_telemetry)
    {
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
    if (options.trace_path.has_value())
    {
        tel::write_chrome_trace_file(*options.trace_path);
        std::fprintf(stderr, "wrote trace %s\n", options.trace_path->c_str());
    }
    else if (const auto path = tel::export_trace_if_requested(); !path.empty())
    {
        std::fprintf(stderr, "wrote trace %s\n", path.c_str());
    }
    tel::event_log::instance().flush();
}

/// Populate options for a store run. When supervising, a worker's argv is
/// this executable + \p worker_prefix + every forwarded token +
/// `<compute_flag> <n>`; populate appends `--worker-job <id>`. n is the
/// pinned compute-thread count, or a fair share of the machine (cores/shards,
/// min 1) so N shards do not each auto-detect every core.
inline svc::populate_options populate_options_for(const generation_options& options,
                                                  const std::initializer_list<std::string> worker_prefix,
                                                  const std::string& compute_flag)
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
        auto& argv = populate.worker_command;
        argv.push_back(sup::self_executable());
        argv.insert(argv.end(), worker_prefix);
        argv.insert(argv.end(), options.forwarded.begin(), options.forwarded.end());
        const auto threads = options.compute_threads.value_or(
            std::max<std::size_t>(1, trt::resolve_auto_threads() / options.shards));
        argv.insert(argv.end(), {compute_flag, std::to_string(threads)});
    }
    return populate;
}

/// Runs a binary's main body: a usage error prints one line naming the flag
/// and exits 2, any other exception prints "error: ..." and exits 1.
template <typename Body>
int guarded_main(const char* binary, Body&& body)
{
    try
    {
        return body();
    }
    catch (const usage_error& e)
    {
        std::fprintf(stderr, "%s: %s\n", binary, e.what());
        return 2;
    }
    catch (const std::exception& e)
    {
        std::fprintf(stderr, "error: %s\n", e.what());
        tel::event_log::instance().flush();
        return 1;
    }
}

}  // namespace mnt::fe
