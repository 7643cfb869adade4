/// \file mnt_e2e.cpp
/// \brief End-to-end benchmark of the MNT Bench reproduction: Table I
///        generation, store population and catalog serving, driven only
///        through the library's public functions.
///
/// Usage:
///   mnt_e2e --workload <name> [--seed <n>] [--seconds <s>] [--trace 0|1]
///           [--spans <file.json>]
///
///   --workload  table1_curated | family_store | serve_search
///   --seed      input seed (default 0): the order in which the fixed inputs
///               are processed, and the request sequence of serve_search
///   --seconds   length of the measured phase (default 10)
///   --trace     1 = report the per-layer metrics of a traced replay
///               instead of the end-to-end metrics
///   --spans     with --trace 1, also write the replay's spans to this file
///
/// Prints one `<workload> <metric> <value> <unit>` line per metric, then, as
/// the last line, one JSON object {"correct", "attempted", "failed",
/// "metrics"}. Exits 0 when every check passed, 3 when one failed (after
/// printing every metric), 2 on bad arguments and 1 when the run could not
/// complete. Scratch stores live under the system temp directory (TMPDIR)
/// and are deleted on exit.

#include "common.hpp"
#include "generation.hpp"
#include "serving.hpp"
#include "stores.hpp"

#include "telemetry/telemetry.hpp"

#include <csignal>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <string>

#include <unistd.h>

namespace
{

using namespace e2e;

/// A fresh directory under the temp directory, removed on destruction.
class scratch_dir
{
public:
    scratch_dir() :
            path{std::filesystem::temp_directory_path() / ("mnt_e2e-" + std::to_string(::getpid()))}
    {
        std::filesystem::remove_all(path);
        std::filesystem::create_directories(path);
    }

    ~scratch_dir()
    {
        std::error_code ignored;
        std::filesystem::remove_all(path, ignored);
    }

    scratch_dir(const scratch_dir&) = delete;
    scratch_dir& operator=(const scratch_dir&) = delete;

    const std::filesystem::path path;
};

bool known_workload(const std::string& name)
{
    for (const char* w : {"table1_curated", "family_store", "serve_search"})
    {
        if (name == w)
        {
            return true;
        }
    }
    return false;
}

/// Returns false (after saying why) on bad arguments.
bool parse_args(const int argc, const char** argv, run_options& options)
{
    for (int i = 1; i < argc; ++i)
    {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
        {
            std::fprintf(stderr, "mnt_e2e: '%s' needs a value\n", arg.c_str());
            return false;
        }
        const std::string value = argv[++i];
        try
        {
            if (arg == "--workload")
            {
                options.workload = value;
            }
            else if (arg == "--seed")
            {
                options.seed = std::stoull(value);
            }
            else if (arg == "--seconds")
            {
                options.seconds = std::stod(value);
            }
            else if (arg == "--trace" && (value == "0" || value == "1"))
            {
                options.trace = value == "1";
            }
            else if (arg == "--spans")
            {
                options.spans_path = value;
            }
            else
            {
                std::fprintf(stderr, "mnt_e2e: unknown argument '%s %s'\n", arg.c_str(), value.c_str());
                return false;
            }
        }
        catch (const std::exception&)
        {
            std::fprintf(stderr, "mnt_e2e: bad value for %s: '%s'\n", arg.c_str(), value.c_str());
            return false;
        }
    }
    if (!known_workload(options.workload) || !(options.seconds > 0.0))
    {
        std::fprintf(stderr, "usage: mnt_e2e --workload table1_curated|family_store|serve_search [--seed <n>] "
                             "[--seconds <s>] [--trace 0|1] [--spans <file>]\n");
        return false;
    }
    return true;
}

void print_report(const run_options& options, const run_report& report)
{
    for (const auto& m : report.metrics)
    {
        std::printf("%s %s %.17g %s\n", options.workload.c_str(), m.name.c_str(), m.value, m.unit.c_str());
    }
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
                report.failed == 0 ? "true" : "false", static_cast<unsigned long long>(report.attempted),
                static_cast<unsigned long long>(report.failed));
    for (std::size_t i = 0; i < report.metrics.size(); ++i)
    {
        const auto& m = report.metrics[i];
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ", m.name.c_str(), m.value,
                    m.unit.c_str());
    }
    std::printf("}}\n");
    std::fflush(stdout);
}

}  // namespace

int main(const int argc, const char** argv)
{
    run_options options{};
    if (!parse_args(argc, argv, options))
    {
        return 2;
    }
    std::signal(SIGPIPE, SIG_IGN);
    // measured runs record no library telemetry; the server's own counters
    // are always on
    mnt::tel::set_enabled(false);
    mnt::tel::set_trace_recording(false);

    try
    {
        const scratch_dir scratch;
        run_report report{};
        if (options.workload == "table1_curated")
        {
            report = run_table1(options);
        }
        else if (options.workload == "family_store")
        {
            report = run_store(options, scratch.path);
        }
        else
        {
            report = run_serve(options, scratch.path);
        }
        mnt::trt::shutdown();
        print_report(options, report);
        return report.failed == 0 ? 0 : 3;
    }
    catch (const std::exception& e)
    {
        std::fprintf(stderr, "mnt_e2e: %s\n", e.what());
        return 1;
    }
}
