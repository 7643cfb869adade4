/// \file bench_diff.cpp
/// \brief Perf-regression gate: compares two benchmark result files and
///        exits nonzero when any benchmark slowed down beyond a noise
///        threshold — the tool behind the CI perf-smoke job's gate against
///        the committed baseline.
///
/// Usage:
///   bench_diff <baseline.json> <candidate.json> [options]
///     --threshold <pct>   max allowed slowdown per benchmark (default 25)
///     --calibrate         divide all ratios by their median first, so a
///                         uniformly slower/faster machine does not trip the
///                         gate — only *relative* regressions do
///     --scale <x>         multiply candidate times by x (regression
///                         injection for self-tests)
///     --self-test <file>  verify the gate itself: <file> vs itself must
///                         pass, <file> vs itself at --scale 2 must fail
///
/// Accepted formats (auto-detected per entry under the "benchmarks" array):
///
/// - google-benchmark JSON (`--benchmark_format=json`): entries with
///   "name", "real_time", "time_unit"; aggregate rows other than the median
///   are skipped.
/// - the repo's BENCH_*.json notes: entries with "name", "unit" and
///   "after" (preferred), "time" or "before" values.
///
/// Repeated names (google-benchmark --benchmark_repetitions) collapse to
/// their median. Benchmarks present on only one side are reported but never
/// fail the gate — a renamed benchmark must not mask a real regression
/// elsewhere, and a new one has no baseline yet.

#include "common/read_file.hpp"
#include "service/json.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <vector>

namespace
{

using mnt::read_file;
using mnt::svc::json_value;

/// Seconds per unit name; 0 for unknown units.
double unit_scale(const std::string& unit)
{
    if (unit == "ns")
    {
        return 1e-9;
    }
    if (unit == "us")
    {
        return 1e-6;
    }
    if (unit == "ms")
    {
        return 1e-3;
    }
    if (unit == "s")
    {
        return 1.0;
    }
    return 0.0;
}

/// name -> all observed times in seconds (collapsed to the median later).
using sample_map = std::map<std::string, std::vector<double>>;

/// Extracts one entry's (name, seconds); returns false when the entry is
/// not a usable benchmark row (wrong shape, non-median aggregate, unknown
/// unit).
bool extract_entry(const json_value& entry, std::string& name, double& seconds)
{
    const auto* name_field = entry.find("name");
    if (name_field == nullptr || !name_field->is_string())
    {
        return false;
    }
    name = name_field->as_string();

    // google-benchmark rows: skip non-median aggregates (mean, stddev, cv)
    if (const auto* run_type = entry.find("run_type");
        run_type != nullptr && run_type->is_string() && run_type->as_string() == "aggregate")
    {
        const auto* aggregate = entry.find("aggregate_name");
        if (aggregate == nullptr || !aggregate->is_string() || aggregate->as_string() != "median")
        {
            return false;
        }
        // strip the "_median" suffix google-benchmark appends to the name
        const std::string suffix = "_median";
        if (name.size() > suffix.size() && name.compare(name.size() - suffix.size(), suffix.size(), suffix) == 0)
        {
            name.resize(name.size() - suffix.size());
        }
    }

    const auto* unit_field = entry.find("time_unit");
    if (unit_field == nullptr)
    {
        unit_field = entry.find("unit");
    }
    if (unit_field == nullptr || !unit_field->is_string())
    {
        return false;
    }
    const auto scale = unit_scale(unit_field->as_string());
    if (scale <= 0.0)
    {
        return false;
    }

    for (const char* key : {"real_time", "after", "time", "before"})
    {
        if (const auto* value = entry.find(key); value != nullptr && value->is_number())
        {
            seconds = value->as_number() * scale;
            return seconds > 0.0 && std::isfinite(seconds);
        }
    }
    return false;
}

sample_map load_results(const std::string& path)
{
    const auto document = json_value::parse(read_file(path));

    const auto* benchmarks = document.find("benchmarks");
    if (benchmarks == nullptr || !benchmarks->is_array())
    {
        throw std::runtime_error{"'" + path + "' has no \"benchmarks\" array"};
    }

    sample_map samples;
    for (const auto& entry : benchmarks->as_array())
    {
        std::string name;
        double seconds = 0.0;
        if (entry.is_object() && extract_entry(entry, name, seconds))
        {
            samples[name].push_back(seconds);
        }
    }
    if (samples.empty())
    {
        throw std::runtime_error{"'" + path + "' contains no usable benchmark rows"};
    }
    return samples;
}

double median(std::vector<double> values)
{
    std::sort(values.begin(), values.end());
    const auto n = values.size();
    return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

struct diff_options
{
    std::string baseline_path;
    std::string candidate_path;
    double threshold_pct{25.0};
    bool calibrate{false};
    double scale{1.0};
};

/// Compares the two result sets; returns the number of regressions.
int compare(const diff_options& options)
{
    const auto baseline = load_results(options.baseline_path);
    auto candidate = load_results(options.candidate_path);

    struct row
    {
        std::string name;
        double base_s{0.0};
        double cand_s{0.0};
        double ratio{0.0};
    };
    std::vector<row> rows;
    for (const auto& [name, samples] : baseline)
    {
        const auto found = candidate.find(name);
        if (found == candidate.end())
        {
            std::printf("  (only in baseline)  %s\n", name.c_str());
            continue;
        }
        row r{};
        r.name = name;
        r.base_s = median(samples);
        r.cand_s = median(found->second) * options.scale;
        r.ratio = r.cand_s / r.base_s;
        rows.push_back(std::move(r));
    }
    for (const auto& [name, samples] : candidate)
    {
        if (baseline.find(name) == baseline.end())
        {
            std::printf("  (only in candidate) %s\n", name.c_str());
        }
    }
    if (rows.empty())
    {
        std::fprintf(stderr, "bench_diff: no benchmark names in common\n");
        return -1;
    }

    double machine_factor = 1.0;
    if (options.calibrate)
    {
        std::vector<double> ratios;
        ratios.reserve(rows.size());
        for (const auto& r : rows)
        {
            ratios.push_back(r.ratio);
        }
        machine_factor = median(std::move(ratios));
        std::printf("calibration: median ratio %.3f divided out (machine normalization)\n", machine_factor);
    }

    const auto limit = 1.0 + options.threshold_pct / 100.0;
    int regressions = 0;
    std::printf("%-28s %12s %12s %8s\n", "benchmark", "baseline", "candidate", "ratio");
    for (const auto& r : rows)
    {
        const auto adjusted = r.ratio / machine_factor;
        const bool regressed = adjusted > limit;
        regressions += regressed ? 1 : 0;
        std::printf("%-28s %10.3fus %10.3fus %7.2fx%s\n", r.name.c_str(), r.base_s * 1e6, r.cand_s * 1e6,
                    adjusted, regressed ? "  REGRESSION" : "");
    }
    std::printf("%d regression(s) beyond %.0f%% across %zu shared benchmark(s)\n", regressions,
                options.threshold_pct, rows.size());
    return regressions;
}

/// The gate must (a) pass a file against itself and (b) fail it against a
/// 2x-slowed copy — otherwise the gate itself is broken and CI would wave
/// regressions through silently.
int self_test(const std::string& path, const double threshold_pct)
{
    diff_options same{};
    same.baseline_path = path;
    same.candidate_path = path;
    same.threshold_pct = threshold_pct;
    std::printf("self-test 1/2: identical inputs must pass\n");
    if (compare(same) != 0)
    {
        std::fprintf(stderr, "bench_diff self-test FAILED: identical inputs reported a regression\n");
        return 1;
    }
    std::printf("self-test 2/2: injected 2x slowdown must fail\n");
    same.scale = 2.0;
    if (compare(same) <= 0)
    {
        std::fprintf(stderr, "bench_diff self-test FAILED: 2x slowdown was not detected\n");
        return 1;
    }
    std::printf("bench_diff self-test passed\n");
    return 0;
}

}  // namespace

int main(const int argc, const char** argv)
{
    diff_options options{};
    std::string self_test_path;
    std::vector<std::string> positional;
    for (int i = 1; i < argc; ++i)
    {
        const std::string arg = argv[i];
        const auto next = [&]() -> std::string { return i + 1 < argc ? argv[++i] : std::string{}; };
        if (arg == "--threshold")
        {
            options.threshold_pct = std::stod(next());
        }
        else if (arg == "--calibrate")
        {
            options.calibrate = true;
        }
        else if (arg == "--scale")
        {
            options.scale = std::stod(next());
        }
        else if (arg == "--self-test")
        {
            self_test_path = next();
        }
        else if (arg == "--help" || arg == "-h")
        {
            positional.clear();
            break;
        }
        else
        {
            positional.push_back(arg);
        }
    }

    try
    {
        if (!self_test_path.empty())
        {
            return self_test(self_test_path, options.threshold_pct);
        }
        if (positional.size() != 2)
        {
            std::fprintf(stderr,
                         "usage: bench_diff <baseline.json> <candidate.json>\n"
                         "                  [--threshold <pct>] [--calibrate] [--scale <x>]\n"
                         "       bench_diff --self-test <file.json> [--threshold <pct>]\n"
                         "exit status: 0 = no regression, 1 = regression(s), 2 = usage/parse error\n");
            return 2;
        }
        options.baseline_path = positional[0];
        options.candidate_path = positional[1];
        const auto regressions = compare(options);
        if (regressions < 0)
        {
            return 2;
        }
        return regressions == 0 ? 0 : 1;
    }
    catch (const std::exception& e)
    {
        std::fprintf(stderr, "bench_diff: %s\n", e.what());
        return 2;
    }
}
