#pragma once

/// \file stores.hpp
/// \brief Workload `family_store`: populate a fresh layout store with the
///        `aoi` reference family through svc::populate_store
///        (deterministic, journal on), a few functions per call, then reopen
///        and load it, as a server start does.

#include "common.hpp"

#include "benchmarks/families.hpp"
#include "service/hash.hpp"
#include "service/json.hpp"
#include "verification/drc.hpp"
#include "verification/equivalence.hpp"

#include <filesystem>
#include <fstream>
#include <map>
#include <numeric>
#include <optional>
#include <string>
#include <vector>

namespace e2e
{

/// Functions of the `aoi` reference family in the family workloads.
inline constexpr std::size_t family_functions = 128;

/// The first \ref family_functions functions of the `aoi` reference family at
/// size_class::large (ortho, InOrd and 45° only), in index order for seed 0,
/// otherwise shuffled by the seed. The order changes neither the functions
/// nor the stored bytes: the manifest is written in canonical order.
[[nodiscard]] inline std::vector<bm::benchmark_entry> family_entries(const std::uint64_t seed)
{
    auto spec = bm::find_reference_family("aoi").value();
    spec.count = family_functions;
    spec.size = bm::size_class::large;
    auto entries = bm::family_entries(spec);
    if (seed != 0)
    {
        shuffle(entries, seed);
    }
    return entries;
}

/// Functions per populate_store call in `family_store` (16 jobs, about
/// 0.1 s). A pass populates the store in increments of this many
/// functions, and the host's speed is read between them, about as often as
/// between the rows of `table1_curated` (see speed_clock). One call for the
/// whole family would leave a second or more between two readings.
inline constexpr std::size_t functions_per_call = 8;

/// \p entries in consecutive increments of \ref functions_per_call.
[[nodiscard]] inline std::vector<std::vector<bm::benchmark_entry>>
split_increments(const std::vector<bm::benchmark_entry>& entries)
{
    std::vector<std::vector<bm::benchmark_entry>> increments;
    for (std::size_t first = 0; first < entries.size(); first += functions_per_call)
    {
        const auto last = std::min(entries.size(), first + functions_per_call);
        increments.emplace_back(entries.begin() + static_cast<std::ptrdiff_t>(first),
                                entries.begin() + static_cast<std::ptrdiff_t>(last));
    }
    return increments;
}

[[nodiscard]] inline svc::populate_options store_options()
{
    svc::populate_options options{};
    options.deterministic = true;
    options.journal = true;
    return options;
}

/// One populate-then-reload cycle.
struct store_pass
{
    /// Measured duration of the timed part.
    double wall_s{0.0};
    /// Durations at the nominal speed (see speed_clock).
    double populate_s{0.0};
    double reload_s{0.0};
    /// Per-job durations from the run journal (job_start to job_done).
    std::vector<double> job_s;
    svc::populate_report populate{};
    std::size_t loaded_layouts{0};
    std::size_t load_issues{0};
    std::string manifest_hash;
    std::uint64_t area_tiles{0};
    double disk_mb{0.0};
    /// Peak RSS of the process when the pass's timed part ended.
    double peak_rss_mb{0.0};
};

/// job_done minus job_start timestamps, per job, from the journal at \p path.
[[nodiscard]] inline std::vector<double> journal_job_seconds(const std::filesystem::path& path)
{
    std::ifstream in{path};
    std::map<std::string, double> started;
    std::vector<double> seconds;
    std::string line;
    while (std::getline(in, line))
    {
        const auto record = svc::json_value::parse(line);
        const auto& event = record.at("event").as_string();
        if (event == "job_start")
        {
            started[record.at("job").as_string()] = record.at("ts").as_number();
        }
        else if (event == "job_done")
        {
            seconds.push_back(record.at("ts").as_number() - started.at(record.at("job").as_string()));
        }
    }
    return seconds;
}

[[nodiscard]] inline double directory_mb(const std::filesystem::path& dir)
{
    double bytes = 0.0;
    for (const auto& file : std::filesystem::recursive_directory_iterator(dir))
    {
        if (file.is_regular_file())
        {
            bytes += static_cast<double>(file.file_size());
        }
    }
    return bytes / bytes_per_mb;
}

/// Adds the counts of one populate_store call to \p total.
inline void add_populate(svc::populate_report& total, const svc::populate_report& part)
{
    total.networks_added += part.networks_added;
    total.layouts_added += part.layouts_added;
    total.failures_recorded += part.failures_recorded;
    total.jobs_total += part.jobs_total;
    total.jobs_run += part.jobs_run;
    total.jobs_crashed += part.jobs_crashed;
}

/// Populates a fresh store at \p dir, one populate_store call per
/// increment, and reloads it. With \p verify, every reloaded layout is
/// checked for equivalence with its network and DRC.
[[nodiscard]] inline store_pass run_store_pass(const std::vector<std::vector<bm::benchmark_entry>>& increments,
                                               const std::filesystem::path& dir, const bool verify,
                                               run_report& report)
{
    std::filesystem::remove_all(dir);
    store_pass pass{};
    speed_clock clock;
    std::optional<svc::layout_store> store;
    // the factor of the call each job ran in, in journal order
    std::vector<double> job_factors;
    for (const auto& increment : increments)
    {
        svc::populate_report part{};
        const auto call_s = clock.time(
            [&]
            {
                if (!store)
                {
                    store.emplace(dir);
                }
                part = svc::populate_store(*store, increment, store_options());
            });
        pass.populate_s += call_s;
        pass.wall_s += call_s / clock.last_factor();
        add_populate(pass.populate, part);
        job_factors.insert(job_factors.end(), part.jobs_run, clock.last_factor());
    }
    store.reset();
    std::optional<svc::layout_store> reopened;
    svc::store_snapshot snapshot;
    pass.reload_s = clock.time(
        [&]
        {
            reopened.emplace(dir);
            snapshot = reopened->load();
        });
    pass.wall_s += pass.reload_s / clock.last_factor();
    pass.peak_rss_mb = peak_rss_mb();

    pass.job_s = journal_job_seconds(dir / svc::run_journal::default_filename);
    for (std::size_t j = 0; j < pass.job_s.size() && j < job_factors.size(); ++j)
    {
        pass.job_s[j] *= job_factors[j];
    }
    pass.loaded_layouts = snapshot.catalog.num_layouts();
    pass.load_issues = snapshot.issues.size();
    pass.manifest_hash = svc::content_hash(svc::read_file(dir / "manifest.json"));
    pass.disk_mb = directory_mb(dir);
    for (const auto& layout : snapshot.catalog.layouts())
    {
        pass.area_tiles += layout.area;
        if (!verify)
        {
            continue;
        }
        const auto* network = snapshot.catalog.find_network(layout.benchmark_set, layout.benchmark_name);
        if (network == nullptr || !ver::check_layout_equivalence(network->network, layout.layout).equivalent ||
            !ver::gate_level_drc(layout.layout).passed())
        {
            report.fail(layout.benchmark_set + "/" + layout.benchmark_name + " " + layout.label() +
                        ": stored layout fails equivalence or DRC");
        }
    }
    return pass;
}

/// Every job ran without failures and the reload returned every layout.
inline void check_store_pass(run_report& report, const store_pass& pass, const std::string& reference_hash)
{
    const auto& populate = pass.populate;
    report.attempted += populate.jobs_total + 1;
    if (populate.jobs_run != populate.jobs_total || populate.failures_recorded != 0 || populate.jobs_crashed != 0)
    {
        report.fail(std::to_string(populate.jobs_run) + " of " + std::to_string(populate.jobs_total) + " jobs ran, " +
                    std::to_string(populate.failures_recorded) + " failures recorded");
    }
    if (pass.loaded_layouts != populate.layouts_added || pass.load_issues != 0)
    {
        report.fail("reload returned " + std::to_string(pass.loaded_layouts) + " of " +
                    std::to_string(populate.layouts_added) + " layouts with " + std::to_string(pass.load_issues) +
                    " issues");
    }
    if (pass.manifest_hash != reference_hash)
    {
        report.fail("the store manifest differs from the first pass");
    }
}

[[nodiscard]] inline run_report run_store(const run_options& options, const std::filesystem::path& scratch)
{
    run_report report{};
    std::vector<std::vector<bm::benchmark_entry>> increments;
    const auto set_up = [&]
    {
        start_pool();
        const auto entries = family_entries(options.seed);
        // make every input once up front, so a bad input fails set-up
        for (const auto& entry : entries)
        {
            static_cast<void>(entry.build());
        }
        increments = split_increments(entries);
    };
    setup_clock setup{};
    setup.burst(cheap_setup_repeats, set_up);
    const auto dir = scratch / "store";

    if (!options.trace)
    {
        bool first = true;
        const auto passes = run_passes(options.seconds,
                                       [&]
                                       {
                                           if (!first)
                                           {
                                               setup.burst(cheap_setup_repeats, set_up);
                                           }
                                           auto pass = run_store_pass(increments, dir, first, report);
                                           first = false;
                                           return pass;
                                       });
        // the steps of a pass: every job, the rest of the populate_store
        // calls, the reload
        std::vector<std::vector<double>> steps;
        for (const auto& pass : passes)
        {
            check_store_pass(report, pass, passes.front().manifest_hash);
            if (pass.area_tiles != passes.front().area_tiles || pass.job_s.size() != pass.populate.jobs_total)
            {
                report.fail("the stored layouts or the journal differ from the first pass");
                return report;
            }
            auto step_s = pass.job_s;
            step_s.push_back(pass.populate_s - std::accumulate(pass.job_s.begin(), pass.job_s.end(), 0.0));
            step_s.push_back(pass.reload_s);
            steps.push_back(std::move(step_s));
        }
        const auto medians = per_operation_median(steps);
        const std::vector<double> job_medians(medians.begin(), medians.end() - 2);
        add_end_to_end(report, setup.seconds(),
                       static_cast<double>(job_medians.size()) / std::accumulate(medians.begin(), medians.end(), 0.0),
                       percentile(job_medians, 0.50), percentile(job_medians, 0.99), passes.front().peak_rss_mb,
                       passes.front().area_tiles);
        return report;
    }

    // a first untraced pass warms up; the verified untraced pass right after
    // the replay is the reference for its store and its wall time
    const auto warmup = run_store_pass(increments, dir, false, report);
    check_store_pass(report, warmup, warmup.manifest_hash);

    const auto replay_dir = scratch / "replay";
    std::filesystem::remove_all(replay_dir);
    tracer tr{true};
    replay_counts counts{};
    std::size_t reloaded = 0;
    {
        const auto pass_span = tr.step("pass");
        std::vector<std::string> blob_ids;
        {
            svc::layout_store store{replay_dir};
            std::size_t first_job = 0;
            for (const auto& increment : increments)
            {
                const auto stored = replay_populate(tr, store, increment, store_options(), counts, first_job);
                blob_ids.insert(blob_ids.end(), stored.begin(), stored.end());
                first_job += svc::enumerate_regen_jobs(increment, store_options()).size();
            }
        }
        std::optional<svc::layout_store> reopened;
        reloaded = replay_load(tr, reopened, replay_dir, blob_ids).catalog.num_layouts();
    }
    const auto reference = run_store_pass(increments, dir, true, report);
    check_store_pass(report, reference, warmup.manifest_hash);
    report.attempted += 1;
    if (svc::content_hash(svc::read_file(replay_dir / "manifest.json")) != reference.manifest_hash ||
        reloaded != reference.loaded_layouts || counts.failed_combos != 0)
    {
        report.fail("the traced replay wrote a different store than populate_store");
    }
    add_layer_metrics(report, tr.summarize(), counts, reference.wall_s, reference.disk_mb);
    write_spans(tr, options);
    return report;
}

}  // namespace e2e
