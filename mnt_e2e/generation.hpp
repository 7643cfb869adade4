#pragma once

/// \file generation.hpp
/// \brief Workload `table1_curated`: Table I rows of the curated sets
///        regenerated through pd::generate_portfolio, then the best layout
///        per function and library selected from the catalog.

#include "common.hpp"
#include "table_helpers.hpp"

#include "benchmarks/suites.hpp"
#include "core/best_selection.hpp"
#include "core/catalog.hpp"
#include "io/fgl_writer.hpp"
#include "service/hash.hpp"
#include "verification/drc.hpp"
#include "verification/equivalence.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace e2e
{

/// The Table I functions of this workload: the curated functions whose two
/// rows together take under 1 s on a 4-vCPU 2.1 GHz Xeon virtual machine,
/// so that a run holds about ten passes. Left out: 2:1 MUX, XOR and XNOR
/// (exact on four clocking schemes takes 1.4-6 s per row) and the other
/// seven Fontes18 functions (NanoPlaceR and PLO take 0.5-4.8 s per function
/// on them).
inline const std::vector<std::pair<std::string, std::string>> table1_functions{
    {"Trindade16", "Half Adder"}, {"Trindade16", "Full Adder"}, {"Trindade16", "Parity Gen."},
    {"Trindade16", "Parity Check."}, {"Fontes18", "t"}, {"Fontes18", "b1_r2"},
    {"Fontes18", "newtag"}, {"Fontes18", "xor5Maj"}};

struct table1_row
{
    bm::benchmark_entry entry;
    cat::gate_library_kind library;
    ntk::logic_network network;
};

[[nodiscard]] inline pd::portfolio_flavor flavor_of(const cat::gate_library_kind library)
{
    return library == cat::gate_library_kind::qca_one ? pd::portfolio_flavor::cartesian :
                                                        pd::portfolio_flavor::hexagonal;
}

/// exact's wall-clock budget in this workload: far above its slowest call
/// here (every call has at most 11 placeable nodes and finishes), so no row
/// depends on the speed of the machine. The 3 s that bench::params_for
/// gives is only 1.4x the slowest exact call of Table I (2.2 s on XNOR), so
/// on a slower machine such calls time out and rows change.
inline constexpr double table1_exact_timeout_s = 120.0;

/// The Table I budgets of the Table I benches (exact on tiny functions,
/// NanoPlaceR, InOrd and PLO, every layout verified) with exact's budget
/// raised to \ref table1_exact_timeout_s.
[[nodiscard]] inline pd::portfolio_params table1_params(const bm::size_class size)
{
    auto params = bench::params_for(size);
    params.exact_timeout_s = table1_exact_timeout_s;
    return params;
}

/// The rows in Table I order for seed 0, otherwise shuffled by the seed.
[[nodiscard]] inline std::vector<table1_row> make_table1_rows(const std::uint64_t seed)
{
    auto entries = bm::trindade16();
    for (auto& entry : bm::fontes18())
    {
        entries.push_back(std::move(entry));
    }
    std::vector<table1_row> rows;
    for (const auto& [set, name] : table1_functions)
    {
        const auto it = std::find_if(entries.begin(), entries.end(),
                                     [&](const bm::benchmark_entry& e) { return e.set == set && e.name == name; });
        if (it == entries.end())
        {
            throw std::runtime_error{"unknown Table I function " + set + "/" + name};
        }
        for (const auto library : {cat::gate_library_kind::qca_one, cat::gate_library_kind::bestagon})
        {
            rows.push_back({*it, library, it->build()});
        }
    }
    if (seed != 0)
    {
        shuffle(rows, seed);
    }
    return rows;
}

/// Adds \p results of \p row to \p catalog as generate-and-select does.
inline void add_to_catalog(cat::catalog& catalog, const table1_row& row, const std::vector<pd::layout_result>& results)
{
    if (catalog.find_network(row.entry.set, row.entry.name) == nullptr)
    {
        catalog.add_network(row.entry.set, row.entry.name, row.network);
    }
    for (const auto& r : results)
    {
        cat::layout_record record{};
        record.benchmark_set = row.entry.set;
        record.benchmark_name = row.entry.name;
        record.library = row.library;
        record.clocking = r.clocking;
        record.algorithm = r.algorithm;
        record.optimizations = r.optimizations;
        record.runtime = r.runtime;
        record.layout = r.layout;
        catalog.add_layout(std::move(record));
    }
}

/// Sums the best area per function and library (Table I's area column).
inline void select_best(const cat::catalog& catalog, std::uint64_t& area_tiles, std::size_t& rows_without_best)
{
    for (const auto library : {cat::gate_library_kind::qca_one, cat::gate_library_kind::bestagon})
    {
        for (const auto& [network, best] : cat::best_per_function(catalog, library))
        {
            if (best.best == nullptr)
            {
                ++rows_without_best;
                continue;
            }
            area_tiles += best.best->area;
        }
    }
}

/// Content hashes of the .fgl serialization of \p results, appended.
inline void append_hashes(std::vector<std::string>& hashes, const std::vector<pd::layout_result>& results)
{
    for (const auto& r : results)
    {
        hashes.push_back(svc::content_hash(io::write_fgl_string(r.layout)));
    }
}

/// What one regeneration of every row produced.
struct table1_pass
{
    double wall_s{0.0};
    std::vector<double> row_s;
    /// .fgl content hash of every layout, in row and portfolio order.
    std::vector<std::string> hashes;
    std::uint64_t area_tiles{0};
    /// Peak RSS of the process when the pass's timed part ended.
    double peak_rss_mb{0.0};
};

/// Regenerates every row and selects the best layouts (timed), then checks
/// that every row succeeded and, with \p verify, that every layout is
/// equivalent to its network and passes gate-level DRC.
[[nodiscard]] inline table1_pass run_table1_pass(const std::vector<table1_row>& rows, const bool verify,
                                                 run_report& report)
{
    table1_pass pass{};
    std::vector<pd::portfolio_run> runs;
    cat::catalog catalog;
    std::size_t rows_without_best = 0;
    const auto start = clock_type::now();
    speed_clock clock;
    for (const auto& row : rows)
    {
        pd::portfolio_run run;
        pass.row_s.push_back(clock.time(
            [&] { run = pd::generate_portfolio(row.network, flavor_of(row.library), table1_params(row.entry.size)); }));
        add_to_catalog(catalog, row, run.results);
        runs.push_back(std::move(run));
    }
    select_best(catalog, pass.area_tiles, rows_without_best);
    pass.wall_s = seconds_since(start);
    pass.peak_rss_mb = peak_rss_mb();

    for (std::size_t i = 0; i < rows.size(); ++i)
    {
        const auto& row = rows[i];
        const auto& run = runs[i];
        const auto label = row.entry.set + "/" + row.entry.name + " " + cat::gate_library_name(row.library);
        report.attempted += 1;
        if (!run.failures().empty() || run.results.empty())
        {
            report.fail(label + ": " + std::to_string(run.failures().size()) + " failed combinations, " +
                        std::to_string(run.results.size()) + " layouts");
        }
        for (const auto& r : run.results)
        {
            if (verify && (!ver::check_layout_equivalence(row.network, r.layout).equivalent ||
                           !ver::gate_level_drc(r.layout).passed()))
            {
                report.fail(label + " " + r.label() + ": layout fails equivalence or DRC");
            }
        }
        append_hashes(pass.hashes, run.results);
    }
    if (rows_without_best != 0)
    {
        report.fail(std::to_string(rows_without_best) + " Table I rows without a best layout");
    }
    return pass;
}

[[nodiscard]] inline run_report run_table1(const run_options& options)
{
    run_report report{};
    std::vector<table1_row> rows;
    const auto set_up = [&]
    {
        start_pool();
        rows = make_table1_rows(options.seed);
    };
    setup_clock setup{};
    setup.burst(cheap_setup_repeats, set_up);

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
                                           auto pass = run_table1_pass(rows, first, report);
                                           first = false;
                                           return pass;
                                       });
        std::vector<std::vector<double>> row_s;
        for (std::size_t p = 0; p < passes.size(); ++p)
        {
            const auto& pass = passes[p];
            if (pass.hashes != passes.front().hashes || pass.area_tiles != passes.front().area_tiles)
            {
                report.fail("pass " + std::to_string(p) + " produced different layouts than pass 0");
            }
            row_s.push_back(pass.row_s);
        }
        const auto row_medians = per_operation_median(row_s);
        add_end_to_end(report, setup.seconds(),
                       static_cast<double>(rows.size()) /
                           std::accumulate(row_medians.begin(), row_medians.end(), 0.0),
                       percentile(row_medians, 0.50), percentile(row_medians, 0.99), passes.front().peak_rss_mb,
                       passes.front().area_tiles);
        return report;
    }

    // a verified untraced pass gives the reference layouts; then every row
    // runs untraced and traced back to back, so that both see the same
    // machine speed and their ratio is the tracing overhead
    const auto reference = run_table1_pass(rows, true, report);

    tracer tr{true};
    replay_counts counts{};
    std::vector<std::string> untraced_hashes;
    std::vector<std::string> traced_hashes;
    double untraced_s = 0.0;
    {
        const auto pass_span = tr.step("pass");
        cat::catalog catalog;
        for (std::size_t i = 0; i < rows.size(); ++i)
        {
            const auto& row = rows[i];
            const auto params = table1_params(row.entry.size);
            const auto row_span = tr.step("row", i);
            tr.untimed(
                [&]
                {
                    const auto start = clock_type::now();
                    const auto run = pd::generate_portfolio(row.network, flavor_of(row.library), params);
                    untraced_s += seconds_since(start);
                    append_hashes(untraced_hashes, run.results);
                });
            const auto replay = replay_portfolio(tr, row.network, flavor_of(row.library), params, counts);
            tr.untimed([&] { append_hashes(traced_hashes, replay.results); });
            add_to_catalog(catalog, row, replay.results);
        }
        std::uint64_t area = 0;
        std::size_t missing = 0;
        select_best(catalog, area, missing);
    }
    report.attempted += 1;
    if (traced_hashes != reference.hashes || untraced_hashes != reference.hashes || counts.failed_combos != 0)
    {
        report.fail("the traced replay produced different layouts than generate_portfolio");
    }
    add_layer_metrics(report, tr.summarize(), counts, untraced_s, 0.0);
    write_spans(tr, options);
    return report;
}

}  // namespace e2e
