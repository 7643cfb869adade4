/// \file best_of_catalog.cpp
/// \brief Uses the MNT Bench catalog like the website: populate it with
///        layouts for the Trindade16 set, filter by facets, pick the best
///        layouts, and export the benchmark files (.v + .fgl) —
///        the "researcher downloads benchmarks" scenario from the paper's
///        introduction.

#include "benchmarks/suites.hpp"
#include "core/best_selection.hpp"
#include "core/catalog.hpp"
#include "core/export.hpp"
#include "core/filters.hpp"
#include "physical_design/portfolio.hpp"
#include "service/query.hpp"

#include <cstdio>
#include <filesystem>

int main()
{
    using namespace mnt;

    cat::catalog catalog;

    // populate: all tool combinations for the Trindade16 set, both libraries
    pd::portfolio_params params{};
    params.exact_timeout_s = 2.0;
    params.nanoplacer_iterations = 800;
    params.input_orderings = 4;

    for (const auto& entry : bm::trindade16())
    {
        const auto network = entry.build();
        catalog.add_network(entry.set, entry.name, network);
        for (const auto library : {cat::gate_library_kind::qca_one, cat::gate_library_kind::bestagon})
        {
            const auto results = library == cat::gate_library_kind::qca_one ?
                                     pd::run_cartesian_portfolio(network, params) :
                                     pd::run_hexagonal_portfolio(network, params);
            for (const auto& r : results)
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
        }
    }

    std::printf("catalog: %zu networks, %zu layouts\n\n", catalog.num_networks(), catalog.num_layouts());

    // the paper's headline feature: best layout per function with dA
    for (const auto library : {cat::gate_library_kind::qca_one, cat::gate_library_kind::bestagon})
    {
        std::printf("best layouts, %s library (dA vs '%s'):\n", cat::gate_library_name(library).c_str(),
                    cat::baseline_label(library).c_str());
        for (const auto& [network, entry] : cat::best_per_function(catalog, library))
        {
            if (entry.best == nullptr)
            {
                continue;
            }
            std::printf("  %-14s %4u x %-4u = %6lu tiles  via %-28s", network->benchmark_name.c_str(),
                        entry.best->width, entry.best->height, static_cast<unsigned long>(entry.best->area),
                        entry.best->label().c_str());
            if (entry.delta_area_percent.has_value())
            {
                std::printf("  dA %+6.1f%%", *entry.delta_area_percent);
            }
            std::printf("\n");
        }
        std::printf("\n");
    }

    // download: export the best QCA ONE layouts
    cat::filter_query query{};
    query.libraries = {cat::gate_library_kind::qca_one};
    query.best_only = true;
    const svc::query_engine engine{catalog};
    const auto selection = engine.filter(query);

    const auto dir = std::filesystem::temp_directory_path() / "mnt_bench_best_of_catalog";
    std::filesystem::remove_all(dir);
    const auto report = cat::export_selection(catalog, selection, dir);
    std::printf("exported %zu files to %s\n", report.written.size(), dir.string().c_str());
    std::filesystem::remove_all(dir);

    return 0;
}
