/// \file figure1_facets.cpp
/// \brief Experiment E3: reproduces the filter interface of Figure 1 — the
///        MNT Bench website facets. The catalog is populated with all
///        feasible tool/scheme/library combinations for the two small
///        benchmark sets, then the facet histograms (abstraction level, gate
///        library, clocking scheme, physical design algorithm, optimization
///        algorithm) and a few example filter queries are printed — the
///        exact selections a website user can make.

#include "table_helpers.hpp"

#include "core/export.hpp"
#include "core/filters.hpp"
#include "service/query.hpp"

#include <cstdio>
#include <filesystem>

int main()
{
    using namespace mnt;

    cat::catalog catalog;
    for (const auto& entry : bm::trindade16())
    {
        bench::populate(catalog, entry, cat::gate_library_kind::qca_one);
        bench::populate(catalog, entry, cat::gate_library_kind::bestagon);
    }
    for (const auto& entry : bm::fontes18())
    {
        bench::populate(catalog, entry, cat::gate_library_kind::qca_one);
        bench::populate(catalog, entry, cat::gate_library_kind::bestagon);
    }

    std::printf("=== Figure 1 — MNT Bench filter facets ===\n\n");
    std::printf("Abstraction level:\n");
    std::printf("  %-24s %zu\n", "Network (.v)", catalog.num_networks());
    std::printf("  %-24s %zu\n", "Gate-level (.fgl)", catalog.num_layouts());

    // every answer below comes from the query engine, as on the website
    const svc::query_engine engine{catalog};
    svc::page_query everything{};
    everything.limit = 0;
    const auto facets = engine.run(everything).facets;
    const auto print_facet = [](const char* title, const std::map<std::string, std::size_t>& histogram)
    {
        std::printf("\n%s:\n", title);
        for (const auto& [name, count] : histogram)
        {
            std::printf("  %-24s %zu\n", name.c_str(), count);
        }
    };
    print_facet("Gate library", facets.per_library);
    print_facet("Clocking scheme", facets.per_clocking);
    print_facet("Physical design algorithm", facets.per_algorithm);
    print_facet("Optimization algorithm", facets.per_optimization);
    print_facet("Benchmark set", facets.per_set);

    // example filter interactions, as a website user would click them
    std::printf("\n=== Example filter queries ===\n");

    cat::filter_query query_use{};
    query_use.clockings = {"USE"};
    std::printf("USE-clocked layouts:                   %zu\n", engine.filter(query_use).size());

    cat::filter_query query_exact_bestagon{};
    query_exact_bestagon.libraries = {cat::gate_library_kind::bestagon};
    query_exact_bestagon.algorithms = {"exact"};
    std::printf("Bestagon layouts from exact:           %zu\n", engine.filter(query_exact_bestagon).size());

    cat::filter_query query_plo{};
    query_plo.required_optimizations = {"PLO"};
    std::printf("Layouts with post-layout optimization: %zu\n", engine.filter(query_plo).size());

    cat::filter_query query_best{};
    query_best.best_only = true;
    const auto best = engine.filter(query_best);
    std::printf("'Most optimal: Best' selection:        %zu\n", best.size());

    // the website's download: export the best selection as .v + .fgl files
    const auto dir = std::filesystem::temp_directory_path() / "mnt_bench_export";
    std::filesystem::remove_all(dir);
    const auto report = cat::export_selection(catalog, best, dir);
    std::printf("\nExported %zu files to %s\n", report.written.size(), dir.string().c_str());
    std::filesystem::remove_all(dir);

    return 0;
}
