#include "core/filters.hpp"

#include "core/best_selection.hpp"
#include "telemetry/telemetry.hpp"

#include <algorithm>
#include <map>
#include <tuple>

namespace mnt::cat
{

bool canonical_layout_less(const layout_record& a, const layout_record& b)
{
    const auto key = [](const layout_record& r)
    {
        return std::tuple<const std::string&, const std::string&, std::string, std::uint64_t, std::string,
                          const std::string&, std::size_t, std::size_t>{
            r.benchmark_set, r.benchmark_name, gate_library_name(r.library), r.area,
            r.label(),       r.clocking,       r.num_wires,                  r.num_crossings};
    };
    return key(a) < key(b);
}

std::vector<const layout_record*> apply_filter(const catalog& cat, const filter_query& query)
{
    const tel::stopwatch watch;
    std::vector<const layout_record*> selection;

    for (const auto& r : cat.layouts())
    {
        if (query.benchmark_set.has_value() && r.benchmark_set != *query.benchmark_set)
        {
            continue;
        }
        if (query.benchmark_name.has_value() && r.benchmark_name != *query.benchmark_name)
        {
            continue;
        }
        if (!query.libraries.empty() &&
            std::find(query.libraries.cbegin(), query.libraries.cend(), r.library) == query.libraries.cend())
        {
            continue;
        }
        if (!query.clockings.empty() &&
            std::find(query.clockings.cbegin(), query.clockings.cend(), r.clocking) == query.clockings.cend())
        {
            continue;
        }
        if (!query.algorithms.empty() &&
            std::find(query.algorithms.cbegin(), query.algorithms.cend(), r.algorithm) == query.algorithms.cend())
        {
            continue;
        }
        if (!query.families.empty() &&
            std::find(query.families.cbegin(), query.families.cend(), r.family) == query.families.cend())
        {
            continue;
        }
        const auto has_all_opts = std::all_of(
            query.required_optimizations.cbegin(), query.required_optimizations.cend(),
            [&](const std::string& opt)
            { return std::find(r.optimizations.cbegin(), r.optimizations.cend(), opt) != r.optimizations.cend(); });
        if (!has_all_opts)
        {
            continue;
        }
        selection.push_back(&r);
    }

    if (query.best_only)
    {
        std::map<std::tuple<std::string, std::string, gate_library_kind>, const layout_record*> best;
        for (const auto* r : selection)
        {
            auto& slot = best[{r->benchmark_set, r->benchmark_name, r->library}];
            if (slot == nullptr || better_layout(*r, *slot))
            {
                slot = r;
            }
        }
        selection.clear();
        for (const auto& [key, r] : best)
        {
            selection.push_back(r);
        }
    }

    // canonical result order (see canonical_layout_less); stable_sort keeps
    // catalog insertion order as the final tie-break
    std::stable_sort(selection.begin(), selection.end(),
                     [](const layout_record* a, const layout_record* b) { return canonical_layout_less(*a, *b); });

    if (tel::enabled())
    {
        tel::count("catalog.filter_queries");
        tel::count("catalog.filter_hits", selection.size());
        tel::observe("catalog.filter_s", watch.seconds());
    }
    return selection;
}

facet_counts compute_facets(const std::vector<const layout_record*>& selection)
{
    facet_counts facets{};
    for (const auto* r : selection)
    {
        ++facets.per_set[r->benchmark_set];
        ++facets.per_library[gate_library_name(r->library)];
        ++facets.per_clocking[r->clocking];
        ++facets.per_algorithm[r->algorithm];
        for (const auto& opt : r->optimizations)
        {
            ++facets.per_optimization[opt];
        }
        if (!r->family.empty())
        {
            ++facets.per_family[r->family];
        }
    }
    return facets;
}

facet_counts compute_facets(const catalog& cat)
{
    std::vector<const layout_record*> all;
    all.reserve(cat.num_layouts());
    for (const auto& r : cat.layouts())
    {
        all.push_back(&r);
    }
    return compute_facets(all);
}

}  // namespace mnt::cat
