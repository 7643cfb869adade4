#include "core/best_selection.hpp"

#include "common/provenance.hpp"

namespace mnt::cat
{

std::string baseline_label(const gate_library_kind library)
{
    return library == gate_library_kind::qca_one ? prov::label(prov::algo_ortho, {}) :
                                                   prov::label(prov::algo_ortho, {prov::opt_hexagonalization});
}

best_entry select_best(const catalog& cat, const std::string& set, const std::string& name,
                       const gate_library_kind library)
{
    best_entry entry{};
    const auto base_label = baseline_label(library);

    for (const auto* r : cat.layouts_of(set, name))
    {
        if (r->library != library)
        {
            continue;
        }
        if (entry.best == nullptr || better_layout(*r, *entry.best))
        {
            entry.best = r;
        }
        if (r->label() == base_label)
        {
            entry.baseline = r;
        }
    }

    if (entry.best != nullptr && entry.baseline != nullptr && entry.baseline->area > 0)
    {
        entry.delta_area_percent = 100.0 *
                                   (static_cast<double>(entry.best->area) -
                                    static_cast<double>(entry.baseline->area)) /
                                   static_cast<double>(entry.baseline->area);
    }
    return entry;
}

std::vector<std::pair<const network_record*, best_entry>> best_per_function(const catalog& cat,
                                                                            const gate_library_kind library)
{
    std::vector<std::pair<const network_record*, best_entry>> result;
    for (const auto& n : cat.networks())
    {
        result.emplace_back(&n, select_best(cat, n.benchmark_set, n.benchmark_name, library));
    }
    return result;
}

}  // namespace mnt::cat
