#pragma once

/// \file best_selection.hpp
/// \brief Best-layout selection and ΔA bookkeeping — contribution #3 of the
///        paper: the most area-efficient layout per benchmark function from
///        the optimal combination of design automation tools, compared
///        against the single-tool previous state of the art.

#include "core/catalog.hpp"
#include "core/filters.hpp"

#include <optional>
#include <string>
#include <vector>

namespace mnt::cat
{

/// One row of Table I: the best layout of a function under one gate library
/// plus its improvement over the baseline flow.
struct best_entry
{
    const layout_record* best{nullptr};

    /// The baseline record (the previous state-of-the-art flow: plain
    /// "ortho" for QCA ONE, "ortho, 45°" for Bestagon), if present.
    const layout_record* baseline{nullptr};

    /// (best.area - baseline.area) / baseline.area, in percent
    /// (<= 0 when the portfolio improves on the baseline).
    std::optional<double> delta_area_percent;
};

/// The best-layout rule: true if \p a beats \p b, i.e. \p a has the smaller
/// area, or the same area and fewer wires, or the same area and wires and
/// comes first in \ref canonical_layout_less order. The winner therefore
/// does not depend on catalog order, which differs between an in-process
/// catalog (portfolio order) and one loaded from a store (manifest order).
/// Only records equal on the whole canonical key tie; a scan in catalog
/// order keeps the first of them. \ref select_best and the query engine's
/// best_only both pick with this rule.
[[nodiscard]] inline bool better_layout(const layout_record& a, const layout_record& b)
{
    if (a.area != b.area)
    {
        return a.area < b.area;
    }
    if (a.num_wires != b.num_wires)
    {
        return a.num_wires < b.num_wires;
    }
    return canonical_layout_less(a, b);
}

/// Baseline flow label for a library ("ortho" / "ortho, 45°").
[[nodiscard]] std::string baseline_label(gate_library_kind library);

/// Selects the area-minimal layout of (set, name) under \p library and
/// computes ΔA against the baseline flow.
///
/// \returns best_entry with best == nullptr when no layout exists
[[nodiscard]] best_entry select_best(const catalog& cat, const std::string& set, const std::string& name,
                                     gate_library_kind library);

/// Best entries for every registered network under \p library, in
/// registration order.
[[nodiscard]] std::vector<std::pair<const network_record*, best_entry>> best_per_function(const catalog& cat,
                                                                                          gate_library_kind library);

}  // namespace mnt::cat
