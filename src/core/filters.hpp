#pragma once

/// \file filters.hpp
/// \brief The filter machinery behind MNT Bench's web interface (Figure 1):
///        users narrow the layout collection by gate library, clocking
///        scheme, physical design algorithm and optimization algorithms,
///        and can ask for the "most optimal" (area-minimal) layout per
///        function. These are the query types; svc::query_engine
///        (service/query.hpp) answers them.

#include "core/catalog.hpp"

#include <map>
#include <optional>
#include <string>
#include <vector>

namespace mnt::cat
{

/// A facet query mirroring the selection boxes of the website. Empty
/// vectors mean "no restriction" on that facet.
struct filter_query
{
    /// Restrict to one benchmark set ("Trindade16", ...).
    std::optional<std::string> benchmark_set;

    /// Restrict to one function name.
    std::optional<std::string> benchmark_name;

    /// Gate libraries to include.
    std::vector<gate_library_kind> libraries;

    /// Clocking scheme names to include.
    std::vector<std::string> clockings;

    /// Physical design algorithms to include ("exact", "ortho", "NPR").
    std::vector<std::string> algorithms;

    /// Optimizations that must ALL have been applied ("PLO", "InOrd (SDN)",
    /// "45°").
    std::vector<std::string> required_optimizations;

    /// Synthetic-family ids to include (matches \ref layout_record::family;
    /// curated layouts have an empty family and never match a non-empty
    /// constraint).
    std::vector<std::string> families;

    /// Keep only the area-minimal layout per (set, function, library) —
    /// the "Most optimal: Best" switch of the web interface.
    bool best_only{false};
};

/// Canonical deterministic ordering of layout records, used by every result
/// surface (the service query engine, store round-trips, the best-layout
/// tie-break) so that pages are byte-stable across runs and processes.
/// Records compare by
///
///   (benchmark_set, benchmark_name, library name, area, label(), clocking,
///    num_wires, num_crossings)
///
/// in that order, each ascending lexicographically/numerically. Records equal
/// on the full key keep their relative catalog insertion order (callers sort
/// with std::stable_sort).
[[nodiscard]] bool canonical_layout_less(const layout_record& a, const layout_record& b);

/// Facet histograms over a layout selection — the counts the website shows
/// next to each filter option. The maps are ordered: iteration yields facet
/// values in ascending lexicographic (byte-wise) order of their names, so
/// serialized facet blocks are deterministic too. The query engine
/// (service/query.hpp) computes them.
struct facet_counts
{
    std::map<std::string, std::size_t> per_set;
    std::map<std::string, std::size_t> per_library;
    std::map<std::string, std::size_t> per_clocking;
    std::map<std::string, std::size_t> per_algorithm;
    std::map<std::string, std::size_t> per_optimization;
    /// Synthetic-family histogram; curated layouts (empty family) are not
    /// counted.
    std::map<std::string, std::size_t> per_family;
};

}  // namespace mnt::cat
