#pragma once

/// \file suites.hpp
/// \brief The four benchmark sets of MNT Bench's Table I: Trindade16,
///        Fontes18, ISCAS85 and EPFL, each as a list of named network
///        builders. Small functions are exact netlists; the large
///        ISCAS85/EPFL circuits are deterministic synthetic stand-ins with
///        the published I/O/N counts (DESIGN.md §4).

#include "network/logic_network.hpp"

#include <functional>
#include <string>
#include <vector>

namespace mnt::bm
{

/// Rough instance size, used by harnesses to budget the tool portfolio.
enum class size_class : std::uint8_t
{
    /// Up to ~a dozen placeable nodes: exact applies.
    tiny,
    /// Up to ~100 nodes: stochastic placement applies.
    small,
    /// Hundreds of nodes.
    medium,
    /// Thousands of nodes: scalable heuristics only.
    large
};

/// One benchmark function inside a set.
struct benchmark_entry
{
    /// Set name: "Trindade16", "Fontes18", "ISCAS85", "EPFL", or a synthetic
    /// family set ("Family-<name>", see families.hpp).
    std::string set;

    /// Function name as it appears in Table I.
    std::string name;

    /// Builds the network on demand.
    std::function<ntk::logic_network()> build;

    size_class size{size_class::tiny};

    /// Synthetic-family id (32-hex hash of parameters + seed + generator
    /// version, see \ref mnt::bm::family_id); empty for the curated Table I
    /// functions. Propagated through the portfolio into catalog records and
    /// the service's `family` facet.
    std::string family{};

    /// Per-function generator seed within the family; 0 for curated entries.
    std::uint64_t family_seed{0};
};

/// The Trindade16 set (7 functions).
[[nodiscard]] std::vector<benchmark_entry> trindade16();

/// The Fontes18 set (11 functions).
[[nodiscard]] std::vector<benchmark_entry> fontes18();

/// The ISCAS85 set (11 circuits; c17 exact, the rest synthetic stand-ins).
[[nodiscard]] std::vector<benchmark_entry> iscas85();

/// The EPFL set (11 circuits; synthetic stand-ins).
[[nodiscard]] std::vector<benchmark_entry> epfl();

/// All four sets concatenated in Table I order.
[[nodiscard]] std::vector<benchmark_entry> all_suites();

}  // namespace mnt::bm
