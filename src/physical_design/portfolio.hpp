#pragma once

/// \file portfolio.hpp
/// \brief The MNT Bench tool portfolio: runs all feasible combinations of
///        physical design algorithms, optimizations and clocking schemes for
///        a benchmark function and collects the resulting layouts — the
///        machinery behind contribution #2/#3 of the paper (filterable
///        layout generation and best-layout selection).

#include "common/resilience.hpp"
#include "layout/clocking_scheme.hpp"
#include "layout/gate_level_layout.hpp"
#include "network/logic_network.hpp"

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace mnt::pd
{

/// One generated layout with its provenance — the row data of Table I.
struct layout_result
{
    lyt::gate_level_layout layout;

    /// Physical design algorithm: "exact", "ortho", or "NPR".
    std::string algorithm;

    /// Applied optimizations in order, e.g. {"InOrd (SDN)", "45°", "PLO"}.
    std::vector<std::string> optimizations;

    /// Clocking scheme name.
    std::string clocking;

    /// Wall-clock seconds spent producing this layout.
    double runtime{0.0};

    /// Combined display label, e.g. "ortho, InOrd (SDN), PLO".
    [[nodiscard]] std::string label() const;
};

/// Portfolio configuration. Thresholds keep the expensive tools on the
/// instance sizes they can handle — mirroring how MNT Bench applies exact
/// only to small functions and NanoPlaceR to small/medium ones.
struct portfolio_params
{
    bool try_exact{true};
    /// exact is attempted when the placeable node count is at most this.
    std::size_t exact_max_nodes{11};
    double exact_timeout_s{2.0};
    std::uint64_t exact_max_area{60};

    bool try_nanoplacer{true};
    std::size_t nanoplacer_max_nodes{90};
    std::size_t nanoplacer_iterations{1500};
    std::uint64_t seed{1};

    bool try_ortho{true};
    bool try_input_ordering{true};
    std::size_t input_orderings{6};

    bool try_plo{true};
    /// PLO is skipped when a layout has more occupied tiles than this.
    std::size_t plo_max_tiles{20000};
    std::size_t plo_max_gate_moves{20000};

    /// Cartesian clocking schemes to explore with exact/NanoPlaceR
    /// (ortho is inherently 2DDWave).
    std::vector<lyt::clocking_kind> cartesian_schemes{lyt::clocking_kind::twoddwave, lyt::clocking_kind::use,
                                                      lyt::clocking_kind::res, lyt::clocking_kind::esr};

    /// Run the logic optimization pipeline (constant propagation,
    /// structural hashing, balancing) before physical design. Function- and
    /// interface-preserving; benchmarks are distributed unoptimized, so this
    /// is off by default (matching the paper's N counts).
    bool optimize_network{false};

    /// Verify every produced layout against the network (slower; used by
    /// tests and the small benchmark sets). Small layouts are additionally
    /// checked with the clock-phase-accurate wave simulator.
    bool verify{false};

    /// Global wall-clock budget in seconds for the whole portfolio run
    /// (0 = unbounded). The deadline is cooperative: every algorithm polls it
    /// and unwinds, and the affected combinations are reported as timeout
    /// outcomes while everything already produced is kept.
    double deadline_s{0.0};

    /// Attempts per combination (>= 1). Transient failures — verification
    /// failures of stochastic tools — are retried under a shifted seed;
    /// timeouts and hard errors fail fast.
    std::size_t max_attempts{2};

    /// Base backoff before a retry in seconds (0 retries immediately, the
    /// right setting for in-process seed-shift retries).
    double retry_backoff_s{0.0};

    /// Incremental-regeneration hook: called with each combination label
    /// (e.g. "NPR@USE") before the combination runs; returning true skips it
    /// entirely — no layout, no outcome entry. Wired to the layout store's
    /// cache keys by the service layer (see mnt::svc::populate_store). Must
    /// be thread-safe when \ref jobs > 1. Unset = run everything.
    std::function<bool(const std::string&)> is_cached{};

    /// Above 1, independent top-level combinations become tasks of the
    /// shared task runtime (\ref mnt::trt::parallel_for): they overlap only
    /// when the runtime has more than one thread, and a serial runtime runs
    /// them inline in task order (1 = run sequentially on the caller's
    /// thread). Results and outcomes are merged in deterministic task order,
    /// so the output is identical for any job count; an optimization
    /// follow-up (PLO) stays with its base combination.
    std::size_t jobs{1};

    /// Optional external cancellation flag (stop_token style): once set, the
    /// run's deadline reads as expired, every algorithm unwinds at its next
    /// poll, and generate_portfolio returns what it has. This is how SIGINT/
    /// SIGTERM handlers stop a regeneration without losing completed work.
    std::shared_ptr<const std::atomic<bool>> stop{};
};

/// The two grid families of the MNT Bench portfolio.
enum class portfolio_flavor : std::uint8_t
{
    cartesian,  ///< QCA ONE: Cartesian grids, 2DDWave/USE/RES/ESR clocking
    hexagonal   ///< Bestagon: hexagonal grids, ROW clocking
};

/// Everything one portfolio run produced: the healthy layouts plus one
/// structured outcome per attempted combination (ok and failed alike) — the
/// failure manifest behind the run report.
struct portfolio_run
{
    std::vector<layout_result> results;
    std::vector<res::combo_outcome> outcomes;

    /// Outcomes with kind != ok, i.e. the failure manifest.
    [[nodiscard]] std::vector<res::combo_outcome> failures() const;
};

/// Runs the portfolio on \p network under full fault isolation: every
/// algorithm × clocking × optimization combination executes inside
/// \ref mnt::res::run_guarded, so one crashing, timing-out or misverifying
/// combination costs exactly its own entry while every healthy layout is
/// still returned.
[[nodiscard]] portfolio_run generate_portfolio(const ntk::logic_network& network, portfolio_flavor flavor,
                                               const portfolio_params& params = {});

/// Runs the Cartesian (QCA ONE) portfolio on \p network and returns the
/// healthy layouts. Convenience wrapper over \ref generate_portfolio —
/// failed combinations are dropped silently here; use generate_portfolio
/// when the failure manifest matters.
[[nodiscard]] std::vector<layout_result> run_cartesian_portfolio(const ntk::logic_network& network,
                                                                 const portfolio_params& params = {});

/// Runs the hexagonal (Bestagon) portfolio on \p network: exact on the hex
/// grid for small functions, ortho(+InOrd)+45° hexagonalization for all, PLO
/// on top where budgeted. Wrapper over \ref generate_portfolio like
/// \ref run_cartesian_portfolio.
[[nodiscard]] std::vector<layout_result> run_hexagonal_portfolio(const ntk::logic_network& network,
                                                                 const portfolio_params& params = {});

/// Pointer to the area-minimal result (ties: fewer wires, then label), or
/// nullptr when \p results is empty.
[[nodiscard]] const layout_result* best_by_area(const std::vector<layout_result>& results);

}  // namespace mnt::pd
