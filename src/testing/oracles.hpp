#pragma once

/// \file oracles.hpp
/// \brief Cross-stack correctness oracles for property-based testing: each
///        function packages one invariant the repository promises — "every
///        layout is equivalent to its specification", "accepted .fgl
///        documents reach a byte fixpoint", "the query engine matches the
///        linear scan" — as a composable predicate over generated inputs.
///
/// Oracles return \ref oracle_result instead of asserting, so the harness
/// (proptest.hpp) can shrink the failing input and render a reproducer
/// before reporting. Oracles only catch the repository's typed errors
/// (mnt::mnt_error); anything else — a crash, a foreign exception, a
/// sanitizer finding — escapes to the harness and fails the property.

#include "core/catalog.hpp"
#include "core/filters.hpp"
#include "common/resilience.hpp"
#include "layout/gate_level_layout.hpp"
#include "network/logic_network.hpp"
#include "physical_design/nanoplacer.hpp"
#include "service/query.hpp"
#include "service/server.hpp"
#include "testing/generators.hpp"

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

namespace mnt::pbt
{

/// Outcome of one oracle application.
struct oracle_result
{
    bool passed{true};

    /// First violated invariant (empty on success).
    std::string reason;

    [[nodiscard]] static oracle_result pass()
    {
        return {};
    }

    [[nodiscard]] static oracle_result fail(std::string reason)
    {
        return {false, std::move(reason)};
    }

    explicit operator bool() const noexcept
    {
        return passed;
    }
};

// ------------------------------------------------------- pipeline oracles

/// True when some primary output of \p network constant-propagates to a
/// constant. The physical design tools reject such networks by documented
/// precondition ("constant primary outputs are not supported on FCN
/// layouts"), so pipeline oracles treat them as vacuously passing — and
/// shrinkers therefore never walk a real failure down into one.
[[nodiscard]] bool has_constant_po(const ntk::logic_network& network);

/// The full layout contract: DRC-clean, functionally equivalent to \p
/// specification by graph extraction, *and* equivalent under clock-accurate
/// wave simulation (the two checkers must agree), with an analyzable
/// synchronization profile. This is the invariant every physical design
/// algorithm in the repository promises for its output.
[[nodiscard]] oracle_result check_layout_contract(const ntk::logic_network& specification,
                                                  const lyt::gate_level_layout& layout);

/// ortho(specification) fulfills the layout contract.
[[nodiscard]] oracle_result check_ortho_pipeline(const ntk::logic_network& specification,
                                                 const res::deadline_clock& deadline);

/// nanoplacer(specification, params) either finds no feasible placement
/// (vacuously fine) or its layout fulfills the contract.
[[nodiscard]] oracle_result check_npr_pipeline(const ntk::logic_network& specification,
                                               const pd::nanoplacer_params& params);

/// post_layout_optimization(ortho(specification)) preserves the contract and
/// never grows the layout area.
[[nodiscard]] oracle_result check_plo_pipeline(const ntk::logic_network& specification,
                                               const res::deadline_clock& deadline);

// ------------------------------------------------------------- IO oracles

/// write → read → write of \p layout reaches a byte fixpoint.
[[nodiscard]] oracle_result check_fgl_fixpoint(const lyt::gate_level_layout& layout);

/// The .fgl reader either accepts \p document — in which case the parsed
/// layout must reach the write fixpoint — or raises a typed mnt::mnt_error.
[[nodiscard]] oracle_result check_fgl_document(const std::string& document);

/// The Verilog reader either accepts \p document (the parsed network must
/// then survive a write/read round-trip as an equivalent network) or raises
/// a typed mnt::mnt_error.
[[nodiscard]] oracle_result check_verilog_document(const std::string& document);

/// write_verilog(primitives) round-trips \p network structurally (up to
/// dead logic, which the reader drops exactly like ntk::cleanup); the
/// assignments style round-trips it functionally.
[[nodiscard]] oracle_result check_verilog_roundtrip(const ntk::logic_network& network);

// ------------------------------------------------- layout container oracle

/// Applies a mutation program to a fresh side x side 2DDWave layout,
/// treating precondition_error as a rejected op, and checks the container
/// invariants after every step: occupancy counters vs. scans, mutual
/// incoming/outgoing consistency, fanin/fanout capacities, sortedness of
/// tiles_sorted(), PI/PO list hygiene — and that a rejected op left no trace.
[[nodiscard]] oracle_result check_layout_ops(const std::vector<layout_op>& ops, std::uint32_t side);

// -------------------------------------------------------- service oracles

/// Ingests \p network and its ortho layout into a fresh store under \p root,
/// saves, reopens, loads — and checks that the snapshot reproduces the
/// records byte-identically (blob id, cache key, metrics, .fgl bytes) with
/// no load issues. \p root must be a fresh directory per call.
[[nodiscard]] oracle_result check_store_roundtrip(const ntk::logic_network& network,
                                                  const std::filesystem::path& root);

/// The reference semantics of a filter query: a linear scan over every
/// record of \p cat, one record per (set, name, library) by
/// cat::better_layout when best_only is set, the result stable-sorted into
/// canonical order (cat::canonical_layout_less). The query engine must
/// return exactly these records in exactly this order.
[[nodiscard]] std::vector<const cat::layout_record*> scan_filter(const cat::catalog& cat,
                                                                 const cat::filter_query& query);

/// The reference facet histograms of \p selection: every record counted once
/// per facet, every optimization tag once per occurrence, family only when
/// non-empty.
[[nodiscard]] cat::facet_counts scan_facets(const std::vector<const cat::layout_record*>& selection);

/// query_engine::filter == scan_filter on the same catalog: same records,
/// same order.
[[nodiscard]] oracle_result check_query_parity(const svc::query_engine& engine, const cat::catalog& cat,
                                               const cat::filter_query& query);

/// query_engine::run is consistent with a linear-scan re-derivation: total,
/// the exact [offset, offset + limit) window of scan_filter stably sorted by
/// the requested key, all six facet histograms (scan_facets), id alignment,
/// and a rendered body that parses and dumps back to the same bytes.
[[nodiscard]] oracle_result check_page_consistency(const svc::query_engine& engine, const cat::catalog& cat,
                                                   const svc::page_query& query);

/// Feeds a raw byte-stream through \ref svc::parse_http_request and, when a
/// complete request parses, through \ref svc::catalog_server::handle. The
/// parser must classify (never throw), the handler must answer with a known
/// status — 5xx counts as a failure — and JSON responses must parse.
[[nodiscard]] oracle_result check_http_byte_stream(svc::catalog_server& server, const std::string& bytes);

}  // namespace mnt::pbt
