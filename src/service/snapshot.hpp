#pragma once

/// \file snapshot.hpp
/// \brief Immutable serving snapshots for the catalog server. A snapshot
///        freezes everything the hot read path needs — the query engine,
///        the pre-rendered JSON of the default catalog pages, the
///        /benchmarks rows and their strong ETags — into one shared,
///        never-mutated object. The server swaps the current snapshot
///        atomically when the store is regenerated (see
///        \ref mnt::svc::catalog_server::publish), so request handlers read
///        shared immutable state and never take a lock beyond one
///        shared_ptr copy; mutation happens only by replacing the whole
///        snapshot (the shared-state-vs-messaging split, not fine-grained
///        locking).
///
/// ETag derivation: every catalog JSON body, pre-rendered or rendered per
/// request, carries a strong validator — MurmurHash3_x64_128 of its exact
/// bytes (\ref mnt::svc::make_etag). Two byte-identical bodies always share
/// an ETag, and any change to a body that a publish can bring about yields a
/// new one: a page's bytes are a function of the published catalog, which no
/// client controls, so a 128-bit non-cryptographic hash is enough and a
/// cryptographic one would only cost time (SHA-256 was most of a rendered
/// page's cost). A /download/<id> response's ETag is the id itself — the
/// blob's SHA-256 content address (\ref mnt::svc::content_hash).

#include "service/query.hpp"

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace mnt::svc
{

/// One pre-rendered response body plus its strong validator.
struct snapshot_entry
{
    std::string body;
    /// Unquoted strong ETag (32 lowercase hex digits); the wire format adds
    /// the surrounding quotes.
    std::string etag;
};

/// Everything the server's read path needs, frozen at one store generation.
/// Immutable after \ref build_catalog_snapshot returns; shared across event
/// loops via shared_ptr.
struct catalog_snapshot
{
    /// Monotonic publish counter (0 = the snapshot built at server start).
    std::uint64_t generation{0};

    /// The engine answering dynamic queries. The shared_ptr keeps whatever
    /// owns the engine (and the catalog underneath it) alive for as long as
    /// any in-flight request still holds this snapshot.
    std::shared_ptr<const query_engine> engine;

    /// Pre-rendered GET /benchmarks document.
    snapshot_entry benchmarks;

    /// Pre-rendered default catalog pages keyed by
    /// \ref page_query::cache_key (see \ref default_page_queries).
    std::unordered_map<std::string, snapshot_entry> pages;
};

/// Renders the GET /benchmarks document: one row per benchmark function
/// with PI/PO/gate counts and the number of stored layouts. This is the
/// single rendering path — the snapshot builder calls it ahead of time and
/// byte-identity with a per-request render is therefore structural.
[[nodiscard]] std::string render_benchmarks_json(const query_engine& engine);

/// Renders the catalog index that `mnt_bench_cli export --json` writes as
/// index.json, as one compact document:
///
/// \code{.json}
/// {"networks": [ ...the /benchmarks rows of the referenced functions... ],
///  "layouts":  [ ...one /layouts row per selected record... ],
///  "failures": [ {"set": ..., "name": ..., "library": ...,
///                 "combination": "NPR@USE", "kind": "timeout",
///                 "message": ..., "elapsed_s": t, "attempts": n}, ... ]}
/// \endcode
///
/// Networks come in catalog order, each with its catalog-wide layout count;
/// failures are those of the listed networks, in catalog order; layouts
/// keep \p selection's order and are byte-identical to the rows the engine
/// serves (\ref layout_row_json), so each "id" is the content hash of the
/// layout's .fgl.
///
/// \throws mnt::precondition_error when a record of \p selection is not in
///         engine.catalog()
[[nodiscard]] std::string render_index_json(const query_engine& engine,
                                            const std::vector<const cat::layout_record*>& selection);

/// Strong ETag (unquoted) of a response body: MurmurHash3_x64_128 of its
/// bytes with seed 0, as the 32 lowercase hex digits of its 16 output bytes
/// (h1, then h2, each little-endian).
[[nodiscard]] std::string make_etag(std::string_view body);

/// True when the `If-None-Match` header value \p if_none_match matches the
/// unquoted strong ETag \p etag: either the wildcard `*` or any listed
/// entity tag whose opaque value equals \p etag (a `W/` prefix is accepted
/// and ignored — for 304 reuse, weak comparison suffices).
[[nodiscard]] bool etag_matches(std::string_view if_none_match, std::string_view etag) noexcept;

/// Builds a snapshot from \p engine: renders /benchmarks and every
/// \ref default_page_queries page, derives their ETags, and stamps
/// \p generation.
[[nodiscard]] std::shared_ptr<const catalog_snapshot>
build_catalog_snapshot(std::shared_ptr<const query_engine> engine, std::uint64_t generation);

}  // namespace mnt::svc
