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
/// request, carries a strong validator — the 128-bit truncated SHA-256 of
/// its exact bytes (\ref mnt::svc::content_hash), the same function that
/// addresses store blobs. Two byte-identical bodies always share an ETag,
/// any byte change produces a new one, and a /download/<id> response's
/// ETag is the id itself (it already is the blob's content hash).

#include "service/query.hpp"

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>

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

/// Strong ETag (unquoted) of a response body: its truncated-SHA-256
/// content hash.
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
