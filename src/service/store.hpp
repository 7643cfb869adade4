#pragma once

/// \file store.hpp
/// \brief Persistent, content-addressed layout store — the on-disk half of
///        the MNT Bench platform. Where the in-memory mnt::cat::catalog dies
///        with the process, the store keeps every benchmark network (.v) and
///        generated layout (.fgl) as a content-addressed blob next to a
///        versioned JSON manifest with full provenance, and hands a fresh
///        process everything it needs to serve the website's queries again.
///
/// On-disk layout (all paths relative to the store root):
///
///     manifest.json        versioned index: networks, layouts, failures,
///                          completed cache keys (see DESIGN.md "Store")
///     blobs/<hash>.fgl     gate-level layouts, keyed by content hash
///     blobs/<hash>.v       benchmark networks, keyed by content hash
///
/// Durability and tolerance:
///
/// - **Atomic writes.** Blobs and the manifest are written to a temporary
///   file in the same directory and renamed into place, so a crash never
///   leaves a half-written file under its final name. Content addressing
///   makes blob writes idempotent: an existing blob is never rewritten.
/// - **Corruption-tolerant loading.** A damaged manifest entry, a missing or
///   truncated blob, or an unparseable document skips exactly that entry and
///   reports it as a \ref mnt::res::combo_outcome (the PR 2 outcome
///   taxonomy); everything healthy loads. A wholly unreadable manifest
///   degrades to an empty store plus a report entry instead of throwing.
///   Skipped entries are pruned (cache key dropped, mismatched blob file
///   deleted), so incremental regeneration repairs the damage on the next
///   run instead of treating the corrupt entry as cached.
/// - **Incremental regeneration.** Every layout and every completed
///   portfolio combination is indexed under a \ref cache_key;
///   generate_portfolio consults it (via portfolio_params::is_cached) and
///   skips combinations whose results already exist. Failed combinations
///   are deliberately NOT cached: a rerun retries them.

#include "core/catalog.hpp"
#include "common/read_file.hpp"
#include "common/resilience.hpp"
#include "network/logic_network.hpp"
#include "service/json.hpp"

#include <cstdint>
#include <filesystem>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace mnt::svc
{

/// Cache key of one portfolio combination for one benchmark × library:
/// `<set>/<name>|<library>|<combo>`, where `<combo>` is the combination
/// label from \ref mnt::prov::combo_label (e.g. "NPR@USE"). The key of a
/// stored layout is reconstructible from its provenance fields alone.
[[nodiscard]] std::string cache_key(const std::string& set, const std::string& name,
                                    cat::gate_library_kind library, const std::string& combo);

/// Cache key of a layout record (combo label derived from its provenance).
[[nodiscard]] std::string cache_key(const cat::layout_record& record);

/// Everything a fresh process gets back from \ref layout_store::load: the
/// reconstructed catalog, the content hash of every layout (parallel to
/// catalog.layouts(), used as the stable download id), and one outcome per
/// entry that had to be skipped.
struct store_snapshot
{
    cat::catalog catalog;
    /// Content hash (blob id) of catalog.layouts()[i].
    std::vector<std::string> layout_ids;
    /// Skipped entries: label = cache key (or blob name), kind per the
    /// outcome taxonomy (internal_error for corruption), message = detail.
    std::vector<res::combo_outcome> issues;
};

/// Outcome of folding a shard manifest into the store: how many new entries
/// each section contributed (duplicates are skipped) and the content hashes
/// of the absorbed blobs (the journal's content-addressed result ids).
struct merge_stats
{
    std::size_t networks{0};
    std::size_t layouts{0};
    std::size_t failures{0};
    std::size_t completed{0};
    std::vector<std::string> blob_ids{};
};

/// The persistent store. Not internally synchronized: one writer at a time
/// (the generation loop); concurrent readers of the written files are safe
/// because blobs are immutable and the manifest is swapped atomically.
class layout_store
{
public:
    /// Current manifest schema version. Version 2 switched the blob content
    /// address from 64-bit FNV-1a to truncated SHA-256 (collision-safe
    /// download ids); version-1 stores load as empty and are rebuilt by the
    /// next generation run.
    static constexpr std::uint64_t manifest_version = 2;

    /// Subdirectory (under the store root) where supervised workers park
    /// their per-job shard manifests until the parent merges them.
    static constexpr const char* shard_dir_name = "shards";

    /// Opens (or initializes) the store rooted at \p root. Creates the
    /// directory structure on demand and loads an existing manifest. A
    /// corrupt manifest is reported via \ref open_issues and treated as
    /// empty; a manifest from a newer schema version raises. Temp files left
    /// behind by dead writers (`*.tmp-<pid>` with no live process <pid>) are
    /// pruned, so a killed run never pollutes the next one's byte layout.
    ///
    /// \throws mnt::mnt_error when the directories cannot be created or the
    ///         manifest version is unsupported
    explicit layout_store(std::filesystem::path root);

    /// Same, but with the manifest at \p manifest_file (relative to the
    /// root) instead of manifest.json. Supervised worker processes use this
    /// to write a per-job shard manifest (`shards/job-<hash>.json`) sharing
    /// the parent's blob directory: blobs are content-addressed and
    /// idempotent, so concurrent shard writers never conflict, and the
    /// parent stays the only writer of the main manifest.
    layout_store(std::filesystem::path root, const std::filesystem::path& manifest_file);

    [[nodiscard]] const std::filesystem::path& root() const noexcept;

    /// Problems encountered while opening (corrupt manifest, invalid
    /// entries). Never grows after construction.
    [[nodiscard]] const std::vector<res::combo_outcome>& open_issues() const noexcept;

    // ------------------------------------------------------------- ingest

    /// Stores \p network as a .v blob plus a manifest entry. Idempotent per
    /// (set, name). \p family is the synthetic-family id the network was
    /// generated from (empty for curated benchmarks). Returns the blob's
    /// content hash.
    std::string put_network(const std::string& set, const std::string& name, const ntk::logic_network& network,
                            const std::string& family = {});

    /// Stores \p record's layout as an .fgl blob plus a manifest entry with
    /// full provenance. Idempotent per cache key (a duplicate is skipped).
    /// Derived metrics are taken from the embedded layout. Returns the
    /// blob's content hash.
    std::string put_layout(const cat::layout_record& record);

    /// Records a failed combination in the manifest (no blob). Failures are
    /// provenance, not cache entries: \ref contains stays false for them,
    /// and a rerun's retry replaces the previous record for the same
    /// (set, name, library, combination) instead of accumulating.
    void put_failure(const cat::failure_record& record);

    /// Marks a combination as completed-without-a-distinct-layout (e.g.
    /// exact finding no solution within budget, PLO yielding no gain), so
    /// incremental regeneration skips it too.
    void mark_completed(const std::string& key);

    /// Drops the failure record for (set, name, library, combination), if
    /// any. Resume uses this to clear a synthesized worker-crash record once
    /// the job reruns successfully. Returns true when a record was removed.
    bool remove_failure(const std::string& set, const std::string& name, const std::string& library,
                        const std::string& combination);

    /// Folds the manifest at \p path (same schema as manifest.json, e.g. a
    /// worker's shard manifest) into this store's in-memory state. Entries
    /// already present — networks by (set, name), layouts by cache key,
    /// completed markers by key — are skipped; failure records replace any
    /// existing record for the same combination. Call \ref save afterwards
    /// to persist the merged manifest.
    ///
    /// \throws mnt::mnt_error when the file is missing, unparseable, or of
    ///         an unsupported version — a shard that cannot be merged means
    ///         its job must be re-run, not silently dropped
    merge_stats merge_manifest_file(const std::filesystem::path& path);

    /// Writes the manifest atomically and durably (fsync'd file + directory).
    /// Entries are emitted in canonical sorted order, so the manifest bytes
    /// are a pure function of the content set — a resumed run that converges
    /// on the same content produces a byte-identical manifest. Every entry
    /// renders its row when it enters the store (put, absorbed or replaced),
    /// so a save sorts, concatenates the rows and writes. Blobs are
    /// already on disk at this point; a crash before save() loses manifest
    /// entries but never corrupts the store.
    ///
    /// \throws mnt::mnt_error when the manifest cannot be written
    void save();

    // ------------------------------------------------------------- lookup

    /// True when \p key identifies a stored layout or a completed marker.
    [[nodiscard]] bool contains(const std::string& key) const;

    [[nodiscard]] bool has_network(const std::string& set, const std::string& name) const;

    [[nodiscard]] std::size_t num_networks() const noexcept;
    [[nodiscard]] std::size_t num_layouts() const noexcept;
    [[nodiscard]] std::size_t num_failures() const noexcept;

    /// Path of the blob with content hash \p id (with either known
    /// extension), or nullopt when no such blob exists on disk.
    [[nodiscard]] std::optional<std::filesystem::path> blob_path(const std::string& id) const;

    // -------------------------------------------------------------- load

    /// Reconstructs the full catalog from the manifest and the blobs.
    /// Corrupt entries are skipped and reported in the snapshot's issues —
    /// and *pruned*: the entry (and its cache key) is dropped from the
    /// in-memory manifest so \ref contains no longer claims it, and a blob
    /// whose bytes no longer match its hash is deleted from disk so the next
    /// generation run rewrites it instead of being fooled by the stale file.
    store_snapshot load();

private:
    /// One manifest layout entry: layout_record metadata + blob + cache key.
    struct stored_layout
    {
        std::string set;
        std::string name;
        std::string library;
        std::string clocking;
        std::string algorithm;
        std::vector<std::string> optimizations;
        std::uint32_t width{};
        std::uint32_t height{};
        std::uint64_t area{};
        std::uint64_t gates{};
        std::uint64_t wires{};
        std::uint64_t crossings{};
        double runtime_s{};
        /// Synthetic-family id (empty for curated benchmarks). Family fields
        /// are emitted to the manifest only when non-empty, so stores without
        /// synthetic families keep their exact pre-family byte layout.
        std::string family;
        std::uint64_t family_seed{};
        std::string blob;
        std::string key;
        /// This entry's manifest row, rendered from the fields above.
        std::string row;

        void render();
    };

    struct stored_network
    {
        std::string set;
        std::string name;
        std::uint64_t inputs{};
        std::uint64_t outputs{};
        std::uint64_t gates{};
        std::string family;  ///< synthetic-family id, empty for curated
        std::string blob;
        std::string row;  ///< manifest row, rendered from the fields above

        void render();
    };

    struct stored_failure
    {
        std::string set;
        std::string name;
        std::string library;
        std::string combination;
        std::string kind;
        std::string message;
        double elapsed_s{};
        std::uint64_t attempts{};
        std::string row;  ///< manifest row, rendered from the fields above

        void render();
    };

    /// A completed-marker key and its manifest row (the key as a JSON
    /// string).
    struct stored_marker
    {
        std::string key;
        std::string row;
    };

    void load_manifest();
    merge_stats absorb_manifest(const json_value& manifest, const std::string& origin);
    [[nodiscard]] std::filesystem::path manifest_path() const;
    [[nodiscard]] std::filesystem::path blob_dir() const;

    std::filesystem::path store_root;
    std::filesystem::path manifest_file{"manifest.json"};
    std::vector<stored_network> networks;
    std::vector<stored_layout> layouts;
    std::vector<stored_failure> failures;
    std::vector<stored_marker> completed;
    std::unordered_set<std::string> keys;  ///< layout keys ∪ completed markers
    std::unordered_set<std::string> network_names;  ///< "set/name"
    std::vector<res::combo_outcome> issues;
};

/// Writes \p bytes to \p path atomically and durably: temp file in the same
/// directory, fsync of the file, rename into place, fsync of the containing
/// directory — so the entry survives both a crash mid-write (rename
/// atomicity) and power loss after the rename (directory fsync).
///
/// \throws mnt::mnt_error when the file cannot be written or renamed
void write_file_atomic(const std::filesystem::path& path, const std::string& bytes);

/// Reads a whole file into a string: the library's one whole-file reader,
/// \ref mnt::read_file.
///
/// \throws mnt::mnt_error naming the path when the file cannot be read
using mnt::read_file;

}  // namespace mnt::svc
