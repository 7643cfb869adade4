#pragma once

/// \file query.hpp
/// \brief Indexed query engine over the catalog — the part of the MNT Bench
///        platform that answers the website's Figure 1 facet queries. It is
///        the only production code that filters the catalog, counts facets
///        and selects best-only rows: the server, the CLI, the examples and
///        the benches all ask it. It builds inverted facet indexes (facet
///        value → sorted posting list of record indexes) once at load time
///        and answers queries by posting-list unions and intersections, then
///        adds pagination, sorting and facet histograms on top.
///
/// Results come in the canonical order
/// (\ref mnt::cat::canonical_layout_less); best-only keeps one record per
/// (set, function, library) by \ref mnt::cat::better_layout. The test suite
/// checks every answer against a linear scan (\ref mnt::pbt::scan_filter,
/// testing/oracles.hpp). The engine additionally assigns every layout a
/// stable content-derived id — the download key of the HTTP server — either
/// taken from the store snapshot or computed from the layout's canonical
/// .fgl serialization (the two agree by definition of the store's content
/// addressing).
///
/// A small JSON wire format covers queries (`page_query::from_json`, query
/// strings via `page_query::from_query_string`) and result pages
/// (`page_json_string`).
///
/// Everything a page needs that does not depend on the query is computed
/// once when the engine is built: the record order of every sort key and
/// direction, integer ids for every facet value, and each row's JSON. A
/// request then only intersects posting lists, counts into arrays, selects
/// its window by integer position and concatenates pre-rendered rows.

#include "core/catalog.hpp"
#include "core/filters.hpp"
#include "service/json.hpp"

#include <array>
#include <cstdint>
#include <optional>
#include <ostream>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace mnt::svc
{

/// Sort key of a result page. Every key uses the canonical order as the
/// final tie-break, so pages are deterministic for any key.
enum class sort_key : std::uint8_t
{
    area,       ///< ascending layout area (the website's default)
    benchmark,  ///< (set, name)
    algorithm,  ///< combined algorithm label
    runtime     ///< generation runtime
};

enum class sort_order : std::uint8_t
{
    ascending,
    descending
};

[[nodiscard]] const char* sort_key_name(sort_key key) noexcept;
[[nodiscard]] sort_key sort_key_from_name(std::string_view name);

/// One page request: a facet filter plus sorting and pagination.
struct page_query
{
    /// Hard cap on the page size; larger limits are clamped.
    static constexpr std::size_t max_limit = 500;

    cat::filter_query filter;
    sort_key sort{sort_key::area};
    sort_order order{sort_order::ascending};
    std::size_t offset{0};
    /// Rows per page; 0 means "metadata only" (total + facets, no rows).
    std::size_t limit{50};
    bool include_facets{true};

    /// Canonical normalized key of this query (vectors sorted + deduped) —
    /// the key of the server's pre-rendered snapshot pages. Two queries with
    /// the same semantics have the same key regardless of how they were
    /// written.
    [[nodiscard]] std::string cache_key() const;

    /// Parses the JSON body format:
    ///
    /// \code{.json}
    /// {"set": "Trindade16", "name": "2:1 MUX",
    ///  "libraries": ["QCA ONE"], "clockings": ["USE"],
    ///  "algorithms": ["exact"], "optimizations": ["PLO"],
    ///  "families": ["<32-hex family id>"],
    ///  "best_only": false, "sort": "area", "order": "asc",
    ///  "offset": 0, "limit": 50, "facets": true}
    /// \endcode
    ///
    /// All members are optional; unknown members raise.
    ///
    /// \throws mnt::mnt_error on unknown members or invalid values
    [[nodiscard]] static page_query from_json(const json_value& document);

    /// Parses an URL query string (`set=...&library=A,B&sort=area&...`).
    /// Keys: set, name, library, clocking, algorithm, opt, family, best,
    /// sort, order, offset, limit, facets. Multi-value facets accept both
    /// comma lists and repeated keys. %XX and '+' decoding applied.
    ///
    /// \throws mnt::mnt_error on unknown keys or invalid values
    [[nodiscard]] static page_query from_query_string(std::string_view query_string);
};

/// One result page.
struct result_page
{
    /// Matches before pagination.
    std::size_t total{0};
    std::size_t offset{0};
    /// The page's rows, in requested sort order.
    std::vector<const cat::layout_record*> rows;
    /// Download id of rows[i].
    std::vector<std::string> ids;
    /// JSON object of rows[i], rendered when the engine was built. These
    /// views point into the engine, as rows point into its catalog: a page
    /// must not outlive the engine that ran it.
    std::vector<std::string_view> rendered;
    /// Facet histograms over ALL matches (empty when not requested).
    cat::facet_counts facets;
};

/// The engine. Holds a reference to the catalog: the catalog must outlive
/// the engine and stay unmodified (the serving pipeline loads the catalog
/// once and never mutates it while queries run — immutability is what makes
/// the server's lock-free read path safe).
class query_engine
{
public:
    /// Builds the indexes. \p ids supplies the content hash per layout
    /// (parallel to cat.layouts(), e.g. from a store snapshot); when empty,
    /// ids are computed from each layout's .fgl serialization.
    explicit query_engine(const cat::catalog& cat, std::vector<std::string> ids = {});

    /// Answers \p query via the indexes: the matching records in canonical
    /// order.
    [[nodiscard]] std::vector<const cat::layout_record*> filter(const cat::filter_query& query) const;

    /// Runs the full page pipeline: filter → facets → the requested window
    /// of the precomputed page order. Rows and facets are identical to
    /// stable-sorting \ref filter's result by the sort key and paginating.
    [[nodiscard]] result_page run(const page_query& query) const;

    /// Download id of catalog.layouts()[index].
    [[nodiscard]] const std::string& id_of(std::size_t index) const;

    /// Index of the layout with download id \p id.
    [[nodiscard]] std::optional<std::size_t> index_of(const std::string& id) const;

    [[nodiscard]] const cat::catalog& catalog() const noexcept;

    /// Number of distinct posting lists across all facet indexes
    /// (diagnostics).
    [[nodiscard]] std::size_t num_index_terms() const noexcept;

private:
    using posting_list = std::vector<std::uint32_t>;

    /// The distinct values of one string attribute in ascending byte order
    /// (the order of the cat::facet_counts maps), each with the ascending
    /// list of the records carrying it. A value's id is its position.
    struct term_index
    {
        std::vector<std::string> values;
        std::vector<posting_list> postings;

        /// Posting list of \p value (empty when no record carries it).
        [[nodiscard]] const posting_list& lookup(const std::string& value) const;
    };

    /// A total order of the records: records[p] is the record at position
    /// p, and rank[i] is the position of record i.
    struct record_order
    {
        posting_list records;
        posting_list rank;

        /// Positions [first, last) of this order restricted to \p selection
        /// (a duplicate-free set of record indexes).
        [[nodiscard]] posting_list window(posting_list selection, std::size_t first, std::size_t last) const;
    };

    /// Record indexes matching \p query, ascending.
    [[nodiscard]] posting_list select(const cat::filter_query& query) const;

    /// Facet histograms over \p selection.
    [[nodiscard]] cat::facet_counts count_facets(const posting_list& selection) const;

    [[nodiscard]] const cat::layout_record& record(std::uint32_t index) const;

    const cat::catalog& cat_ref;
    std::vector<std::string> layout_ids;
    std::unordered_map<std::string, std::size_t> id_index;

    /// The facets, in cat::facet_counts member order.
    enum facet : std::size_t
    {
        set,
        library,
        clocking,
        algorithm,
        optimization,
        family,  ///< synthetic families only
        num_facets
    };

    term_index by_name;
    std::array<term_index, num_facets> by_facet;
    /// Record i's facet values are facet_terms[term_begin[i] ..
    /// term_begin[i + 1]), with value v of facet f numbered term_base[f] + v.
    /// A repeated optimization tag repeats here, so the facets count it
    /// twice.
    std::vector<std::uint32_t> facet_terms;
    std::vector<std::uint32_t> term_begin;
    std::array<std::uint32_t, num_facets + 1> term_base{};
    /// Count of every term over the whole catalog: the facets of a query
    /// that selects every record.
    std::vector<std::size_t> catalog_counts;

    /// Canonical order (\ref mnt::cat::canonical_layout_less).
    record_order canonical;
    /// Page order of sort key k and direction d at [2 * k + d]: the primary
    /// key, ties in canonical order.
    std::array<record_order, 8> page_orders;
    /// JSON object of each record's result row.
    std::vector<std::string> rendered_rows;
};

/// The JSON object of one layout row, as every page's "results" and the
/// export index's "layouts" carry it (member order as shown for
/// \ref page_json_string). The engine renders each record's row once, when
/// it is built.
[[nodiscard]] json_value layout_row_json(const cat::layout_record& record, const std::string& id);

/// Serializes a result page:
///
/// \code{.json}
/// {"total": 12, "offset": 0, "count": 10,
///  "results": [ {"id": "91a...", "set": ..., "name": ..., "library": ...,
///                "clocking": ..., "algorithm": ..., "optimizations": [...],
///                "label": ..., "width": w, "height": h, "area": a,
///                "gates": g, "wires": w, "crossings": c,
///                "runtime_s": t, "family": ..., "family_seed": ...}, ... ],
///  "facets": {"sets": {...}, "libraries": {...}, "clockings": {...},
///             "algorithms": {...}, "optimizations": {...},
///             "families": {...}}}
/// \endcode
///
/// "family"/"family_seed" appear only on synthetic-family rows.
///
/// The "facets" member is present only when the page carries facets.
///
/// \throws mnt::precondition_error when the page's rows were not rendered
///         by a query engine (rendered.size() != rows.size())
[[nodiscard]] std::string page_json_string(const result_page& page);

/// Decodes an URL query string into (key, value) pairs, %XX- and
/// '+'-decoded, in input order.
[[nodiscard]] std::vector<std::pair<std::string, std::string>> parse_query_string(std::string_view query_string);

/// The hot queries of the serving layer, exactly as the HTTP routes
/// construct them: the default first page for every sort key (what
/// `GET /layouts` and `GET /layouts?sort=...` answer with no filter), the
/// facets-only metadata query behind `GET /facets`, and the default
/// best-per-function page behind `GET /best`. The server precomputes these
/// into its immutable catalog snapshot (see server.hpp) so the common
/// queries are answered without touching the engine.
[[nodiscard]] std::vector<page_query> default_page_queries();

}  // namespace mnt::svc
