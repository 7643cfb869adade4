#include "service/query.hpp"

#include "common/json_escape.hpp"
#include "io/fgl_writer.hpp"
#include "service/hash.hpp"
#include "telemetry/telemetry.hpp"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <map>
#include <numeric>
#include <tuple>

namespace mnt::svc
{

namespace
{

/// Union of sorted posting lists (ascending, duplicate-free).
std::vector<std::uint32_t> postings_union(std::vector<const std::vector<std::uint32_t>*> lists)
{
    std::vector<std::uint32_t> merged;
    for (const auto* list : lists)
    {
        std::vector<std::uint32_t> next;
        next.reserve(merged.size() + list->size());
        std::set_union(merged.cbegin(), merged.cend(), list->cbegin(), list->cend(), std::back_inserter(next));
        merged = std::move(next);
    }
    return merged;
}

/// Intersection of two sorted lists.
std::vector<std::uint32_t> postings_intersection(const std::vector<std::uint32_t>& a,
                                                 const std::vector<std::uint32_t>& b)
{
    std::vector<std::uint32_t> out;
    out.reserve(std::min(a.size(), b.size()));
    std::set_intersection(a.cbegin(), a.cend(), b.cbegin(), b.cend(), std::back_inserter(out));
    return out;
}

/// Decimal digits only, within size_t: a sign, whitespace or an overflow is
/// an error, never a wrapped value (the JSON body's as_u64 rejects negative
/// and out-of-range numbers the same way).
std::size_t parse_size(const std::string& text, const char* what)
{
    std::size_t value = 0;
    const auto* const last = text.data() + text.size();
    const auto [end, error] = std::from_chars(text.data(), last, value);
    if (error != std::errc{} || end != last)
    {
        throw mnt_error{std::string{"query: invalid "} + what + " '" + text + "'"};
    }
    return value;
}

bool parse_bool(const std::string& text, const char* what)
{
    if (text == "1" || text == "true" || text == "on")
    {
        return true;
    }
    if (text == "0" || text == "false" || text == "off" || text.empty())
    {
        return false;
    }
    throw mnt_error{std::string{"query: invalid "} + what + " '" + text + "'"};
}

/// Splits a comma list, dropping empty tokens.
std::vector<std::string> split_commas(const std::string& text)
{
    std::vector<std::string> tokens;
    std::size_t start = 0;
    while (start <= text.size())
    {
        const auto comma = text.find(',', start);
        const auto end = comma == std::string::npos ? text.size() : comma;
        if (end > start)
        {
            tokens.push_back(text.substr(start, end - start));
        }
        if (comma == std::string::npos)
        {
            break;
        }
        start = comma + 1;
    }
    return tokens;
}

std::vector<std::string> sorted_unique(std::vector<std::string> values)
{
    std::sort(values.begin(), values.end());
    values.erase(std::unique(values.begin(), values.end()), values.end());
    return values;
}

void append_list(std::string& out, const char* tag, const std::vector<std::string>& values)
{
    out += tag;
    bool first = true;
    for (const auto& v : sorted_unique(values))
    {
        if (!first)
        {
            out += ",";
        }
        first = false;
        out += v;
    }
}

json_value row_to_json(const cat::layout_record& r, const std::string& id)
{
    auto row = json_value::make_object();
    row.set("id", json_value{id});
    row.set("set", json_value{r.benchmark_set});
    row.set("name", json_value{r.benchmark_name});
    row.set("library", json_value{cat::gate_library_name(r.library)});
    row.set("clocking", json_value{r.clocking});
    row.set("algorithm", json_value{r.algorithm});
    auto opts = json_value::make_array();
    for (const auto& o : r.optimizations)
    {
        opts.push_back(json_value{o});
    }
    row.set("optimizations", std::move(opts));
    row.set("label", json_value{r.label()});
    row.set("width", json_value{std::uint64_t{r.width}});
    row.set("height", json_value{std::uint64_t{r.height}});
    row.set("area", json_value{r.area});
    row.set("gates", json_value{static_cast<std::uint64_t>(r.num_gates)});
    row.set("wires", json_value{static_cast<std::uint64_t>(r.num_wires)});
    row.set("crossings", json_value{static_cast<std::uint64_t>(r.num_crossings)});
    row.set("runtime_s", json_value{r.runtime});
    if (!r.family.empty())
    {
        row.set("family", json_value{r.family});
        // hex string: 64-bit seeds do not fit a JSON double losslessly
        char seed_hex[19];
        std::snprintf(seed_hex, sizeof seed_hex, "0x%016llx", static_cast<unsigned long long>(r.family_seed));
        row.set("family_seed", json_value{std::string{seed_hex}});
    }
    return row;
}

/// The facet maps in the order of their page blocks (and of
/// query_engine::by_facet), with the block names.
using facet_map = std::map<std::string, std::size_t>;
constexpr std::array<facet_map cat::facet_counts::*, 6> facet_maps{
    &cat::facet_counts::per_set,       &cat::facet_counts::per_library,      &cat::facet_counts::per_clocking,
    &cat::facet_counts::per_algorithm, &cat::facet_counts::per_optimization, &cat::facet_counts::per_family};
constexpr std::array<const char*, 6> facet_names{"sets",       "libraries",     "clockings",
                                                 "algorithms", "optimizations", "families"};

}  // namespace

const char* sort_key_name(const sort_key key) noexcept
{
    switch (key)
    {
        case sort_key::area: return "area";
        case sort_key::benchmark: return "benchmark";
        case sort_key::algorithm: return "algorithm";
        case sort_key::runtime: return "runtime";
    }
    return "area";
}

sort_key sort_key_from_name(const std::string_view name)
{
    if (name == "area")
    {
        return sort_key::area;
    }
    if (name == "benchmark")
    {
        return sort_key::benchmark;
    }
    if (name == "algorithm")
    {
        return sort_key::algorithm;
    }
    if (name == "runtime")
    {
        return sort_key::runtime;
    }
    throw mnt_error{"query: unknown sort key '" + std::string{name} + "'"};
}

std::string page_query::cache_key() const
{
    std::string key;
    key += "set=" + (filter.benchmark_set.has_value() ? *filter.benchmark_set : std::string{"*"});
    key += "|name=" + (filter.benchmark_name.has_value() ? *filter.benchmark_name : std::string{"*"});
    std::vector<std::string> libraries;
    for (const auto library : filter.libraries)
    {
        libraries.push_back(cat::gate_library_name(library));
    }
    append_list(key, "|lib=", libraries);
    append_list(key, "|clk=", filter.clockings);
    append_list(key, "|alg=", filter.algorithms);
    append_list(key, "|opt=", filter.required_optimizations);
    append_list(key, "|fam=", filter.families);
    key += filter.best_only ? "|best=1" : "|best=0";
    key += std::string{"|sort="} + sort_key_name(sort);
    key += order == sort_order::ascending ? "|ord=asc" : "|ord=desc";
    key += "|off=" + std::to_string(offset);
    key += "|lim=" + std::to_string(std::min(limit, max_limit));
    key += include_facets ? "|fac=1" : "|fac=0";
    return key;
}

page_query page_query::from_json(const json_value& document)
{
    page_query query{};
    for (const auto& [name, value] : document.as_object())
    {
        if (name == "set")
        {
            query.filter.benchmark_set = value.as_string();
        }
        else if (name == "name")
        {
            query.filter.benchmark_name = value.as_string();
        }
        else if (name == "libraries")
        {
            for (const auto& library : value.as_array())
            {
                query.filter.libraries.push_back(cat::gate_library_from_name(library.as_string()));
            }
        }
        else if (name == "clockings")
        {
            for (const auto& clocking : value.as_array())
            {
                query.filter.clockings.push_back(clocking.as_string());
            }
        }
        else if (name == "algorithms")
        {
            for (const auto& algorithm : value.as_array())
            {
                query.filter.algorithms.push_back(algorithm.as_string());
            }
        }
        else if (name == "optimizations")
        {
            for (const auto& optimization : value.as_array())
            {
                query.filter.required_optimizations.push_back(optimization.as_string());
            }
        }
        else if (name == "families")
        {
            for (const auto& family : value.as_array())
            {
                query.filter.families.push_back(family.as_string());
            }
        }
        else if (name == "best_only")
        {
            query.filter.best_only = value.as_boolean();
        }
        else if (name == "sort")
        {
            query.sort = sort_key_from_name(value.as_string());
        }
        else if (name == "order")
        {
            const auto& order = value.as_string();
            if (order != "asc" && order != "desc")
            {
                throw mnt_error{"query: invalid order '" + order + "'"};
            }
            query.order = order == "asc" ? sort_order::ascending : sort_order::descending;
        }
        else if (name == "offset")
        {
            query.offset = static_cast<std::size_t>(value.as_u64());
        }
        else if (name == "limit")
        {
            query.limit = static_cast<std::size_t>(value.as_u64());
        }
        else if (name == "facets")
        {
            query.include_facets = value.as_boolean();
        }
        else
        {
            throw mnt_error{"query: unknown member '" + name + "'"};
        }
    }
    return query;
}

page_query page_query::from_query_string(const std::string_view query_string)
{
    page_query query{};
    for (const auto& [key, value] : parse_query_string(query_string))
    {
        if (key == "set")
        {
            query.filter.benchmark_set = value;
        }
        else if (key == "name")
        {
            query.filter.benchmark_name = value;
        }
        else if (key == "library")
        {
            for (const auto& library : split_commas(value))
            {
                query.filter.libraries.push_back(cat::gate_library_from_name(library));
            }
        }
        else if (key == "clocking")
        {
            for (auto& clocking : split_commas(value))
            {
                query.filter.clockings.push_back(std::move(clocking));
            }
        }
        else if (key == "algorithm")
        {
            for (auto& algorithm : split_commas(value))
            {
                query.filter.algorithms.push_back(std::move(algorithm));
            }
        }
        else if (key == "opt")
        {
            for (auto& optimization : split_commas(value))
            {
                query.filter.required_optimizations.push_back(std::move(optimization));
            }
        }
        else if (key == "family")
        {
            for (auto& family : split_commas(value))
            {
                query.filter.families.push_back(std::move(family));
            }
        }
        else if (key == "best")
        {
            query.filter.best_only = parse_bool(value, "best");
        }
        else if (key == "sort")
        {
            query.sort = sort_key_from_name(value);
        }
        else if (key == "order")
        {
            if (value != "asc" && value != "desc")
            {
                throw mnt_error{"query: invalid order '" + value + "'"};
            }
            query.order = value == "asc" ? sort_order::ascending : sort_order::descending;
        }
        else if (key == "offset")
        {
            query.offset = parse_size(value, "offset");
        }
        else if (key == "limit")
        {
            query.limit = parse_size(value, "limit");
        }
        else if (key == "facets")
        {
            query.include_facets = parse_bool(value, "facets");
        }
        else
        {
            throw mnt_error{"query: unknown parameter '" + key + "'"};
        }
    }
    return query;
}

std::vector<std::pair<std::string, std::string>> parse_query_string(const std::string_view query_string)
{
    const auto decode = [](const std::string_view raw)
    {
        std::string out;
        out.reserve(raw.size());
        for (std::size_t i = 0; i < raw.size(); ++i)
        {
            const char c = raw[i];
            if (c == '+')
            {
                out.push_back(' ');
            }
            else if (c == '%')
            {
                const auto hex = [&](const char h) -> int
                {
                    if (h >= '0' && h <= '9')
                    {
                        return h - '0';
                    }
                    if (h >= 'a' && h <= 'f')
                    {
                        return h - 'a' + 10;
                    }
                    if (h >= 'A' && h <= 'F')
                    {
                        return h - 'A' + 10;
                    }
                    return -1;
                };
                if (i + 2 >= raw.size() || hex(raw[i + 1]) < 0 || hex(raw[i + 2]) < 0)
                {
                    throw mnt_error{"query: malformed percent-encoding"};
                }
                out.push_back(static_cast<char>((hex(raw[i + 1]) << 4) | hex(raw[i + 2])));
                i += 2;
            }
            else
            {
                out.push_back(c);
            }
        }
        return out;
    };

    std::vector<std::pair<std::string, std::string>> pairs;
    std::size_t start = 0;
    while (start < query_string.size())
    {
        auto amp = query_string.find('&', start);
        if (amp == std::string_view::npos)
        {
            amp = query_string.size();
        }
        const auto pair = query_string.substr(start, amp - start);
        if (!pair.empty())
        {
            const auto eq = pair.find('=');
            if (eq == std::string_view::npos)
            {
                pairs.emplace_back(decode(pair), std::string{});
            }
            else
            {
                pairs.emplace_back(decode(pair.substr(0, eq)), decode(pair.substr(eq + 1)));
            }
        }
        start = amp + 1;
    }
    return pairs;
}

query_engine::query_engine(const cat::catalog& cat, std::vector<std::string> ids) :
        cat_ref{cat},
        layout_ids{std::move(ids)}
{
    const tel::stopwatch watch;
    const auto& records = cat.layouts();
    const auto n = static_cast<std::uint32_t>(records.size());

    if (layout_ids.size() != n)
    {
        layout_ids.clear();
        layout_ids.reserve(n);
        for (const auto& r : records)
        {
            layout_ids.push_back(content_hash(io::write_fgl_string(r.layout)));
        }
    }
    for (std::size_t i = 0; i < n; ++i)
    {
        id_index.emplace(layout_ids[i], i);  // first occurrence wins
    }

    // posting lists by value, frozen into sorted term indexes below
    std::map<std::string, posting_list> names;
    std::array<std::map<std::string, posting_list>, num_facets> facets;
    for (std::uint32_t i = 0; i < n; ++i)
    {
        const auto& r = records[i];
        names[r.benchmark_name].push_back(i);
        facets[set][r.benchmark_set].push_back(i);
        facets[library][cat::gate_library_name(r.library)].push_back(i);
        facets[clocking][r.clocking].push_back(i);
        facets[algorithm][r.algorithm].push_back(i);
        for (const auto& opt : r.optimizations)
        {
            auto& postings = facets[optimization][opt];
            if (postings.empty() || postings.back() != i)  // dedupe repeated tags
            {
                postings.push_back(i);
            }
        }
        if (!r.family.empty())
        {
            facets[family][r.family].push_back(i);
        }
    }
    const auto freeze = [](std::map<std::string, posting_list>& index)
    {
        term_index frozen{};
        for (auto& [value, postings] : index)
        {
            frozen.values.push_back(value);
            frozen.postings.push_back(std::move(postings));
        }
        return frozen;
    };
    by_name = freeze(names);
    for (std::size_t f = 0; f < facets.size(); ++f)
    {
        by_facet[f] = freeze(facets[f]);
        term_base[f + 1] = term_base[f] + static_cast<std::uint32_t>(by_facet[f].values.size());
    }

    // every record's facet values as term ids, repeated tags included
    const auto term = [&](const std::size_t f, const std::string& value)
    {
        const auto& values = by_facet[f].values;
        return term_base[f] +
               static_cast<std::uint32_t>(std::lower_bound(values.cbegin(), values.cend(), value) - values.cbegin());
    };
    term_begin.reserve(n + 1);
    for (const auto& r : records)
    {
        term_begin.push_back(static_cast<std::uint32_t>(facet_terms.size()));
        facet_terms.push_back(term(set, r.benchmark_set));
        facet_terms.push_back(term(library, cat::gate_library_name(r.library)));
        facet_terms.push_back(term(clocking, r.clocking));
        facet_terms.push_back(term(algorithm, r.algorithm));
        for (const auto& opt : r.optimizations)
        {
            facet_terms.push_back(term(optimization, opt));
        }
        if (!r.family.empty())
        {
            facet_terms.push_back(term(family, r.family));
        }
    }
    term_begin.push_back(static_cast<std::uint32_t>(facet_terms.size()));
    catalog_counts.assign(term_base.back(), 0);
    for (const auto t : facet_terms)
    {
        ++catalog_counts[t];
    }

    // the canonical order, then each page order as a stable sort of it by
    // the primary key: exactly what sorting a canonical selection gives
    const auto sorted = [](posting_list order, const auto& less)
    {
        std::stable_sort(order.begin(), order.end(), less);
        posting_list rank(order.size());
        for (std::uint32_t position = 0; position < order.size(); ++position)
        {
            rank[order[position]] = position;
        }
        return record_order{std::move(order), std::move(rank)};
    };
    posting_list catalog_order(n);
    std::iota(catalog_order.begin(), catalog_order.end(), 0U);
    canonical = sorted(std::move(catalog_order), [&](const std::uint32_t a, const std::uint32_t b)
                       { return cat::canonical_layout_less(records[a], records[b]); });

    std::vector<std::string> labels;
    labels.reserve(n);
    for (const auto& r : records)
    {
        labels.push_back(r.label());
    }
    const auto primary_less = [&](const sort_key key, const std::uint32_t a, const std::uint32_t b)
    {
        switch (key)
        {
            case sort_key::area: return records[a].area < records[b].area;
            case sort_key::benchmark:
                return std::tie(records[a].benchmark_set, records[a].benchmark_name) <
                       std::tie(records[b].benchmark_set, records[b].benchmark_name);
            case sort_key::algorithm: return labels[a] < labels[b];
            case sort_key::runtime: return records[a].runtime < records[b].runtime;
        }
        return false;
    };
    for (const auto key : {sort_key::area, sort_key::benchmark, sort_key::algorithm, sort_key::runtime})
    {
        const auto slot = 2 * static_cast<std::size_t>(key);
        page_orders[slot] = sorted(canonical.records, [&](const std::uint32_t a, const std::uint32_t b)
                                   { return primary_less(key, a, b); });
        page_orders[slot + 1] = sorted(canonical.records, [&](const std::uint32_t a, const std::uint32_t b)
                                       { return primary_less(key, b, a); });
    }

    rendered_rows.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i)
    {
        rendered_rows.push_back(row_to_json(records[i], layout_ids[i]).dump());
    }

    if (tel::enabled())
    {
        tel::count("query.engine_builds");
        tel::observe("query.engine_build_s", watch.seconds());
        tel::set_gauge("query.indexed_layouts", static_cast<double>(n));
    }
}

const query_engine::posting_list& query_engine::term_index::lookup(const std::string& value) const
{
    static const posting_list empty{};
    const auto found = std::lower_bound(values.cbegin(), values.cend(), value);
    return found != values.cend() && *found == value ? postings[static_cast<std::size_t>(found - values.cbegin())] :
                                                       empty;
}

query_engine::posting_list query_engine::record_order::window(posting_list selection, const std::size_t first,
                                                              const std::size_t last) const
{
    if (first >= last)
    {
        return {};
    }
    const auto from = static_cast<std::ptrdiff_t>(first);
    const auto to = static_cast<std::ptrdiff_t>(last);
    if (selection.size() == records.size())  // every record: a slice of the order itself
    {
        return {records.cbegin() + from, records.cbegin() + to};
    }
    // positions are unique, so selecting by position needs no tie-break
    for (auto& index : selection)
    {
        index = rank[index];
    }
    std::nth_element(selection.begin(), selection.begin() + from, selection.end());
    std::partial_sort(selection.begin() + from, selection.begin() + to, selection.end());
    posting_list page;
    page.reserve(last - first);
    for (auto position = selection.cbegin() + from; position != selection.cbegin() + to; ++position)
    {
        page.push_back(records[*position]);
    }
    return page;
}

const cat::layout_record& query_engine::record(const std::uint32_t index) const
{
    return cat_ref.layouts()[index];
}

query_engine::posting_list query_engine::select(const cat::filter_query& query) const
{
    const tel::stopwatch watch;
    const auto n = static_cast<std::uint32_t>(cat_ref.layouts().size());

    // gather one sorted posting list per active constraint
    std::vector<posting_list> constraints;
    if (query.benchmark_set.has_value())
    {
        constraints.push_back(by_facet[set].lookup(*query.benchmark_set));
    }
    if (query.benchmark_name.has_value())
    {
        constraints.push_back(by_name.lookup(*query.benchmark_name));
    }
    const auto union_constraint = [&](const term_index& index, const std::vector<std::string>& values)
    {
        std::vector<const posting_list*> lists;
        for (const auto& value : values)
        {
            lists.push_back(&index.lookup(value));
        }
        constraints.push_back(postings_union(std::move(lists)));
    };
    if (!query.libraries.empty())
    {
        std::vector<std::string> libraries;
        for (const auto kind : query.libraries)
        {
            libraries.push_back(cat::gate_library_name(kind));
        }
        union_constraint(by_facet[library], libraries);
    }
    if (!query.clockings.empty())
    {
        union_constraint(by_facet[clocking], query.clockings);
    }
    if (!query.algorithms.empty())
    {
        union_constraint(by_facet[algorithm], query.algorithms);
    }
    if (!query.families.empty())
    {
        union_constraint(by_facet[family], query.families);
    }
    for (const auto& opt : query.required_optimizations)
    {
        constraints.push_back(by_facet[optimization].lookup(opt));
    }

    // intersect smallest-first to keep intermediate results minimal
    posting_list candidates;
    if (constraints.empty())
    {
        candidates.resize(n);
        std::iota(candidates.begin(), candidates.end(), 0U);
    }
    else
    {
        std::sort(constraints.begin(), constraints.end(),
                  [](const posting_list& a, const posting_list& b) { return a.size() < b.size(); });
        candidates = constraints.front();
        for (std::size_t i = 1; i < constraints.size() && !candidates.empty(); ++i)
        {
            candidates = postings_intersection(candidates, constraints[i]);
        }
    }

    if (query.best_only)
    {
        // identical selection rule to apply_filter: first area-minimal (ties:
        // fewer wires) record per (set, name, library) in insertion order
        std::map<std::tuple<std::string, std::string, cat::gate_library_kind>, std::uint32_t> best;
        for (const auto i : candidates)
        {
            const auto& r = record(i);
            const auto slot = best.find({r.benchmark_set, r.benchmark_name, r.library});
            if (slot == best.cend())
            {
                best.emplace(std::make_tuple(r.benchmark_set, r.benchmark_name, r.library), i);
                continue;
            }
            const auto& current = record(slot->second);
            if (r.area < current.area || (r.area == current.area && r.num_wires < current.num_wires))
            {
                slot->second = i;
            }
        }
        candidates.clear();
        for (const auto& [key, i] : best)
        {
            candidates.push_back(i);
        }
        std::sort(candidates.begin(), candidates.end());
    }

    if (tel::enabled())
    {
        tel::count("query.filters");
        tel::count("query.filter_hits", candidates.size());
        tel::observe("query.filter_s", watch.seconds());
    }
    return candidates;
}

cat::facet_counts query_engine::count_facets(const posting_list& selection) const
{
    // a selection of every record has the catalog's counts
    auto counts = catalog_counts;
    if (selection.size() != cat_ref.layouts().size())
    {
        counts.assign(counts.size(), 0);
        for (const auto i : selection)
        {
            for (auto t = term_begin[i]; t < term_begin[i + 1]; ++t)
            {
                ++counts[facet_terms[t]];
            }
        }
    }
    cat::facet_counts histograms{};
    for (std::size_t f = 0; f < by_facet.size(); ++f)
    {
        auto& histogram = histograms.*facet_maps[f];
        for (std::size_t v = 0; v < by_facet[f].values.size(); ++v)
        {
            if (const auto count = counts[term_base[f] + v]; count > 0)
            {
                histogram.emplace_hint(histogram.end(), by_facet[f].values[v], count);
            }
        }
    }
    return histograms;
}

std::vector<const cat::layout_record*> query_engine::filter(const cat::filter_query& query) const
{
    auto selection = select(query);
    const auto count = selection.size();
    std::vector<const cat::layout_record*> result;
    result.reserve(count);
    for (const auto i : canonical.window(std::move(selection), 0, count))
    {
        result.push_back(&record(i));
    }
    return result;
}

result_page query_engine::run(const page_query& query) const
{
    MNT_SPAN("query/run");
    auto selection = select(query.filter);
    result_page page{};
    page.total = selection.size();
    page.offset = query.offset;

    if (query.include_facets)
    {
        page.facets = count_facets(selection);
    }

    const auto first = std::min(query.offset, selection.size());
    const auto last = std::min(first + std::min(query.limit, page_query::max_limit), selection.size());
    const auto& order = page_orders[2 * static_cast<std::size_t>(query.sort) + static_cast<std::size_t>(query.order)];
    const auto window = order.window(std::move(selection), first, last);
    page.rows.reserve(window.size());
    page.ids.reserve(window.size());
    page.rendered.reserve(window.size());
    for (const auto i : window)
    {
        page.rows.push_back(&record(i));
        page.ids.push_back(layout_ids[i]);
        page.rendered.emplace_back(rendered_rows[i]);
    }
    tel::count("query.pages");
    return page;
}

const std::string& query_engine::id_of(const std::size_t index) const
{
    return layout_ids.at(index);
}

std::optional<std::size_t> query_engine::index_of(const std::string& id) const
{
    const auto found = id_index.find(id);
    if (found == id_index.cend())
    {
        return std::nullopt;
    }
    return found->second;
}

const cat::catalog& query_engine::catalog() const noexcept
{
    return cat_ref;
}

std::size_t query_engine::num_index_terms() const noexcept
{
    return by_name.values.size() + term_base.back();
}

std::string page_json_string(const result_page& page)
{
    if (page.rendered.size() != page.rows.size())
    {
        throw precondition_error{"page_json_string: the page's rows were not rendered by a query engine"};
    }
    std::string out;
    std::size_t row_bytes = 0;
    for (const auto row : page.rendered)
    {
        row_bytes += row.size() + 1;
    }
    out.reserve(row_bytes + 512);

    out += "{\"total\":";
    out += json_number_string(static_cast<double>(page.total));
    out += ",\"offset\":";
    out += json_number_string(static_cast<double>(page.offset));
    out += ",\"count\":";
    out += json_number_string(static_cast<double>(page.rows.size()));
    out += ",\"results\":[";
    for (std::size_t i = 0; i < page.rendered.size(); ++i)
    {
        if (i > 0)
        {
            out.push_back(',');
        }
        out += page.rendered[i];
    }
    out.push_back(']');

    const auto has_facets = std::any_of(facet_maps.cbegin(), facet_maps.cend(),
                                        [&](const auto member) { return !(page.facets.*member).empty(); });
    if (has_facets || page.total == 0)
    {
        out += ",\"facets\":{";
        for (std::size_t f = 0; f < facet_maps.size(); ++f)
        {
            out += f == 0 ? "\"" : ",\"";
            out += facet_names[f];
            out += "\":{";
            bool first = true;
            for (const auto& [value, count] : page.facets.*facet_maps[f])
            {
                out += first ? "\"" : ",\"";
                first = false;
                out += json_escape(value);
                out += "\":";
                out += json_number_string(static_cast<double>(count));
            }
            out.push_back('}');
        }
        out.push_back('}');
    }
    out.push_back('}');
    return out;
}

std::vector<page_query> default_page_queries()
{
    std::vector<page_query> queries;
    // GET /layouts and its sort variants: default filter, first page
    for (const auto key : {sort_key::area, sort_key::benchmark, sort_key::algorithm, sort_key::runtime})
    {
        page_query query{};
        query.sort = key;
        queries.push_back(query);
    }
    // GET /facets: metadata only
    page_query facets{};
    facets.limit = 0;
    facets.include_facets = true;
    queries.push_back(facets);
    // GET /best: area-minimal layout per function
    page_query best{};
    best.filter.best_only = true;
    queries.push_back(best);
    return queries;
}

}  // namespace mnt::svc
