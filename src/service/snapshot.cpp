#include "service/snapshot.hpp"

#include "service/hash.hpp"
#include "telemetry/telemetry.hpp"

#include <functional>
#include <map>
#include <set>
#include <utility>

namespace mnt::svc
{

namespace
{

[[nodiscard]] std::string_view trim(std::string_view text) noexcept
{
    while (!text.empty() && (text.front() == ' ' || text.front() == '\t'))
    {
        text.remove_prefix(1);
    }
    while (!text.empty() && (text.back() == ' ' || text.back() == '\t'))
    {
        text.remove_suffix(1);
    }
    return text;
}

/// Layouts per (set, name) over the whole catalog.
using layout_count_map = std::map<std::pair<std::string, std::string>, std::size_t>;

[[nodiscard]] layout_count_map layout_counts(const cat::catalog& cat)
{
    layout_count_map counts;
    for (const auto& r : cat.layouts())
    {
        ++counts[{r.benchmark_set, r.benchmark_name}];
    }
    return counts;
}

/// One network row of /benchmarks and of the export index.
[[nodiscard]] json_value network_row_json(const cat::network_record& n, const layout_count_map& counts)
{
    auto row = json_value::make_object();
    row.set("set", json_value{n.benchmark_set});
    row.set("name", json_value{n.benchmark_name});
    row.set("inputs", json_value{static_cast<std::uint64_t>(n.num_pis)});
    row.set("outputs", json_value{static_cast<std::uint64_t>(n.num_pos)});
    row.set("gates", json_value{static_cast<std::uint64_t>(n.num_gates)});
    if (!n.family.empty())
    {
        row.set("family", json_value{n.family});
    }
    const auto found = counts.find({n.benchmark_set, n.benchmark_name});
    row.set("layouts", json_value{static_cast<std::uint64_t>(found != counts.cend() ? found->second : 0)});
    return row;
}

/// One failed combination of the export index.
[[nodiscard]] json_value failure_row_json(const cat::failure_record& f)
{
    auto row = json_value::make_object();
    row.set("set", json_value{f.benchmark_set});
    row.set("name", json_value{f.benchmark_name});
    row.set("library", json_value{cat::gate_library_name(f.library)});
    row.set("combination", json_value{f.combination});
    row.set("kind", json_value{f.kind});
    row.set("message", json_value{f.message});
    row.set("elapsed_s", json_value{f.elapsed_s});
    row.set("attempts", json_value{static_cast<std::uint64_t>(f.attempts)});
    return row;
}

}  // namespace

std::string render_benchmarks_json(const query_engine& engine)
{
    const auto& cat = engine.catalog();
    const auto counts = layout_counts(cat);
    auto rows = json_value::make_array();
    for (const auto& n : cat.networks())
    {
        rows.push_back(network_row_json(n, counts));
    }
    auto document = json_value::make_object();
    document.set("count", json_value{static_cast<std::uint64_t>(cat.num_networks())});
    document.set("benchmarks", std::move(rows));
    return document.dump();
}

std::string render_index_json(const query_engine& engine, const std::vector<const cat::layout_record*>& selection)
{
    const auto& cat = engine.catalog();
    std::set<std::pair<std::string, std::string>> selected;
    auto layouts = json_value::make_array();
    const auto* const records = cat.layouts().data();
    for (const auto* r : selection)
    {
        if (std::less<>{}(r, records) || !std::less<>{}(r, records + cat.num_layouts()))
        {
            throw precondition_error{"render_index_json: a selected record is not in the engine's catalog"};
        }
        const auto index = static_cast<std::size_t>(r - records);
        selected.emplace(r->benchmark_set, r->benchmark_name);
        layouts.push_back(layout_row_json(*r, engine.id_of(index)));
    }

    // the referenced networks in catalog order, then their failures
    const auto counts = layout_counts(cat);
    std::set<std::pair<std::string, std::string>> referenced;
    auto networks = json_value::make_array();
    for (const auto& n : cat.networks())
    {
        if (selected.count({n.benchmark_set, n.benchmark_name}) != 0)
        {
            referenced.emplace(n.benchmark_set, n.benchmark_name);
            networks.push_back(network_row_json(n, counts));
        }
    }
    auto failures = json_value::make_array();
    for (const auto& f : cat.failures())
    {
        if (referenced.count({f.benchmark_set, f.benchmark_name}) != 0)
        {
            failures.push_back(failure_row_json(f));
        }
    }

    auto document = json_value::make_object();
    document.set("networks", std::move(networks));
    document.set("layouts", std::move(layouts));
    document.set("failures", std::move(failures));
    return document.dump();
}

std::string make_etag(const std::string_view body)
{
    return hex_digits(murmur3_x64_128(body));
}

bool etag_matches(const std::string_view if_none_match, const std::string_view etag) noexcept
{
    if (if_none_match.empty() || etag.empty())
    {
        return false;
    }
    if (trim(if_none_match) == "*")
    {
        return true;
    }
    // comma-separated list of entity tags, each `"opaque"` or `W/"opaque"`
    std::size_t pos = 0;
    while (pos <= if_none_match.size())
    {
        const auto comma = if_none_match.find(',', pos);
        auto token = trim(if_none_match.substr(pos, comma == std::string_view::npos ? std::string_view::npos
                                                                                    : comma - pos));
        if (token.size() >= 2 && token.substr(0, 2) == "W/")
        {
            token = trim(token.substr(2));
        }
        if (token.size() >= 2 && token.front() == '"' && token.back() == '"' &&
            token.substr(1, token.size() - 2) == etag)
        {
            return true;
        }
        if (comma == std::string_view::npos)
        {
            break;
        }
        pos = comma + 1;
    }
    return false;
}

std::shared_ptr<const catalog_snapshot> build_catalog_snapshot(std::shared_ptr<const query_engine> engine,
                                                               const std::uint64_t generation)
{
    MNT_SPAN("server/build_snapshot");
    auto snapshot = std::make_shared<catalog_snapshot>();
    snapshot->generation = generation;

    snapshot->benchmarks.body = render_benchmarks_json(*engine);
    snapshot->benchmarks.etag = make_etag(snapshot->benchmarks.body);

    for (const auto& query : default_page_queries())
    {
        snapshot_entry entry{};
        entry.body = page_json_string(engine->run(query));
        entry.etag = make_etag(entry.body);
        snapshot->pages.emplace(query.cache_key(), std::move(entry));
    }

    snapshot->engine = std::move(engine);
    return snapshot;
}

}  // namespace mnt::svc
