#include "service/query.hpp"

#include "benchmarks/families.hpp"
#include "core/best_selection.hpp"
#include "core/filters.hpp"
#include "layout/clocking_scheme.hpp"
#include "layout/gate_level_layout.hpp"
#include "service/hash.hpp"
#include "service/json.hpp"
#include "service/store.hpp"
#include "testing/oracles.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <limits>
#include <map>
#include <random>
#include <set>
#include <string>
#include <tuple>
#include <vector>

using namespace mnt;
using namespace mnt::svc;

namespace
{

/// Builds a randomized catalog of blank layouts: provenance facets drawn
/// from small pools, dimensions randomized so area/tie-break paths are all
/// exercised. Blank layouts are enough — filters and the engine only look
/// at provenance and derived metrics, never at gates.
cat::catalog make_random_catalog(const std::uint32_t seed, const std::size_t count)
{
    static const std::vector<std::string> sets{"Trindade16", "Fontes18", "ISCAS85"};
    static const std::vector<std::string> names{"mux21", "xor2", "par_gen", "c17"};
    static const std::vector<lyt::clocking_kind> clockings{lyt::clocking_kind::twoddwave, lyt::clocking_kind::use,
                                                           lyt::clocking_kind::res};
    static const std::vector<std::string> algorithms{"exact", "ortho", "NPR"};
    static const std::vector<std::string> opts{"InOrd (SDN)", "45°", "PLO"};

    std::mt19937 rng{seed};
    const auto pick = [&rng](const auto& pool) { return pool[rng() % pool.size()]; };

    cat::catalog catalog;
    for (std::size_t i = 0; i < count; ++i)
    {
        const auto kind = pick(clockings);
        cat::layout_record record{};
        record.benchmark_set = pick(sets);
        record.benchmark_name = pick(names);
        record.library = (rng() % 2 == 0) ? cat::gate_library_kind::qca_one : cat::gate_library_kind::bestagon;
        record.algorithm = pick(algorithms);
        for (const auto& opt : opts)
        {
            if (rng() % 3 == 0)
            {
                record.optimizations.push_back(opt);
            }
        }
        record.runtime = static_cast<double>(rng() % 1000) / 64.0;
        // unique layout name => unique .fgl serialization => unique id
        record.layout =
            lyt::gate_level_layout{"rnd" + std::to_string(i), lyt::layout_topology::cartesian,
                                   lyt::clocking_scheme::create(kind), static_cast<std::uint32_t>(1 + rng() % 6),
                                   static_cast<std::uint32_t>(1 + rng() % 6)};
        record.clocking = record.layout.clocking().name();
        catalog.add_layout(std::move(record));
    }
    return catalog;
}

/// Draws a random filter query over the same facet pools.
cat::filter_query make_random_filter(std::mt19937& rng)
{
    static const std::vector<std::string> sets{"Trindade16", "Fontes18", "ISCAS85", "absent"};
    static const std::vector<std::string> names{"mux21", "xor2", "par_gen", "c17"};
    static const std::vector<std::string> clockings{"2DDWave", "USE", "RES"};
    static const std::vector<std::string> algorithms{"exact", "ortho", "NPR"};
    static const std::vector<std::string> opts{"InOrd (SDN)", "45°", "PLO"};
    const auto pick = [&rng](const auto& pool) { return pool[rng() % pool.size()]; };

    cat::filter_query query{};
    if (rng() % 3 == 0)
    {
        query.benchmark_set = pick(sets);
    }
    if (rng() % 4 == 0)
    {
        query.benchmark_name = pick(names);
    }
    if (rng() % 3 == 0)
    {
        query.libraries.push_back((rng() % 2 == 0) ? cat::gate_library_kind::qca_one :
                                                     cat::gate_library_kind::bestagon);
    }
    while (rng() % 3 == 0)
    {
        query.clockings.push_back(pick(clockings));
    }
    while (rng() % 4 == 0)
    {
        query.algorithms.push_back(pick(algorithms));
    }
    while (rng() % 4 == 0)
    {
        query.required_optimizations.push_back(pick(opts));
    }
    query.best_only = (rng() % 4 == 0);
    return query;
}

/// A catalog in which every (set, name, library) holds tied records. Each
/// key gets 2 to 5 variants drawn from small pools: shapes of area 4 or 6
/// (two shapes each), 0 to 2 wire tiles, random clockings, algorithms and
/// optimizations. Equal area and wires with different labels or clockings
/// are therefore common. Every key's variants are added once under
/// `<name>` and once, in reverse order, under `<name>_rev`, so a tie-break
/// by anything but catalog order shows in one of the two.
cat::catalog make_tied_catalog(const std::uint32_t seed)
{
    struct variant
    {
        std::uint32_t width;
        std::uint32_t height;
        std::uint32_t wires;
        lyt::clocking_kind clocking;
        std::string algorithm;
        bool plo;
    };
    static const std::vector<std::pair<std::uint32_t, std::uint32_t>> shapes{{2, 2}, {4, 1}, {2, 3}, {3, 2}};
    static const std::vector<lyt::clocking_kind> clockings{lyt::clocking_kind::twoddwave, lyt::clocking_kind::use,
                                                           lyt::clocking_kind::res};
    static const std::vector<std::string> algorithms{"exact", "ortho", "NPR"};

    std::mt19937 rng{seed};
    const auto pick = [&rng](const auto& pool) { return pool[rng() % pool.size()]; };

    cat::catalog catalog;
    std::size_t serial = 0;
    for (const std::string set : {"Trindade16", "Fontes18"})
    {
        for (const std::string name : {"mux21", "xor2", "c17"})
        {
            for (const auto library : {cat::gate_library_kind::qca_one, cat::gate_library_kind::bestagon})
            {
                std::vector<variant> variants(2 + rng() % 4);
                for (auto& v : variants)
                {
                    const auto shape = pick(shapes);
                    v = {shape.first, shape.second, static_cast<std::uint32_t>(rng() % 3), pick(clockings),
                         pick(algorithms), rng() % 2 == 0};
                }
                for (const bool reversed : {false, true})
                {
                    for (std::size_t i = 0; i < variants.size(); ++i)
                    {
                        const auto& v = variants[reversed ? variants.size() - 1 - i : i];
                        cat::layout_record record{};
                        record.benchmark_set = set;
                        record.benchmark_name = reversed ? name + "_rev" : name;
                        record.library = library;
                        record.algorithm = v.algorithm;
                        if (v.plo)
                        {
                            record.optimizations.push_back("PLO");
                        }
                        // unique layout name => unique .fgl serialization => unique id
                        record.layout = lyt::gate_level_layout{"tie" + std::to_string(serial++),
                                                               lyt::layout_topology::cartesian,
                                                               lyt::clocking_scheme::create(v.clocking), v.width,
                                                               v.height};
                        for (std::uint32_t x = 0; x < v.wires; ++x)
                        {
                            record.layout.place({static_cast<std::int32_t>(x), 0}, ntk::gate_type::buf);
                        }
                        record.clocking = record.layout.clocking().name();
                        catalog.add_layout(std::move(record));
                    }
                }
            }
        }
    }
    return catalog;
}

/// A small catalog of the `aoi` reference family (two libraries per
/// function) plus one curated row, so rendered pages carry the family fields
/// and the family facet. Blank layouts keep the pages independent of any
/// placement algorithm.
cat::catalog make_family_catalog()
{
    static const std::vector<std::string> algorithms{"ortho", "NPR", "exact"};
    const auto spec = *bm::find_reference_family("aoi");

    cat::catalog catalog;
    for (std::uint32_t i = 0; i < 12; ++i)
    {
        cat::layout_record record{};
        record.benchmark_set = bm::family_set_name(spec);
        record.benchmark_name = bm::family_function_name(i / 2);
        record.library = i % 2 == 0 ? cat::gate_library_kind::qca_one : cat::gate_library_kind::bestagon;
        record.algorithm = algorithms[i % algorithms.size()];
        if (i % 4 == 1)
        {
            record.optimizations = {"PLO"};
        }
        record.runtime = 0.125 * static_cast<double>(i % 5);
        record.family = bm::family_id(spec);
        record.family_seed = bm::family_function_seed(spec, i / 2);
        record.layout = lyt::gate_level_layout{
            "aoi" + std::to_string(i), lyt::layout_topology::cartesian,
            lyt::clocking_scheme::create(i % 3 == 0 ? lyt::clocking_kind::use : lyt::clocking_kind::twoddwave),
            2 + i % 3, 1 + i % 4};
        record.clocking = record.layout.clocking().name();
        catalog.add_layout(std::move(record));
    }
    cat::layout_record curated{};
    curated.benchmark_set = "Trindade16";
    curated.benchmark_name = "2:1 MUX";
    curated.algorithm = "exact";
    curated.runtime = 0.5;
    curated.layout = lyt::gate_level_layout{"mux", lyt::layout_topology::cartesian,
                                            lyt::clocking_scheme::create(lyt::clocking_kind::twoddwave), 3, 3};
    curated.clocking = curated.layout.clocking().name();
    catalog.add_layout(std::move(curated));
    return catalog;
}

}  // namespace

// -------------------------------------------------------------------- parity

TEST(QueryEngineTest, FilterMatchesScanFilterOnRandomizedCatalog)
{
    const auto catalog = make_random_catalog(7u, 160);
    const query_engine engine{catalog};

    std::mt19937 rng{99u};
    for (int round = 0; round < 200; ++round)
    {
        const auto query = make_random_filter(rng);
        const auto expected = pbt::scan_filter(catalog, query);
        const auto actual = engine.filter(query);
        ASSERT_EQ(expected, actual) << "round " << round;  // pointer-identical, same order
    }
}

// --------------------------------------------------------------- best layout

namespace
{

using best_key = std::tuple<std::string, std::string, cat::gate_library_kind>;

/// What a winner is, independent of the catalog it sits in.
using best_identity = std::tuple<std::string, std::string, std::uint64_t, std::size_t>;

best_identity identity_of(const cat::layout_record& r)
{
    return {r.label(), r.clocking, r.area, r.num_wires};
}

/// One best-only winner per (set, name, library), keyed.
std::map<best_key, const cat::layout_record*> winners(const std::vector<const cat::layout_record*>& selection)
{
    std::map<best_key, const cat::layout_record*> keyed;
    for (const auto* r : selection)
    {
        EXPECT_TRUE(keyed.emplace(best_key{r->benchmark_set, r->benchmark_name, r->library}, r).second);
    }
    return keyed;
}

}  // namespace

TEST(BestLayoutTest, SelectBestScanAndEngineAgreeOnTies)
{
    std::size_t tied_keys = 0;
    for (std::uint32_t seed = 1; seed <= 8; ++seed)
    {
        const auto catalog = make_tied_catalog(seed);
        const query_engine engine{catalog};
        cat::filter_query best_only{};
        best_only.best_only = true;
        auto scanned = winners(pbt::scan_filter(catalog, best_only));
        auto indexed = winners(engine.filter(best_only));

        std::set<best_key> keys;
        for (const auto& r : catalog.layouts())
        {
            keys.emplace(r.benchmark_set, r.benchmark_name, r.library);
        }
        EXPECT_EQ(scanned.size(), keys.size());
        EXPECT_EQ(indexed.size(), keys.size());
        for (const auto& key : keys)
        {
            const auto& [set, name, library] = key;
            std::vector<const cat::layout_record*> records;
            for (const auto* r : catalog.layouts_of(set, name))
            {
                if (r->library == library)
                {
                    records.push_back(r);
                }
            }
            // the rule's winner: of the records with the least (area, wires),
            // the first in canonical order (catalog order among records equal
            // on the whole canonical key)
            const auto area_wires = [](const cat::layout_record* r) { return std::make_pair(r->area, r->num_wires); };
            const auto least = area_wires(*std::min_element(records.cbegin(), records.cend(),
                                                            [&](const auto* a, const auto* b)
                                                            { return area_wires(a) < area_wires(b); }));
            std::vector<const cat::layout_record*> tied;
            std::copy_if(records.cbegin(), records.cend(), std::back_inserter(tied),
                         [&](const cat::layout_record* r) { return area_wires(r) == least; });
            tied_keys += tied.size() > 1 ? 1u : 0u;
            const auto* expected = *std::min_element(tied.cbegin(), tied.cend(),
                                                     [](const auto* a, const auto* b)
                                                     { return cat::canonical_layout_less(*a, *b); });

            const auto context = set + " / " + name + " seed " + std::to_string(seed);
            EXPECT_EQ(cat::select_best(catalog, set, name, library).best, expected) << context;
            EXPECT_EQ(scanned[key], expected) << context;
            EXPECT_EQ(indexed[key], expected) << context;
        }

        // every key holds its variants twice, the second time in reverse
        // order: insertion order must not change the winner
        for (const auto& [key, r] : indexed)
        {
            const auto& [set, name, library] = key;
            if (name.size() > 4 && name.compare(name.size() - 4, 4, "_rev") == 0)
            {
                continue;
            }
            const auto reversed = indexed.find(best_key{set, name + "_rev", library});
            ASSERT_NE(reversed, indexed.cend()) << set << " / " << name;
            EXPECT_EQ(identity_of(*r), identity_of(*reversed->second)) << set << " / " << name << " seed " << seed;
        }
    }
    // the catalogs must really exercise the tie-break
    EXPECT_GT(tied_keys, 20u);
}

TEST(BestLayoutTest, StoreRoundTripKeepsTieWinners)
{
    // the store keeps one layout per cache key (set, name, library and
    // combination), so the in-process catalog holds one record per key too
    const auto tied = make_tied_catalog(5u);
    cat::catalog in_process;
    std::set<std::string> cache_keys;
    for (const auto& r : tied.layouts())
    {
        if (cache_keys.insert(cache_key(r)).second)
        {
            in_process.add_layout(r);
        }
    }

    const auto root = std::filesystem::temp_directory_path() / "mnt_best_layout_tie_store";
    std::filesystem::remove_all(root);
    {
        layout_store store{root};
        for (const auto& r : in_process.layouts())
        {
            store.put_layout(r);
        }
        store.save();
    }
    const auto snapshot = layout_store{root}.load();
    std::filesystem::remove_all(root);
    ASSERT_TRUE(snapshot.issues.empty());
    ASSERT_EQ(snapshot.catalog.num_layouts(), in_process.num_layouts());

    // the manifest is in cache-key order, so the loaded catalog lists tied
    // records in another order than the in-process one
    std::size_t reordered = 0;
    for (std::size_t i = 0; i < in_process.num_layouts(); ++i)
    {
        reordered += identity_of(in_process.layouts()[i]) != identity_of(snapshot.catalog.layouts()[i]) ? 1u : 0u;
    }
    EXPECT_GT(reordered, 0u);

    cat::filter_query best_only{};
    best_only.best_only = true;
    const auto here = winners(query_engine{in_process}.filter(best_only));
    const auto loaded = winners(query_engine{snapshot.catalog, snapshot.layout_ids}.filter(best_only));
    ASSERT_EQ(here.size(), loaded.size());
    for (const auto& [key, r] : here)
    {
        const auto& [set, name, library] = key;
        const auto context = set + " / " + name;
        ASSERT_EQ(loaded.count(key), 1u) << context;
        EXPECT_EQ(identity_of(*r), identity_of(*loaded.at(key))) << context;
        const auto* in_process_best = cat::select_best(in_process, set, name, library).best;
        const auto* loaded_best = cat::select_best(snapshot.catalog, set, name, library).best;
        ASSERT_NE(in_process_best, nullptr) << context;
        ASSERT_NE(loaded_best, nullptr) << context;
        EXPECT_EQ(identity_of(*in_process_best), identity_of(*r)) << context;
        EXPECT_EQ(identity_of(*loaded_best), identity_of(*r)) << context;
    }
}

TEST(QueryEngineTest, EmptyFilterReturnsWholeCatalogInCanonicalOrder)
{
    const auto catalog = make_random_catalog(3u, 60);
    const query_engine engine{catalog};
    const auto all = engine.filter({});
    EXPECT_EQ(all.size(), catalog.num_layouts());
    EXPECT_EQ(all, pbt::scan_filter(catalog, {}));
    EXPECT_TRUE(std::is_sorted(all.begin(), all.end(),
                               [](const auto* a, const auto* b) { return cat::canonical_layout_less(*a, *b); }));
    EXPECT_GT(engine.num_index_terms(), 0u);
}

// ----------------------------------------------------------------------- ids

TEST(QueryEngineTest, IdLookupRoundTrips)
{
    const auto catalog = make_random_catalog(11u, 40);
    const query_engine engine{catalog};
    for (std::size_t i = 0; i < catalog.num_layouts(); ++i)
    {
        const auto& id = engine.id_of(i);
        EXPECT_EQ(id.size(), 32u);
        const auto index = engine.index_of(id);
        ASSERT_TRUE(index.has_value());
        EXPECT_EQ(*index, i);
    }
    EXPECT_FALSE(engine.index_of("0000000000000000").has_value());
}

TEST(QueryEngineTest, SuppliedIdsAreUsedVerbatim)
{
    const auto catalog = make_random_catalog(5u, 4);
    std::vector<std::string> ids{"aaaaaaaaaaaaaaaa", "bbbbbbbbbbbbbbbb", "cccccccccccccccc", "dddddddddddddddd"};
    const query_engine engine{catalog, ids};
    EXPECT_EQ(engine.id_of(2), "cccccccccccccccc");
    EXPECT_EQ(engine.index_of("bbbbbbbbbbbbbbbb"), std::optional<std::size_t>{1});
}

// ---------------------------------------------------------------- pagination

TEST(QueryEngineTest, PaginationCoversSelectionWithoutOverlap)
{
    const auto catalog = make_random_catalog(21u, 90);
    const query_engine engine{catalog};

    page_query query{};
    query.limit = 7;
    std::vector<std::string> collected;
    for (std::size_t offset = 0;; offset += query.limit)
    {
        query.offset = offset;
        const auto page = engine.run(query);
        EXPECT_EQ(page.total, catalog.num_layouts());
        EXPECT_EQ(page.offset, offset);
        ASSERT_EQ(page.rows.size(), page.ids.size());
        collected.insert(collected.end(), page.ids.begin(), page.ids.end());
        if (page.rows.size() < query.limit)
        {
            break;
        }
    }
    EXPECT_EQ(collected.size(), catalog.num_layouts());
    std::sort(collected.begin(), collected.end());
    EXPECT_EQ(std::unique(collected.begin(), collected.end()), collected.end());
}

TEST(QueryEngineTest, LimitZeroReturnsMetadataOnly)
{
    const auto catalog = make_random_catalog(2u, 30);
    const query_engine engine{catalog};
    page_query query{};
    query.limit = 0;
    const auto page = engine.run(query);
    EXPECT_EQ(page.total, 30u);
    EXPECT_TRUE(page.rows.empty());
    EXPECT_FALSE(page.facets.per_library.empty());
}

TEST(QueryEngineTest, OffsetPastEndYieldsEmptyPage)
{
    const auto catalog = make_random_catalog(2u, 10);
    const query_engine engine{catalog};
    page_query query{};
    query.offset = 1000;
    const auto page = engine.run(query);
    EXPECT_EQ(page.total, 10u);
    EXPECT_TRUE(page.rows.empty());
}

// ------------------------------------------------------------------- sorting

TEST(QueryEngineTest, SortOrdersAreRespectedAndDeterministic)
{
    const auto catalog = make_random_catalog(13u, 80);
    const query_engine engine{catalog};

    page_query query{};
    query.limit = page_query::max_limit;

    query.sort = sort_key::area;
    query.order = sort_order::ascending;
    const auto asc = engine.run(query);
    EXPECT_TRUE(std::is_sorted(asc.rows.begin(), asc.rows.end(),
                               [](const auto* a, const auto* b) { return a->area < b->area; }));

    query.order = sort_order::descending;
    const auto desc = engine.run(query);
    EXPECT_TRUE(std::is_sorted(desc.rows.begin(), desc.rows.end(),
                               [](const auto* a, const auto* b) { return a->area > b->area; }));

    query.sort = sort_key::runtime;
    const auto runtime_page = engine.run(query);
    EXPECT_TRUE(std::is_sorted(runtime_page.rows.begin(), runtime_page.rows.end(),
                               [](const auto* a, const auto* b) { return a->runtime > b->runtime; }));

    // same query twice => byte-identical page
    EXPECT_EQ(page_json_string(engine.run(query)), page_json_string(runtime_page));
}

// ------------------------------------------------------------ wire format in

TEST(PageQueryTest, FromQueryStringParsesEveryKey)
{
    const auto query = page_query::from_query_string(
        "set=Trindade16&name=2%3A1%20MUX&library=QCA%20ONE,Bestagon&clocking=USE&algorithm=exact,ortho"
        "&opt=PLO&best=1&sort=benchmark&order=desc&offset=5&limit=10&facets=0");
    EXPECT_EQ(query.filter.benchmark_set, std::optional<std::string>{"Trindade16"});
    EXPECT_EQ(query.filter.benchmark_name, std::optional<std::string>{"2:1 MUX"});
    ASSERT_EQ(query.filter.libraries.size(), 2u);
    EXPECT_EQ(query.filter.libraries[0], cat::gate_library_kind::qca_one);
    EXPECT_EQ(query.filter.libraries[1], cat::gate_library_kind::bestagon);
    EXPECT_EQ(query.filter.clockings, (std::vector<std::string>{"USE"}));
    EXPECT_EQ(query.filter.algorithms, (std::vector<std::string>{"exact", "ortho"}));
    EXPECT_EQ(query.filter.required_optimizations, (std::vector<std::string>{"PLO"}));
    EXPECT_TRUE(query.filter.best_only);
    EXPECT_EQ(query.sort, sort_key::benchmark);
    EXPECT_EQ(query.order, sort_order::descending);
    EXPECT_EQ(query.offset, 5u);
    EXPECT_EQ(query.limit, 10u);
    EXPECT_FALSE(query.include_facets);
}

TEST(PageQueryTest, FromQueryStringRejectsUnknownAndMalformed)
{
    EXPECT_THROW(static_cast<void>(page_query::from_query_string("unknown=1")), mnt_error);
    EXPECT_THROW(static_cast<void>(page_query::from_query_string("library=cmos")), mnt_error);
    EXPECT_THROW(static_cast<void>(page_query::from_query_string("sort=color")), mnt_error);
    EXPECT_THROW(static_cast<void>(page_query::from_query_string("offset=abc")), mnt_error);
    EXPECT_THROW(static_cast<void>(page_query::from_query_string("best=maybe")), mnt_error);
    EXPECT_THROW(static_cast<void>(page_query::from_query_string("set=%zz")), mnt_error);
    EXPECT_THROW(static_cast<void>(page_query::from_query_string("set=%2")), mnt_error);
}

TEST(PageQueryTest, FromQueryStringAcceptsOnlyDecimalSizes)
{
    // what the JSON body's as_u64 rejects, the query string rejects too
    for (const auto* bad : {"offset=-1", "limit=-5", "offset=99999999999999999999999", "offset=+3", "offset=%203",
                            "offset=3%20", "offset=", "limit=0x10", "limit=1e3", "offset=3.0"})
    {
        EXPECT_THROW(static_cast<void>(page_query::from_query_string(bad)), mnt_error) << bad;
    }
    EXPECT_EQ(page_query::from_query_string("offset=007").offset, 7u);
    EXPECT_EQ(page_query::from_query_string("offset=18446744073709551615").offset,
              std::numeric_limits<std::size_t>::max());
    EXPECT_EQ(page_query::from_query_string("limit=0").limit, 0u);
}

TEST(PageQueryTest, FromJsonParsesAndRejectsUnknownMembers)
{
    const auto query = page_query::from_json(json_value::parse(
        R"({"set": "Fontes18", "libraries": ["Bestagon"], "optimizations": ["PLO", "45°"],
            "best_only": true, "sort": "runtime", "order": "desc", "offset": 2, "limit": 3, "facets": false})"));
    EXPECT_EQ(query.filter.benchmark_set, std::optional<std::string>{"Fontes18"});
    EXPECT_EQ(query.filter.libraries, (std::vector<cat::gate_library_kind>{cat::gate_library_kind::bestagon}));
    EXPECT_EQ(query.filter.required_optimizations, (std::vector<std::string>{"PLO", "45°"}));
    EXPECT_TRUE(query.filter.best_only);
    EXPECT_EQ(query.sort, sort_key::runtime);
    EXPECT_EQ(query.order, sort_order::descending);
    EXPECT_EQ(query.offset, 2u);
    EXPECT_EQ(query.limit, 3u);
    EXPECT_FALSE(query.include_facets);

    EXPECT_THROW(static_cast<void>(page_query::from_json(json_value::parse(R"({"colour": "red"})"))), mnt_error);
}

TEST(PageQueryTest, ParseQueryStringDecodesInOrder)
{
    const auto pairs = parse_query_string("a=1&b=x%20y&c=1+2&flag");
    ASSERT_EQ(pairs.size(), 4u);
    EXPECT_EQ(pairs[0], (std::pair<std::string, std::string>{"a", "1"}));
    EXPECT_EQ(pairs[1], (std::pair<std::string, std::string>{"b", "x y"}));
    EXPECT_EQ(pairs[2], (std::pair<std::string, std::string>{"c", "1 2"}));
    EXPECT_EQ(pairs[3], (std::pair<std::string, std::string>{"flag", ""}));
}

// ----------------------------------------------------------------- cache key

TEST(PageQueryTest, CacheKeyNormalizesEquivalentQueries)
{
    page_query a{};
    a.filter.clockings = {"USE", "RES", "USE"};
    a.filter.algorithms = {"ortho", "exact"};

    page_query b{};
    b.filter.clockings = {"RES", "USE"};
    b.filter.algorithms = {"exact", "ortho"};

    EXPECT_EQ(a.cache_key(), b.cache_key());

    page_query c = b;
    c.offset = 10;
    EXPECT_NE(b.cache_key(), c.cache_key());
    page_query d = b;
    d.filter.best_only = true;
    EXPECT_NE(b.cache_key(), d.cache_key());
}

// ----------------------------------------------------------- wire format out

TEST(PageJsonStringTest, EmitsDocumentedShape)
{
    const auto catalog = make_random_catalog(17u, 25);
    const query_engine engine{catalog};
    page_query query{};
    query.limit = 10;
    const auto page = engine.run(query);
    const auto document = json_value::parse(page_json_string(page));

    EXPECT_EQ(document.at("total").as_u64(), 25u);
    EXPECT_EQ(document.at("offset").as_u64(), 0u);
    EXPECT_EQ(document.at("count").as_u64(), 10u);
    const auto& results = document.at("results").as_array();
    ASSERT_EQ(results.size(), 10u);
    const auto& first = results.front();
    EXPECT_EQ(first.at("id").as_string(), engine.id_of(engine.index_of(page.ids.front()).value()));
    EXPECT_EQ(first.at("set").as_string(), page.rows.front()->benchmark_set);
    EXPECT_EQ(first.at("area").as_u64(), page.rows.front()->area);
    EXPECT_EQ(first.at("label").as_string(), page.rows.front()->label());
    ASSERT_NE(document.find("facets"), nullptr);
    EXPECT_NE(document.at("facets").find("libraries"), nullptr);

    // facets suppressed on request
    query.include_facets = false;
    const auto bare = json_value::parse(page_json_string(engine.run(query)));
    EXPECT_EQ(bare.find("facets"), nullptr);

    // rows the engine did not render are refused, not read out of bounds
    auto unrendered = engine.run(query);
    unrendered.rendered.clear();
    EXPECT_THROW(static_cast<void>(page_json_string(unrendered)), precondition_error);
}

// ------------------------------------------------------- golden page bytes

/// content_hash of rendered page bodies, pinned so any change to the bytes
/// a page renders to (row fields, number formatting, escaping, sort
/// tie-breaks, facet blocks) fails here, not only in a self-comparison.
TEST(PageJsonStringTest, PageBodiesMatchPinnedHashes)
{
    struct golden_page
    {
        bool family_catalog;
        const char* query;
        const char* hash;
    };
    static const golden_page goldens[] = {
        // random catalog: "45°" needs escaping, runtimes are fractional
        {false, "sort=area&offset=7&limit=20", "22c5f397c90fad13573c1d510877d887"},
        {false, "sort=area&order=desc&offset=7&limit=20", "adbba3c3048406c8acb067a076c23ffd"},
        {false, "sort=benchmark&offset=7&limit=20", "aefbab542e147895fb23cce86249ed09"},
        {false, "sort=benchmark&order=desc&offset=7&limit=20", "395afcbe1a63f6448868892644465930"},
        {false, "sort=algorithm&offset=7&limit=20", "a332ec16d0f340bb6719db7bb73f0a25"},
        {false, "sort=algorithm&order=desc&offset=7&limit=20", "e0cfa30316ec2fe65cf6d086866aec31"},
        {false, "sort=runtime&offset=7&limit=20", "324127ff6b0e1e99c7bca062881e80c2"},
        {false, "sort=runtime&order=desc&offset=7&limit=20", "5fb8bc75c53de8f9bc8eff90617b5d53"},
        {false, "library=Bestagon&clocking=USE,RES&opt=45%C2%B0&sort=algorithm&order=desc",
         "f3675a3bb01ed7908adc7ce605938eda"},
        // re-pinned when best-only ties on (area, wires) started going to the
        // canonical minimum instead of the first record in catalog order
        {false, "best=1&sort=runtime", "cfebbb5fac489afc279e11917ef492f8"},
        {false, "limit=0", "9cfb8deac83ebf9a9824a253ab623510"},
        {false, "limit=0&facets=0", "56663a9e8dc0a336315bcc64eff08863"},
        {false, "offset=1000", "5172a626326d52ebb06ebfee743af6f4"},
        {false, "set=absent", "c5bcc60dd3b45919d8cbb269d80b8cdf"},
        {false, "facets=0&sort=area&order=desc&limit=500", "5baf6f500b6208bcbb3b773c39aa960f"},
        // aoi family catalog: rows carry "family" and "family_seed"
        {true, "", "330296a1348287abe1f8a50f5b872144"},
        {true, "sort=area&order=desc", "9bdc02c35be482e26472cce4be270156"},
        {true, "sort=benchmark", "7b3e382e26b72f0e93c3cdda3ebbc1e6"},
        {true, "sort=benchmark&order=desc", "e264817d46da81e473d58a6c0b924208"},
        {true, "sort=algorithm", "e06a50f412ff71b9303db1d5970c52db"},
        {true, "sort=algorithm&order=desc", "fb02d6f0cd7063fe1f9b7db9a9d0ced9"},
        {true, "sort=runtime", "591a36948984e9156c2f34e4e79b6be6"},
        {true, "sort=runtime&order=desc&offset=3&limit=4", "8ad5a6c90ff01b904b5088533f9ad92a"},
        {true, "family=6682375c4d18b48833afe8ba6ddaa50e&library=QCA%20ONE&sort=runtime",
         "ac65d95d505ed6055d93bb600228976f"},
        {true, "best=1&facets=0", "153c4b8697565f451fbfc53f1b324fe3"},
    };

    const auto random_catalog = make_random_catalog(31u, 120);
    const auto family_catalog = make_family_catalog();
    const query_engine random_engine{random_catalog};
    const query_engine family_engine{family_catalog};
    for (const auto& golden : goldens)
    {
        const auto& engine = golden.family_catalog ? family_engine : random_engine;
        const auto body = page_json_string(engine.run(page_query::from_query_string(golden.query)));
        EXPECT_EQ(content_hash(body), golden.hash) << (golden.family_catalog ? "family " : "random ") << golden.query;
    }
}
