/// \file test_properties_service.cpp
/// \brief Property suites over the benchmark service layer: the indexed
///        query engine must match the linear scan record-for-record, result
///        pages must be consistent with a from-scratch re-derivation, the
///        persistent store must round-trip byte-identically, and the HTTP
///        stack (parser + router) must classify arbitrary byte-streams
///        without crashing or answering 5xx.

#include "proptest_gtest.hpp"

#include "benchmarks/families.hpp"
#include "common/resilience.hpp"
#include "core/catalog.hpp"
#include "core/filters.hpp"
#include "physical_design/ortho.hpp"
#include "service/query.hpp"
#include "service/server.hpp"
#include "service/snapshot.hpp"
#include "testing/generators.hpp"
#include "testing/oracles.hpp"
#include "testing/shrink.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <unistd.h>
#include <utility>
#include <vector>

namespace
{

using namespace mnt;

// --------------------------------------------------------- catalog fixture

/// A catalog of 30 distinct small layouts with metadata spread over every
/// facet dimension, 6 rows of the `aoi` reference family (so rows carry
/// family fields and the family facet fills), plus the engine indexing it.
/// Built once per process.
struct service_fixture
{
    cat::catalog catalog;
    std::unique_ptr<svc::query_engine> engine;
};

const service_fixture& fixture()
{
    static const service_fixture instance = []
    {
        service_fixture f{};
        const std::vector<std::string> sets{"Trindade16", "Fontes18"};
        const std::vector<std::string> clockings{"2DDWave", "USE", "RES"};
        const std::vector<std::string> algorithms{"ortho", "NPR", "exact"};
        const std::vector<std::vector<std::string>> optimization_sets{
            {}, {"PLO"}, {"InOrd (SDN)"}, {"InOrd (SDN)", "PLO"}, {"45°", "PLO"}};

        pbt::rng random{0x5eedf00dULL};
        for (std::size_t i = 0; i < 30; ++i)
        {
            pbt::network_spec spec{};
            spec.name = "fixture" + std::to_string(i);
            // distinct networks => distinct .fgl blobs => distinct engine ids
            const auto network = pbt::random_network(random, spec);

            cat::layout_record record{};
            record.benchmark_set = sets[i % sets.size()];
            record.benchmark_name = "f" + std::to_string(i % 6);
            record.library = (i % 3 == 0) ? cat::gate_library_kind::bestagon : cat::gate_library_kind::qca_one;
            record.clocking = clockings[i % clockings.size()];
            record.algorithm = algorithms[(i / 2) % algorithms.size()];
            record.optimizations = optimization_sets[i % optimization_sets.size()];
            record.runtime = 0.01 * static_cast<double>(i + 1);
            record.layout = pd::ortho(network);
            f.catalog.add_layout(std::move(record));
        }
        const auto family = *bm::find_reference_family("aoi");
        for (std::size_t i = 0; i < 6; ++i)
        {
            cat::layout_record record{};
            record.benchmark_set = bm::family_set_name(family);
            record.benchmark_name = bm::family_function_name(i / 2);
            record.library = i % 2 == 0 ? cat::gate_library_kind::qca_one : cat::gate_library_kind::bestagon;
            record.algorithm = algorithms[i % algorithms.size()];
            record.optimizations = optimization_sets[i % optimization_sets.size()];
            record.runtime = 0.02 * static_cast<double>(i % 4);  // ties with the curated rows
            record.family = bm::family_id(family);
            record.family_seed = bm::family_function_seed(family, i / 2);
            record.layout = pd::ortho(bm::family_network(family, i));
            record.clocking = record.layout.clocking().name();
            f.catalog.add_layout(std::move(record));
        }
        f.engine = std::make_unique<svc::query_engine>(f.catalog);
        return f;
    }();
    return instance;
}

// ----------------------------------------------------------- query inputs

/// The fixture's family id and one that matches nothing.
const std::vector<std::string>& families()
{
    static const std::vector<std::string> ids{bm::family_id(*bm::find_reference_family("aoi")),
                                              "0000000000000000000000000000dead"};
    return ids;
}

cat::filter_query random_filter(pbt::rng& random)
{
    // vocabulary deliberately includes values absent from the fixture, so
    // empty selections and dead posting lists get exercised too
    const std::vector<std::string> sets{"Trindade16", "Fontes18", "ISCAS85"};
    const std::vector<std::string> names{"f0", "f1", "f2", "f3", "f4", "f5", "mux21"};
    const std::vector<std::string> clockings{"2DDWave", "USE", "RES", "ESR"};
    const std::vector<std::string> algorithms{"ortho", "NPR", "exact", "gold"};
    const std::vector<std::string> optimizations{"PLO", "InOrd (SDN)", "45°", "SDN"};

    cat::filter_query query{};
    if (random.chance(1, 2))
    {
        query.benchmark_set = random.pick(sets);
    }
    if (random.chance(1, 3))
    {
        query.benchmark_name = random.pick(names);
    }
    if (random.chance(1, 2))
    {
        query.libraries.push_back(random.chance(1, 2) ? cat::gate_library_kind::qca_one :
                                                        cat::gate_library_kind::bestagon);
    }
    for (std::size_t i = random.below(3); i > 0; --i)
    {
        query.clockings.push_back(random.pick(clockings));
    }
    for (std::size_t i = random.below(3); i > 0; --i)
    {
        query.algorithms.push_back(random.pick(algorithms));
    }
    for (std::size_t i = random.below(2); i > 0; --i)
    {
        query.required_optimizations.push_back(random.pick(optimizations));
    }
    if (random.chance(1, 4))
    {
        query.families.push_back(random.pick(families()));
    }
    query.best_only = random.chance(1, 4);
    return query;
}

std::string show_filter(const cat::filter_query& query)
{
    std::string out{"filter{"};
    if (query.benchmark_set)
    {
        out += " set=" + *query.benchmark_set;
    }
    if (query.benchmark_name)
    {
        out += " name=" + *query.benchmark_name;
    }
    for (const auto lib : query.libraries)
    {
        out += " lib=" + cat::gate_library_name(lib);
    }
    for (const auto& c : query.clockings)
    {
        out += " clk=" + c;
    }
    for (const auto& a : query.algorithms)
    {
        out += " alg=" + a;
    }
    for (const auto& o : query.required_optimizations)
    {
        out += " opt=" + o;
    }
    for (const auto& family : query.families)
    {
        out += " family=" + family;
    }
    if (query.best_only)
    {
        out += " best";
    }
    return out + " }";
}

std::string show_page_query(const svc::page_query& query)
{
    return show_filter(query.filter) + " sort=" + svc::sort_key_name(query.sort) +
           (query.order == svc::sort_order::descending ? " desc" : " asc") + " offset=" + std::to_string(query.offset) +
           " limit=" + std::to_string(query.limit) + (query.include_facets ? " facets" : "");
}

TEST(QueryEngine, FilterMatchesLinearScan)
{
    const auto config = pbt::current_test_config("svc.query.parity", 200);
    const auto& f = fixture();

    pbt::property<cat::filter_query> prop{};
    prop.generate = random_filter;
    prop.check = [&f](const cat::filter_query& query, const res::deadline_clock&)
    { return pbt::check_query_parity(*f.engine, f.catalog, query); };
    prop.show = show_filter;
    MNT_RUN_PROPERTY(config, prop);
}

TEST(QueryEngine, PagesAreConsistentWithRederivation)
{
    const auto config = pbt::current_test_config("svc.query.pages", 200);
    const auto& f = fixture();

    pbt::property<svc::page_query> prop{};
    prop.generate = [](pbt::rng& random)
    {
        svc::page_query query{};
        query.filter = random_filter(random);
        const std::vector<svc::sort_key> keys{svc::sort_key::area, svc::sort_key::benchmark,
                                              svc::sort_key::algorithm, svc::sort_key::runtime};
        query.sort = random.pick(keys);
        query.order = random.chance(1, 2) ? svc::sort_order::ascending : svc::sort_order::descending;
        query.offset = static_cast<std::size_t>(random.below(40));
        // 0 (metadata only), tiny, typical and above-cap limits
        query.limit = static_cast<std::size_t>(random.chance(1, 8) ? 0 : random.below(600));
        query.include_facets = random.chance(1, 2);
        return query;
    };
    prop.check = [&f](const svc::page_query& query, const res::deadline_clock&)
    { return pbt::check_page_consistency(*f.engine, f.catalog, query); };
    prop.show = show_page_query;
    MNT_RUN_PROPERTY(config, prop);
}

TEST(QueryEngine, PagesAreConsistentForEverySortKeyAndEdgeCase)
{
    // the random suite samples these; this sweep guarantees every sort key x
    // order meets best_only, limit=0, facets off and offsets past the end
    const auto& f = fixture();
    for (const auto key :
         {svc::sort_key::area, svc::sort_key::benchmark, svc::sort_key::algorithm, svc::sort_key::runtime})
    {
        for (const auto order : {svc::sort_order::ascending, svc::sort_order::descending})
        {
            for (const bool best_only : {false, true})
            {
                for (const std::size_t limit : {0, 1, 7, 600})
                {
                    for (const std::size_t offset : {0, 5, 35, 36, 1000})
                    {
                        for (const bool include_facets : {true, false})
                        {
                            svc::page_query query{};
                            query.filter.best_only = best_only;
                            query.sort = key;
                            query.order = order;
                            query.offset = offset;
                            query.limit = limit;
                            query.include_facets = include_facets;
                            const auto result = pbt::check_page_consistency(*f.engine, f.catalog, query);
                            EXPECT_TRUE(result.passed) << show_page_query(query) << ": " << result.reason;
                        }
                    }
                }
            }
        }
    }
}

TEST(Store, RoundTripsArbitraryNetworksByteIdentically)
{
    const auto config = pbt::current_test_config("svc.store.roundtrip", 200);

    static std::atomic<std::uint64_t> dir_counter{0};
    pbt::property<ntk::logic_network> prop{};
    prop.generate = [](pbt::rng& random)
    {
        pbt::network_spec spec{};
        spec.max_gates = 10;
        return pbt::random_network(random, spec);
    };
    prop.check = [](const ntk::logic_network& network, const res::deadline_clock&)
    {
        const auto root = std::filesystem::temp_directory_path() /
                          ("mnt_prop_store_" + std::to_string(::getpid()) + "_" +
                           std::to_string(dir_counter.fetch_add(1)));
        std::filesystem::remove_all(root);
        const auto result = pbt::check_store_roundtrip(network, root);
        std::filesystem::remove_all(root);
        return result;
    };
    prop.shrink = [](ntk::logic_network network, const std::function<bool(const ntk::logic_network&)>& still_fails)
    { return pbt::shrink_network(std::move(network), still_fails); };
    MNT_RUN_PROPERTY(config, prop);
}

// ----------------------------------------------------------- page ETags

/// A response body and the one byte of it to change.
struct flipped_body
{
    std::string body;
    std::size_t at{0};
    std::uint8_t mask{1};  ///< XORed into body[at]; never 0
};

TEST(PageEtag, FlippingAnyOneByteChangesTheTag)
{
    const auto config = pbt::current_test_config("svc.etag.flip", 200);

    pbt::property<flipped_body> prop{};
    prop.generate = [](pbt::rng& random)
    {
        flipped_body value{};
        // up to two deep pages; lengths cover every 16-byte tail
        value.body.resize(static_cast<std::size_t>(random.range(1, 20000)));
        for (auto& byte : value.body)
        {
            byte = static_cast<char>(random.below(256));
        }
        value.at = static_cast<std::size_t>(random.below(value.body.size()));
        value.mask = static_cast<std::uint8_t>(random.range(1, 255));
        return value;
    };
    prop.check = [](const flipped_body& value, const res::deadline_clock&)
    {
        auto flipped = value.body;
        flipped[value.at] = static_cast<char>(static_cast<std::uint8_t>(flipped[value.at]) ^ value.mask);
        const auto before = svc::make_etag(value.body);
        const auto after = svc::make_etag(flipped);
        if (before.size() != 32 || after.size() != 32)
        {
            return pbt::oracle_result::fail("an ETag is not 32 hex digits");
        }
        return before != after ? pbt::oracle_result::pass() :
                                 pbt::oracle_result::fail("flipping byte " + std::to_string(value.at) +
                                                          " kept the tag " + before);
    };
    prop.show = [](const flipped_body& value)
    {
        return std::to_string(value.body.size()) + "-byte body, byte " + std::to_string(value.at) + " ^= " +
               std::to_string(value.mask);
    };
    MNT_RUN_PROPERTY(config, prop);
}

// ------------------------------------------------------------- HTTP stack

std::string show_bytes(const std::string& bytes)
{
    // render CR/LF and non-printables so reproducers paste safely
    std::string out{};
    for (const auto c : bytes)
    {
        const auto u = static_cast<unsigned char>(c);
        if (c == '\r')
        {
            out += "\\r";
        }
        else if (c == '\n')
        {
            out += "\\n\n";
        }
        else if (u < 0x20 || u > 0x7e)
        {
            constexpr const char* hex = "0123456789abcdef";
            out += std::string{"\\x"} + hex[u >> 4U] + std::string{hex[u & 0x0fU]};
        }
        else
        {
            out += c;
        }
    }
    return out;
}

TEST(HttpStack, ArbitraryByteStreamsNeverCrashOrAnswer5xx)
{
    const auto config = pbt::current_test_config("svc.http.bytes", 200);
    const auto& f = fixture();
    svc::catalog_server server{*f.engine};  // handle() only; never start()ed

    pbt::property<std::string> prop{};
    prop.generate = [](pbt::rng& random) { return pbt::random_http_request(random); };
    prop.check = [&server](const std::string& bytes, const res::deadline_clock&)
    { return pbt::check_http_byte_stream(server, bytes); };
    prop.shrink = [](std::string bytes, const std::function<bool(const std::string&)>& still_fails)
    { return pbt::shrink_bytes(std::move(bytes), still_fails); };
    prop.show = show_bytes;
    MNT_RUN_PROPERTY(config, prop);
}

TEST(HttpStack, ConcurrentHandleIsRaceFree)
{
    // the nightly TSan run leans on this: many threads through the shared
    // read path (indexes + snapshot) with generated requests
    const auto& f = fixture();
    svc::catalog_server server{*f.engine};

    constexpr std::size_t threads = 4;
    constexpr std::size_t requests_per_thread = 50;
    std::atomic<std::size_t> failures{0};

    std::vector<std::thread> pool{};
    pool.reserve(threads);
    for (std::size_t t = 0; t < threads; ++t)
    {
        pool.emplace_back(
            [&server, &failures, t]
            {
                pbt::rng random{0xc0ffee00ULL + t};
                for (std::size_t i = 0; i < requests_per_thread; ++i)
                {
                    const auto bytes = pbt::random_http_request(random);
                    if (!pbt::check_http_byte_stream(server, bytes))
                    {
                        failures.fetch_add(1);
                    }
                }
            });
    }
    for (auto& worker : pool)
    {
        worker.join();
    }
    EXPECT_EQ(failures.load(), 0U);
}

TEST(HttpStack, PublishRacingRendersServesOneEngineOrTheOther)
{
    // handlers render pages the snapshot does not hold while the main thread
    // swaps between two engines: every response must be exactly one
    // engine's render (body and ETag together), never a mix or a stale copy
    const auto& f = fixture();
    cat::catalog pruned{};
    for (std::size_t i = 0; i < f.catalog.layouts().size(); ++i)
    {
        if (i % 5 != 0)  // drops one row of each of f0..f5
        {
            pruned.add_layout(f.catalog.layouts()[i]);
        }
    }
    const std::shared_ptr<const svc::query_engine> full_engine{f.engine.get(), [](const svc::query_engine*) {}};
    const auto pruned_engine = std::make_shared<const svc::query_engine>(pruned);

    const std::vector<std::string> query_strings{"name=f0",
                                                 "name=f1&sort=runtime&order=desc",
                                                 "set=Fontes18&limit=3&offset=1",
                                                 "library=Bestagon&facets=1",
                                                 "best=1&library=Bestagon",
                                                 "clocking=USE&sort=algorithm",
                                                 "algorithm=exact&limit=2",
                                                 "sort=benchmark&order=desc&offset=3&limit=7"};
    struct rendered
    {
        std::string body;
        std::string etag;
    };
    std::vector<std::pair<rendered, rendered>> expected{};
    for (const auto& query_string : query_strings)
    {
        const auto query = svc::page_query::from_query_string(query_string);
        for (const auto& held : svc::default_page_queries())
        {
            ASSERT_NE(held.cache_key(), query.cache_key()) << query_string;
        }
        auto full_body = svc::page_json_string(full_engine->run(query));
        auto pruned_body = svc::page_json_string(pruned_engine->run(query));
        ASSERT_NE(full_body, pruned_body) << query_string;
        auto full_etag = svc::make_etag(full_body);
        auto pruned_etag = svc::make_etag(pruned_body);
        expected.push_back(
            {{std::move(full_body), std::move(full_etag)}, {std::move(pruned_body), std::move(pruned_etag)}});
    }

    svc::catalog_server server{full_engine};
    constexpr std::size_t threads = 4;
    constexpr std::size_t requests_per_thread = 200;
    std::atomic<std::size_t> mismatches{0};
    std::atomic<std::size_t> finished{0};
    std::vector<std::thread> pool{};
    pool.reserve(threads);
    for (std::size_t t = 0; t < threads; ++t)
    {
        pool.emplace_back(
            [&, t]
            {
                for (std::size_t i = 0; i < requests_per_thread; ++i)
                {
                    const auto page = (t + i) % query_strings.size();
                    const auto response = server.handle({"GET", "/layouts", query_strings[page], ""});
                    const auto& [from_full, from_pruned] = expected[page];
                    const auto is = [&response](const rendered& r)
                    { return response.body == r.body && response.etag == r.etag; };
                    if (response.status != 200 || (!is(from_full) && !is(from_pruned)))
                    {
                        mismatches.fetch_add(1);
                    }
                }
                finished.fetch_add(1);
            });
    }
    std::size_t publishes = 0;
    while (finished.load() < threads || publishes < 4)
    {
        server.publish(publishes % 2 == 0 ? pruned_engine : full_engine);
        ++publishes;
    }
    for (auto& worker : pool)
    {
        worker.join();
    }
    EXPECT_EQ(mismatches.load(), 0U);
    EXPECT_EQ(server.snapshot_generation(), publishes);

    // once the swaps stop, every page reflects the engine published last —
    // for each of the two, so no earlier render can pass for a fresh one
    for (const auto pruned_last : {true, false})
    {
        server.publish(pruned_last ? pruned_engine : full_engine);
        for (std::size_t page = 0; page < query_strings.size(); ++page)
        {
            const auto response = server.handle({"GET", "/layouts", query_strings[page], ""});
            const auto& last = pruned_last ? expected[page].second : expected[page].first;
            EXPECT_EQ(response.body, last.body) << query_strings[page];
            EXPECT_EQ(response.etag, last.etag) << query_strings[page];
        }
    }
}

}  // namespace
