/// \file test_families.cpp
/// \brief Known-answer and determinism tests for the synthetic benchmark
///        families: pinned family ids and first-network fingerprints for the
///        three reference families, manifest byte-determinism at the
///        1000-function acceptance scale, and the family metadata round-trip
///        through the layout store, catalog and query facets.
///
/// The KAT constants below freeze generator version 1. If a change to the
/// generator or the seed-derivation scheme breaks them, that change must bump
/// \ref mnt::bm::family_generator_version — the ids are the reproducibility
/// contract served to clients, not an implementation detail.

#include "benchmarks/families.hpp"
#include "core/catalog.hpp"
#include "core/filters.hpp"
#include "io/verilog_writer.hpp"
#include "physical_design/ortho.hpp"
#include "service/hash.hpp"
#include "service/query.hpp"
#include "service/store.hpp"
#include "testing/generators.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

namespace
{

using namespace mnt;

/// Fingerprint of one generated network: interface counts plus the content
/// hash of its canonical (primitives-style) Verilog serialization.
struct network_kat
{
    std::size_t pis;
    std::size_t pos;
    std::size_t gates;
    const char* hash;
};

std::string network_fingerprint(const ntk::logic_network& network)
{
    return svc::content_hash(io::write_verilog_string(network, io::verilog_style::primitives));
}

// ------------------------------------------------------------ family ids

TEST(FamilyId, ReferenceFamilyIdsArePinned)
{
    const auto families = bm::reference_families();
    ASSERT_EQ(families.size(), 3u);
    EXPECT_EQ(families[0].name, "aoi");
    EXPECT_EQ(families[1].name, "xor");
    EXPECT_EQ(families[2].name, "maj");
    for (const auto& spec : families)
    {
        EXPECT_EQ(spec.count, 1000u);
    }
    EXPECT_EQ(bm::family_id(families[0]), "6682375c4d18b48833afe8ba6ddaa50e");
    EXPECT_EQ(bm::family_id(families[1]), "fba889ee86fab4df752fac1155c4e9b4");
    EXPECT_EQ(bm::family_id(families[2]), "caddf413397a79a9c571ccb97fb54ef4");
}

TEST(FamilyId, EveryParameterIsIdentityRelevant)
{
    const auto base = bm::find_reference_family("aoi");
    ASSERT_TRUE(base.has_value());
    const auto base_id = bm::family_id(*base);

    auto renamed = *base;
    renamed.name = "aoi2";
    EXPECT_NE(bm::family_id(renamed), base_id);

    auto reseeded = *base;
    reseeded.seed ^= 1;
    EXPECT_NE(bm::family_id(reseeded), base_id);

    auto recounted = *base;
    recounted.count = 999;
    EXPECT_NE(bm::family_id(recounted), base_id);

    auto reshaped = *base;
    reshaped.shape.max_gates += 1;
    EXPECT_NE(bm::family_id(reshaped), base_id);

    // the id is a pure function of the spec
    EXPECT_EQ(bm::family_id(*base), base_id);
}

TEST(FamilyId, SetNameAndFunctionNames)
{
    const auto spec = bm::find_reference_family("xor");
    ASSERT_TRUE(spec.has_value());
    EXPECT_EQ(bm::family_set_name(*spec), "Family-xor");
    EXPECT_EQ(bm::family_function_name(0), "f00000");
    EXPECT_EQ(bm::family_function_name(42), "f00042");
    EXPECT_EQ(bm::family_function_name(99999), "f99999");
}

// -------------------------------------------------------- first networks

TEST(FamilyKat, FirstNetworkOfEachReferenceFamilyIsPinned)
{
    const network_kat expected[3] = {
        {6, 1, 18, "633a96098ff1dc36fac8cabd5bb5673e"},  // aoi f00000
        {7, 1, 15, "7520c77772cdc827313c13c5d33f236b"},  // xor f00000
        {5, 2, 15, "3ee90f4effb022586e591660ff4afe41"},  // maj f00000
    };
    const auto families = bm::reference_families();
    ASSERT_EQ(families.size(), 3u);
    for (std::size_t f = 0; f < families.size(); ++f)
    {
        const auto network = bm::family_network(families[f], 0);
        EXPECT_EQ(network.num_pis(), expected[f].pis) << families[f].name;
        EXPECT_EQ(network.num_pos(), expected[f].pos) << families[f].name;
        EXPECT_EQ(network.num_gates(), expected[f].gates) << families[f].name;
        EXPECT_EQ(network_fingerprint(network), expected[f].hash) << families[f].name;
    }
}

TEST(FamilyKat, FunctionSeedsAreIndexLocal)
{
    // function i's seed must not depend on the family size — that is what
    // makes generation embarrassingly parallel and prefixes stable
    auto small = *bm::find_reference_family("aoi");
    small.count = 8;
    auto large = *bm::find_reference_family("aoi");
    large.count = 1000;
    for (std::size_t i = 0; i < small.count; ++i)
    {
        EXPECT_EQ(bm::family_function_seed(small, i), bm::family_function_seed(large, i));
        EXPECT_EQ(network_fingerprint(bm::family_network(small, i)),
                  network_fingerprint(bm::family_network(large, i)));
    }
    // distinct indexes get distinct seeds
    EXPECT_NE(bm::family_function_seed(large, 0), bm::family_function_seed(large, 1));
}

TEST(FamilyKat, OutOfRangeIndexThrows)
{
    auto spec = *bm::find_reference_family("aoi");
    spec.count = 4;
    EXPECT_THROW((void)bm::family_network(spec, 4), precondition_error);
}

// ------------------------------------------------------------- manifests

TEST(FamilyManifest, SmallManifestIsPinned)
{
    auto spec = *bm::find_reference_family("aoi");
    spec.count = 8;
    EXPECT_EQ(bm::family_id(spec), "8b3ada6c6be7f1613b396177ab9c2b32");
    EXPECT_EQ(bm::family_manifest_hash(spec), "9d38661de0eb78b9468aae4c40b48329");

    const auto manifest = bm::family_manifest(spec);
    const auto* functions = manifest.find("functions");
    ASSERT_NE(functions, nullptr);
    ASSERT_EQ(functions->as_array().size(), 8u);
    const auto* version = manifest.find("generator_version");
    ASSERT_NE(version, nullptr);
    EXPECT_EQ(static_cast<std::uint32_t>(version->as_number()), bm::family_generator_version);
}

TEST(FamilyManifest, ThousandFunctionManifestIsDeterministic)
{
    // the acceptance-scale check: >= 1000 functions, byte-identical bytes
    // (and therefore hash) across two independent generation runs
    const auto spec = *bm::find_reference_family("aoi");
    ASSERT_GE(spec.count, 1000u);
    const auto first = bm::family_manifest_bytes(spec);
    const auto second = bm::family_manifest_bytes(spec);
    EXPECT_EQ(first, second);
    EXPECT_EQ(svc::content_hash(first), bm::family_manifest_hash(spec));
    EXPECT_EQ(bm::family_manifest_hash(spec), "fdf58ef14547461ffdfc172c9dc5de7d");
}

// --------------------------------------------------------------- entries

TEST(FamilyEntries, EntriesCarryFamilyMetadataAndBuildDeterministically)
{
    auto spec = *bm::find_reference_family("maj");
    spec.count = 6;
    const auto id = bm::family_id(spec);
    const auto entries = bm::family_entries(spec);
    ASSERT_EQ(entries.size(), 6u);
    for (std::size_t i = 0; i < entries.size(); ++i)
    {
        EXPECT_EQ(entries[i].set, "Family-maj");
        EXPECT_EQ(entries[i].name, bm::family_function_name(i));
        EXPECT_EQ(entries[i].family, id);
        EXPECT_EQ(entries[i].family_seed, bm::family_function_seed(spec, i));
        EXPECT_EQ(entries[i].size, spec.size);
        const auto network = entries[i].build();
        EXPECT_EQ(network_fingerprint(network), network_fingerprint(bm::family_network(spec, i)));
    }
}

// ------------------------------------------------- store/catalog round-trip

struct family_store_dir
{
    std::filesystem::path path;
    family_store_dir() : path{std::filesystem::temp_directory_path() / "mnt_test_family_store"}
    {
        std::filesystem::remove_all(path);
    }
    ~family_store_dir()
    {
        std::error_code ec;
        std::filesystem::remove_all(path, ec);
    }
};

TEST(FamilyStore, FamilyMetadataSurvivesTheManifestRoundTrip)
{
    auto spec = *bm::find_reference_family("xor");
    spec.count = 3;
    const auto id = bm::family_id(spec);

    const family_store_dir dir{};
    {
        svc::layout_store store{dir.path};
        for (std::size_t i = 0; i < spec.count; ++i)
        {
            store.put_network(bm::family_set_name(spec), bm::family_function_name(i),
                              bm::family_network(spec, i), id);
        }
        cat::layout_record record{};
        record.benchmark_set = bm::family_set_name(spec);
        record.benchmark_name = bm::family_function_name(0);
        record.library = cat::gate_library_kind::qca_one;
        record.algorithm = "ortho";
        record.family = id;
        record.family_seed = bm::family_function_seed(spec, 0);
        record.layout = pd::ortho(bm::family_network(spec, 0));
        record.clocking = record.layout.clocking().name();
        store.put_layout(record);
        store.save();
    }

    svc::layout_store reopened{dir.path};
    const auto snapshot = reopened.load();
    EXPECT_TRUE(snapshot.issues.empty());

    const auto& networks = snapshot.catalog.networks();
    ASSERT_EQ(networks.size(), spec.count);
    for (const auto& n : networks)
    {
        EXPECT_EQ(n.family, id);
    }

    const auto& layouts = snapshot.catalog.layouts();
    ASSERT_EQ(layouts.size(), 1u);
    EXPECT_EQ(layouts.front().family, id);
    EXPECT_EQ(layouts.front().family_seed, bm::family_function_seed(spec, 0));

    // the family facet and filter see the restored records
    const svc::query_engine engine{snapshot.catalog, snapshot.layout_ids};
    svc::page_query everything{};
    everything.limit = 0;
    const auto facets = engine.run(everything).facets;
    ASSERT_EQ(facets.per_family.count(id), 1u);
    EXPECT_EQ(facets.per_family.at(id), 1u);

    cat::filter_query query{};
    query.families = {id};
    EXPECT_EQ(engine.filter(query).size(), 1u);
    query.families = {"0000000000000000000000000000dead"};
    EXPECT_TRUE(engine.filter(query).empty());
}

TEST(FamilyStore, CuratedStoresStayByteIdentical)
{
    // a store without family metadata must serialize exactly as it did
    // before families existed — the family fields are additive
    const family_store_dir dir{};
    std::string without_family;
    {
        svc::layout_store store{dir.path};
        pbt::rng random{0x666d2d636f6d7061ull};
        store.put_network("Trindade16", "mux21", pbt::random_network(random));
        store.save();
        std::ifstream in{dir.path / "manifest.json", std::ios::binary};
        without_family.assign(std::istreambuf_iterator<char>{in}, std::istreambuf_iterator<char>{});
    }
    EXPECT_EQ(without_family.find("family"), std::string::npos);
}

}  // namespace
