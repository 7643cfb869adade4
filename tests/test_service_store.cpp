#include "service/store.hpp"

#include "benchmarks/families.hpp"
#include "benchmarks/functions.hpp"
#include "benchmarks/suites.hpp"
#include "core/filters.hpp"
#include "io/fgl_writer.hpp"
#include "physical_design/hexagonalization.hpp"
#include "physical_design/ortho.hpp"
#include "service/hash.hpp"
#include "service/journal.hpp"
#include "service/json.hpp"
#include "service/populate.hpp"
#include "service/query.hpp"
#include "telemetry/eventlog.hpp"
#include "telemetry/report.hpp"
#include "telemetry/telemetry.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>

using namespace mnt;
using namespace mnt::svc;

namespace
{

/// A throwaway store root under the system temp directory.
class store_dir
{
public:
    explicit store_dir(const char* name) : path{std::filesystem::temp_directory_path() / name}
    {
        std::filesystem::remove_all(path);
    }

    ~store_dir()
    {
        std::error_code ec;
        std::filesystem::remove_all(path, ec);
    }

    std::filesystem::path path;
};

cat::layout_record make_record(const std::string& set, const std::string& name,
                               const cat::gate_library_kind library, const std::string& algorithm,
                               lyt::gate_level_layout layout)
{
    cat::layout_record record{};
    record.benchmark_set = set;
    record.benchmark_name = name;
    record.library = library;
    record.clocking = layout.clocking().name();
    record.algorithm = algorithm;
    record.runtime = 0.125;
    record.layout = std::move(layout);
    return record;
}

/// Facet/provenance signature of a filter result, for cross-process
/// comparison (pointers differ between catalogs, content must not).
std::vector<std::string> signature(const std::vector<const cat::layout_record*>& selection)
{
    std::vector<std::string> sig;
    sig.reserve(selection.size());
    for (const auto* r : selection)
    {
        sig.push_back(r->benchmark_set + "|" + r->benchmark_name + "|" + cat::gate_library_name(r->library) + "|" +
                      r->clocking + "|" + r->label() + "|" + std::to_string(r->area) + "|" +
                      std::to_string(r->num_wires));
    }
    return sig;
}

}  // namespace

// ----------------------------------------------------------------- json model

TEST(ServiceJsonTest, ParsesScalarsArraysObjects)
{
    const auto v = json_value::parse(R"({"a": 1, "b": [true, null, "x"], "c": {"d": -2.5}})");
    EXPECT_EQ(v.at("a").as_u64(), 1u);
    EXPECT_TRUE(v.at("b").as_array()[0].as_boolean());
    EXPECT_TRUE(v.at("b").as_array()[1].is_null());
    EXPECT_EQ(v.at("b").as_array()[2].as_string(), "x");
    EXPECT_DOUBLE_EQ(v.at("c").at("d").as_number(), -2.5);
    EXPECT_EQ(v.find("zzz"), nullptr);
}

TEST(ServiceJsonTest, RoundTripsThroughDump)
{
    const char* text = R"({"s":"q\"\\\n\u00e9","n":1.5,"i":42,"a":[1,2],"o":{"k":false}})";
    const auto v = json_value::parse(text);
    const auto again = json_value::parse(v.dump());
    EXPECT_EQ(again.at("s").as_string(), v.at("s").as_string());
    EXPECT_DOUBLE_EQ(again.at("n").as_number(), 1.5);
    EXPECT_EQ(again.at("i").as_u64(), 42u);
    EXPECT_EQ(again.dump(), v.dump());  // dump is deterministic
}

TEST(ServiceJsonTest, IntegralNumbersPrintAsPrintfDoes)
{
    // integral values below 1e15 print their digits exactly as "%.0f" does,
    // negative zero included; from 1e15 on the shortest round-trip form
    const auto printf_digits = [](const double value)
    {
        char buffer[32];
        std::snprintf(buffer, sizeof buffer, "%.0f", value);
        return std::string{buffer};
    };
    std::vector<double> values{0.0, -0.0, 1.0, -1.0, 42.0, 9007199254740992.0, -9007199254740992.0,
                               999999999999999.0, -999999999999999.0};
    std::uint64_t state = 0x9e3779b97f4a7c15ULL;
    for (int i = 0; i < 1000; ++i)
    {
        state = state * 6364136223846793005ULL + 1442695040888963407ULL;
        const auto magnitude = static_cast<double>((state >> 14U) % 1'000'000'000'000'000ULL);
        values.push_back(i % 2 == 0 ? magnitude : -magnitude);
    }
    for (const auto value : values)
    {
        EXPECT_EQ(json_number_string(value), printf_digits(value)) << value;
    }
    EXPECT_EQ(json_number_string(1e15), "1e+15");
    EXPECT_EQ(json_number_string(0.5), "0.5");
}

TEST(ServiceJsonTest, DecodesSurrogatePairs)
{
    const auto v = json_value::parse(R"("\ud83d\ude00")");  // 😀 U+1F600
    EXPECT_EQ(v.as_string(), "\xF0\x9F\x98\x80");
}

TEST(ServiceJsonTest, RejectsMalformedDocuments)
{
    EXPECT_THROW(static_cast<void>(json_value::parse("{")), parse_error);
    EXPECT_THROW(static_cast<void>(json_value::parse("[1,]")), parse_error);
    EXPECT_THROW(static_cast<void>(json_value::parse("{\"a\":1} trailing")), parse_error);
    EXPECT_THROW(static_cast<void>(json_value::parse("\"\\u12\"")), parse_error);
    EXPECT_THROW(static_cast<void>(json_value::parse("01")), parse_error);
}

TEST(ServiceJsonTest, CheckedAccessorsThrowOnKindMismatch)
{
    const auto v = json_value::parse(R"({"s": "x", "neg": -1, "frac": 0.5})");
    EXPECT_THROW(static_cast<void>(v.at("s").as_u64()), mnt_error);
    EXPECT_THROW(static_cast<void>(v.at("neg").as_u64()), mnt_error);
    EXPECT_THROW(static_cast<void>(v.at("frac").as_u64()), mnt_error);
    EXPECT_THROW(static_cast<void>(v.at("s").as_array()), mnt_error);
    EXPECT_THROW(static_cast<void>(v.at("missing")), mnt_error);
}

// ------------------------------------------------------------------- hashing

TEST(ContentHashTest, StableAndHexFormatted)
{
    const auto h = content_hash("hello");
    EXPECT_EQ(h.size(), 32u);
    EXPECT_EQ(h, content_hash("hello"));
    EXPECT_NE(h, content_hash("hello!"));
    for (const char c : h)
    {
        EXPECT_TRUE((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f')) << c;
    }
    // known-answer: the first 128 bits of SHA-256 — part of the on-disk
    // format and of every download URL, so it must never change
    EXPECT_EQ(h, "2cf24dba5fb0a30e26e83b2ac5b9e29e");
    EXPECT_EQ(content_hash(""), "e3b0c44298fc1c149afbf4c8996fb924");
}

TEST(ContentHashTest, MatchesSha256AcrossBlockBoundaries)
{
    // exercise the padding logic around the 64-byte chunk boundary
    const std::string a(55, 'a');   // length byte still fits the first chunk
    const std::string b(56, 'a');   // padding spills into a second chunk
    const std::string c(200, 'a');  // multi-chunk
    EXPECT_EQ(content_hash(a), "9f4390f8d30c2dd92ec9f095b65e2b9a");
    EXPECT_EQ(content_hash(b), "b35439a4ac6f0948b6d6f9e3c6af0f5f");
    EXPECT_EQ(content_hash(c), "c2a908d98f5df987ade41b5fce213067");
}

TEST(MurmurHashTest, PassesTheSmhasherVerification)
{
    // SMHasher's self-check: hash the keys {}, {0}, {0, 1}, ..., {0, ..., 254}
    // with seed 256 - length, hash the 256 outputs (h1 then h2, each
    // little-endian) with seed 0, and read the first 4 bytes little-endian
    std::string key;
    std::string outputs;
    for (std::uint32_t length = 0; length < 256U; ++length)
    {
        const auto digest = murmur3_x64_128(key, 256U - length);
        outputs.append(digest.cbegin(), digest.cend());
        key.push_back(static_cast<char>(length));
    }
    const auto verification = murmur3_x64_128(outputs);
    EXPECT_EQ(static_cast<std::uint32_t>(verification[0]) | static_cast<std::uint32_t>(verification[1]) << 8U |
                  static_cast<std::uint32_t>(verification[2]) << 16U |
                  static_cast<std::uint32_t>(verification[3]) << 24U,
              0x6384BA69U);

    // a 43-byte key: two blocks and an 11-byte tail
    EXPECT_EQ(hex_digits(murmur3_x64_128("The quick brown fox jumps over the lazy dog")),
              "6c1b07bc7bbc4be347939ac4a93c437a");
}

// ----------------------------------------------------------------- cache keys

TEST(CacheKeyTest, EncodesProvenance)
{
    EXPECT_EQ(cache_key("Trindade16", "2:1 MUX", cat::gate_library_kind::qca_one, "NPR@USE"),
              "Trindade16/2:1 MUX|QCA ONE|NPR@USE");

    auto record = make_record("S", "f", cat::gate_library_kind::bestagon, "ortho", pd::ortho(bm::mux21()));
    record.clocking = "ROW";
    record.optimizations = {"45°", "PLO"};
    EXPECT_EQ(cache_key(record), "S/f|Bestagon|ortho@ROW+45°+PLO");
}

// ----------------------------------------------------------------- file utils

TEST(StoreFileTest, AtomicWriteRoundTrip)
{
    const store_dir dir{"mnt_store_files_test"};
    std::filesystem::create_directories(dir.path);
    const auto path = dir.path / "data.bin";
    const std::string payload{"line\n\0binary", 12};
    write_file_atomic(path, payload);
    EXPECT_EQ(read_file(path), payload);
    write_file_atomic(path, "replaced");  // overwrite is atomic too
    EXPECT_EQ(read_file(path), "replaced");
    EXPECT_THROW(static_cast<void>(read_file(dir.path / "missing")), mnt_error);
}

namespace
{

/// The whole-file reader read_file replaced: an ifstream drained through
/// istreambuf_iterator, kept as the reference for byte equality.
std::string stream_read(const std::filesystem::path& path)
{
    std::ifstream in{path, std::ios::binary};
    return {std::istreambuf_iterator<char>{in}, std::istreambuf_iterator<char>{}};
}

}  // namespace

TEST(ReadFileTest, ReadsFilesOfEverySizeWhole)
{
    const store_dir dir{"mnt_read_file_sizes_test"};
    std::filesystem::create_directories(dir.path);
    std::uint64_t state = 0x9e3779b97f4a7c15ULL;
    for (const std::size_t size : {std::size_t{0}, std::size_t{1}, std::size_t{4096}, std::size_t{65536},
                                   std::size_t{1} << 20U})
    {
        std::string payload(size, '\0');
        for (auto& byte : payload)
        {
            state = state * 6364136223846793005ULL + 1442695040888963407ULL;
            byte = static_cast<char>(state >> 56U);
        }
        const auto path = dir.path / ("file-" + std::to_string(size));
        {
            std::ofstream out{path, std::ios::binary};
            out.write(payload.data(), static_cast<std::streamsize>(payload.size()));
        }
        const auto bytes = read_file(path);
        EXPECT_EQ(bytes.size(), size);
        EXPECT_TRUE(bytes == payload) << "file of " << size << " bytes";
    }
}

TEST(ReadFileTest, FailuresThrowMntErrorNamingThePath)
{
    const store_dir dir{"mnt_read_file_errors_test"};
    std::filesystem::create_directories(dir.path / "a_directory");
    for (const auto& path : {dir.path / "missing", dir.path / "a_directory"})
    {
        try
        {
            static_cast<void>(read_file(path));
            ADD_FAILURE() << "no exception for " << path;
        }
        catch (const mnt_error& e)
        {
            EXPECT_NE(std::string{e.what()}.find(path.string()), std::string::npos) << e.what();
        }
    }
}

TEST(ReadFileTest, MatchesTheStreamReaderOnEveryStoreBlob)
{
    auto spec = *bm::find_reference_family("aoi");
    spec.count = 4;
    populate_options options{};
    options.deterministic = true;
    options.journal = false;
    const store_dir dir{"mnt_read_file_blobs_test"};
    {
        layout_store store{dir.path};
        const auto report = populate_store(store, bm::family_entries(spec), options);
        ASSERT_EQ(report.jobs_run, report.jobs_total);
    }
    std::size_t blobs = 0;
    for (const auto& entry : std::filesystem::directory_iterator{dir.path / "blobs"})
    {
        const auto bytes = read_file(entry.path());
        EXPECT_FALSE(bytes.empty()) << entry.path();
        EXPECT_TRUE(bytes == stream_read(entry.path())) << entry.path();
        ++blobs;
    }
    EXPECT_GE(blobs, 8u);  // 4 networks and at least one layout each
    EXPECT_EQ(read_file(dir.path / "manifest.json"), stream_read(dir.path / "manifest.json"));
}

// --------------------------------------------------------------------- store

TEST(LayoutStoreTest, RoundTripPreservesQueryResults)
{
    const store_dir dir{"mnt_store_roundtrip_test"};
    const auto network = bm::mux21();
    const auto cartesian = pd::ortho(network);
    const auto hexagonal = pd::hexagonalization(cartesian);

    cat::catalog original;
    original.add_network("Trindade16", "2:1 MUX", network);
    {
        layout_store store{dir.path};
        EXPECT_TRUE(store.open_issues().empty());
        store.put_network("Trindade16", "2:1 MUX", network);

        auto qca = make_record("Trindade16", "2:1 MUX", cat::gate_library_kind::qca_one, "ortho", cartesian);
        auto hex = make_record("Trindade16", "2:1 MUX", cat::gate_library_kind::bestagon, "ortho", hexagonal);
        hex.optimizations = {"45°"};
        store.put_layout(qca);
        store.put_layout(hex);
        original.add_layout(qca);
        original.add_layout(hex);

        cat::failure_record failure{};
        failure.benchmark_set = "Trindade16";
        failure.benchmark_name = "2:1 MUX";
        failure.library = cat::gate_library_kind::qca_one;
        failure.combination = "NPR@USE";
        failure.kind = "timeout";
        failure.message = "deadline exceeded";
        failure.elapsed_s = 1.5;
        failure.attempts = 2;
        store.put_failure(failure);
        store.save();
    }

    // a fresh process: reopen and reload everything from disk
    layout_store reopened{dir.path};
    EXPECT_TRUE(reopened.open_issues().empty());
    EXPECT_EQ(reopened.num_networks(), 1u);
    EXPECT_EQ(reopened.num_layouts(), 2u);
    EXPECT_EQ(reopened.num_failures(), 1u);

    const auto snapshot = reopened.load();
    EXPECT_TRUE(snapshot.issues.empty());
    ASSERT_EQ(snapshot.catalog.num_layouts(), 2u);
    ASSERT_EQ(snapshot.layout_ids.size(), 2u);
    EXPECT_EQ(snapshot.catalog.num_failures(), 1u);
    EXPECT_EQ(snapshot.catalog.failures().front().kind, "timeout");

    // identical query results on every surface
    const query_engine original_engine{original};
    const query_engine loaded_engine{snapshot.catalog, snapshot.layout_ids};
    for (const auto best_only : {false, true})
    {
        for (const auto& library :
             {std::vector<cat::gate_library_kind>{}, std::vector<cat::gate_library_kind>{
                                                         cat::gate_library_kind::bestagon}})
        {
            cat::filter_query query{};
            query.best_only = best_only;
            query.libraries = library;
            EXPECT_EQ(signature(original_engine.filter(query)), signature(loaded_engine.filter(query)));
        }
    }

    // download ids are the blobs' content hashes
    for (std::size_t i = 0; i < snapshot.layout_ids.size(); ++i)
    {
        const auto path = reopened.blob_path(snapshot.layout_ids[i]);
        ASSERT_TRUE(path.has_value());
        const auto bytes = read_file(*path);
        EXPECT_EQ(content_hash(bytes), snapshot.layout_ids[i]);
        EXPECT_EQ(bytes, io::write_fgl_string(snapshot.catalog.layouts()[i].layout));
    }
}

TEST(LayoutStoreTest, PutsSavesAndJournalAppendsOpenSpans)
{
    const store_dir dir{"mnt_store_spans_test"};
    const auto record = make_record("S", "f", cat::gate_library_kind::qca_one, "ortho", pd::ortho(bm::mux21()));

    tel::set_enabled(true);
    tel::registry::instance().reset();
    {
        layout_store store{dir.path};
        store.put_network("S", "f", bm::mux21());
        store.put_layout(record);
        store.save();
        run_journal journal{dir.path / run_journal::default_filename};
        journal.run_start(1, "spans");
        journal.run_end(0, 0);
    }
    const auto report = tel::capture_report();
    tel::registry::instance().reset();
    tel::set_enabled(false);

    ASSERT_NE(report.trace, nullptr);
    const auto calls = [&](const std::string& name)
    {
        std::uint64_t total = 0;
        for (const auto& child : report.trace->children)
        {
            total += child->name == name ? child->calls : 0;
        }
        return total;
    };
    EXPECT_EQ(calls("store/put"), 2u);  // one network, one layout
    EXPECT_EQ(calls("store/save"), 1u);
    EXPECT_EQ(calls("journal/append"), 2u);
}

TEST(LayoutStoreTest, PutLayoutIsIdempotentPerCacheKey)
{
    const store_dir dir{"mnt_store_idempotent_test"};
    layout_store store{dir.path};
    const auto record = make_record("S", "f", cat::gate_library_kind::qca_one, "ortho", pd::ortho(bm::mux21()));
    const auto first = store.put_layout(record);
    const auto second = store.put_layout(record);
    EXPECT_EQ(first, second);
    EXPECT_EQ(store.num_layouts(), 1u);
    EXPECT_TRUE(store.contains(cache_key(record)));
}

TEST(LayoutStoreTest, RepeatedFailureReplacesThePreviousRecord)
{
    const store_dir dir{"mnt_store_failure_dedupe_test"};
    layout_store store{dir.path};
    cat::failure_record failure{};
    failure.benchmark_set = "S";
    failure.benchmark_name = "f";
    failure.library = cat::gate_library_kind::qca_one;
    failure.combination = "exact@USE";
    failure.kind = "timeout";
    failure.attempts = 1;
    store.put_failure(failure);
    failure.attempts = 2;  // the rerun's retry supersedes the first record
    store.put_failure(failure);
    EXPECT_EQ(store.num_failures(), 1u);
    store.save();

    layout_store reopened{dir.path};
    const auto snapshot = reopened.load();
    ASSERT_EQ(snapshot.catalog.num_failures(), 1u);
    EXPECT_EQ(snapshot.catalog.failures().front().attempts, 2u);
}

TEST(LayoutStoreTest, CompletedMarkersPersist)
{
    const store_dir dir{"mnt_store_completed_test"};
    {
        layout_store store{dir.path};
        store.mark_completed("S/f|QCA ONE|exact@USE");
        store.mark_completed("S/f|QCA ONE|exact@USE");  // duplicate is a no-op
        store.save();
    }
    layout_store reopened{dir.path};
    EXPECT_TRUE(reopened.contains("S/f|QCA ONE|exact@USE"));
    EXPECT_FALSE(reopened.contains("S/f|QCA ONE|exact@RES"));
}

TEST(LayoutStoreTest, CorruptManifestDegradesToEmptyStore)
{
    const store_dir dir{"mnt_store_corrupt_manifest_test"};
    {
        layout_store store{dir.path};
        store.put_layout(make_record("S", "f", cat::gate_library_kind::qca_one, "ortho", pd::ortho(bm::mux21())));
        store.save();
    }
    write_file_atomic(dir.path / "manifest.json", "{\"version\": 1, \"layouts\": [ BROKEN");

    layout_store reopened{dir.path};
    ASSERT_FALSE(reopened.open_issues().empty());
    EXPECT_EQ(reopened.open_issues().front().kind, res::outcome_kind::internal_error);
    EXPECT_EQ(reopened.num_layouts(), 0u);
    const auto snapshot = reopened.load();
    EXPECT_FALSE(snapshot.issues.empty());
    EXPECT_EQ(snapshot.catalog.num_layouts(), 0u);
}

TEST(LayoutStoreTest, InvalidManifestEntryIsSkippedOthersSurvive)
{
    const store_dir dir{"mnt_store_bad_entry_test"};
    {
        layout_store store{dir.path};
        store.put_layout(make_record("S", "f", cat::gate_library_kind::qca_one, "ortho", pd::ortho(bm::mux21())));
        store.save();
    }
    // splice a structurally-valid JSON entry with missing members in front
    auto manifest = read_file(dir.path / "manifest.json");
    const auto anchor = manifest.find("\"layouts\":[");
    ASSERT_NE(anchor, std::string::npos);
    manifest.insert(anchor + std::string{"\"layouts\":["}.size(), "{\"set\":\"S\"},");
    write_file_atomic(dir.path / "manifest.json", manifest);

    layout_store reopened{dir.path};
    EXPECT_EQ(reopened.open_issues().size(), 1u);
    EXPECT_EQ(reopened.num_layouts(), 1u);  // the healthy entry survived
    const auto snapshot = reopened.load();
    EXPECT_EQ(snapshot.catalog.num_layouts(), 1u);
}

TEST(LayoutStoreTest, TruncatedBlobIsSkippedAndReported)
{
    const store_dir dir{"mnt_store_truncated_blob_test"};
    const auto cartesian = pd::ortho(bm::mux21());
    const auto hexagonal = pd::hexagonalization(cartesian);
    std::string hex_blob;
    {
        layout_store store{dir.path};
        store.put_layout(make_record("S", "f", cat::gate_library_kind::qca_one, "ortho", cartesian));
        hex_blob = store.put_layout(
            make_record("S", "f", cat::gate_library_kind::bestagon, "ortho", hexagonal));
        store.save();
    }
    // truncate the hexagonal blob
    const auto blob = dir.path / "blobs" / (hex_blob + ".fgl");
    const auto bytes = read_file(blob);
    write_file_atomic(blob, bytes.substr(0, bytes.size() / 2));

    layout_store reopened{dir.path};
    const auto snapshot = reopened.load();
    ASSERT_EQ(snapshot.issues.size(), 1u);
    EXPECT_EQ(snapshot.issues.front().kind, res::outcome_kind::internal_error);
    ASSERT_EQ(snapshot.catalog.num_layouts(), 1u);  // the intact layout loads
    EXPECT_EQ(snapshot.catalog.layouts().front().library, cat::gate_library_kind::qca_one);
}

TEST(LayoutStoreTest, CorruptBlobIsPrunedAndRegenerable)
{
    const store_dir dir{"mnt_store_regen_blob_test"};
    const auto record = make_record("S", "f", cat::gate_library_kind::qca_one, "ortho", pd::ortho(bm::mux21()));
    const auto key = cache_key(record);
    std::string blob_id;
    {
        layout_store store{dir.path};
        blob_id = store.put_layout(record);
        store.save();
    }
    // damage the blob in place: its bytes no longer match its hash
    const auto blob = dir.path / "blobs" / (blob_id + ".fgl");
    write_file_atomic(blob, "garbage");

    layout_store reopened{dir.path};
    EXPECT_TRUE(reopened.contains(key));  // the manifest still claims it ...
    const auto snapshot = reopened.load();
    ASSERT_EQ(snapshot.issues.size(), 1u);
    EXPECT_EQ(snapshot.catalog.num_layouts(), 0u);

    // ... but load() pruned the entry and deleted the bad file, so the next
    // generation run reruns the combo and rewrites the blob
    EXPECT_FALSE(reopened.contains(key));
    EXPECT_FALSE(std::filesystem::exists(blob));
    EXPECT_EQ(reopened.put_layout(record), blob_id);
    EXPECT_TRUE(std::filesystem::exists(blob));
    reopened.save();

    layout_store repaired{dir.path};
    const auto healthy = repaired.load();
    EXPECT_TRUE(healthy.issues.empty());
    ASSERT_EQ(healthy.catalog.num_layouts(), 1u);
    EXPECT_EQ(read_file(blob), io::write_fgl_string(record.layout));
}

TEST(LayoutStoreTest, ManifestWithBadVersionFieldDegradesToEmptyStore)
{
    const store_dir dir{"mnt_store_bad_version_test"};
    for (const char* manifest : {"{\"layouts\": []}",               // version missing
                                 "{\"version\": \"two\"}",         // version not a number
                                 "{\"version\": 2, \"layouts\""})  // truncated document
    {
        std::filesystem::create_directories(dir.path / "blobs");
        write_file_atomic(dir.path / "manifest.json", manifest);
        layout_store store{dir.path};  // must not throw
        ASSERT_FALSE(store.open_issues().empty()) << manifest;
        EXPECT_EQ(store.open_issues().front().kind, res::outcome_kind::internal_error);
        EXPECT_EQ(store.num_layouts(), 0u);
    }
}

TEST(LayoutStoreTest, OlderManifestVersionLoadsAsEmptyStore)
{
    const store_dir dir{"mnt_store_old_version_test"};
    std::filesystem::create_directories(dir.path / "blobs");
    // a version-1 store addressed blobs by 64-bit FNV-1a; it cannot be
    // verified under the current format, so it is reported and rebuilt
    write_file_atomic(dir.path / "manifest.json", "{\"version\": 1, \"layouts\": []}");
    layout_store store{dir.path};
    ASSERT_FALSE(store.open_issues().empty());
    EXPECT_NE(store.open_issues().front().message.find("predates"), std::string::npos);
    EXPECT_EQ(store.num_layouts(), 0u);
}

TEST(LayoutStoreTest, MissingBlobIsSkippedAndReported)
{
    const store_dir dir{"mnt_store_missing_blob_test"};
    std::string blob_id;
    {
        layout_store store{dir.path};
        blob_id =
            store.put_layout(make_record("S", "f", cat::gate_library_kind::qca_one, "ortho", pd::ortho(bm::mux21())));
        store.save();
    }
    std::filesystem::remove(dir.path / "blobs" / (blob_id + ".fgl"));

    layout_store reopened{dir.path};
    const auto snapshot = reopened.load();
    EXPECT_EQ(snapshot.catalog.num_layouts(), 0u);
    ASSERT_EQ(snapshot.issues.size(), 1u);
    EXPECT_EQ(snapshot.issues.front().label, cache_key("S", "f", cat::gate_library_kind::qca_one, "ortho@2DDWave"));
}

TEST(LayoutStoreTest, NewerManifestVersionRefusesToOpen)
{
    const store_dir dir{"mnt_store_version_test"};
    std::filesystem::create_directories(dir.path / "blobs");
    write_file_atomic(dir.path / "manifest.json", "{\"version\": 999}");
    EXPECT_THROW((layout_store{dir.path}), mnt_error);
}

TEST(LayoutStoreTest, BlobPathRejectsNonHexIds)
{
    const store_dir dir{"mnt_store_traversal_test"};
    const layout_store store{dir.path};
    EXPECT_FALSE(store.blob_path("../manifest").has_value());
    EXPECT_FALSE(store.blob_path("ABCDEF0123456789").has_value());  // upper case is not an id
    EXPECT_FALSE(store.blob_path("0123456789abcdef").has_value());  // hex but absent
}

// ----------------------------------------------- durability and shard merge

TEST(LayoutStoreTest, RemoveFailureDropsExactlyTheMatchingRecord)
{
    const store_dir dir{"mnt_store_remove_failure_test"};
    layout_store store{dir.path};
    cat::failure_record failure{};
    failure.benchmark_set = "S";
    failure.benchmark_name = "f";
    failure.library = cat::gate_library_kind::qca_one;
    failure.combination = "(worker)";
    failure.kind = "crashed";
    store.put_failure(failure);
    failure.combination = "exact@USE";
    store.put_failure(failure);
    ASSERT_EQ(store.num_failures(), 2u);

    EXPECT_TRUE(store.remove_failure("S", "f", "QCA ONE", "(worker)"));
    EXPECT_EQ(store.num_failures(), 1u);
    EXPECT_FALSE(store.remove_failure("S", "f", "QCA ONE", "(worker)"));  // already gone
    EXPECT_FALSE(store.remove_failure("S", "f", "Bestagon", "exact@USE"));  // wrong library
    EXPECT_EQ(store.num_failures(), 1u);
}

TEST(LayoutStoreTest, MergeManifestFileFoldsAShardAndDeduplicates)
{
    const store_dir dir{"mnt_store_merge_test"};
    const auto network = bm::mux21();
    const auto cartesian = pd::ortho(network);

    layout_store main_store{dir.path};
    main_store.put_network("S", "f", network);

    // a worker's shard: same root (shared blobs), separate manifest
    const std::filesystem::path shard_file =
        std::filesystem::path{layout_store::shard_dir_name} / "job-test.json";
    {
        layout_store shard{dir.path, shard_file};
        shard.put_network("S", "f", network);  // duplicate of the main store's
        shard.put_layout(make_record("S", "f", cat::gate_library_kind::qca_one, "ortho", cartesian));
        shard.mark_completed("S/f|QCA ONE|exact@USE");
        cat::failure_record failure{};
        failure.benchmark_set = "S";
        failure.benchmark_name = "f";
        failure.library = cat::gate_library_kind::qca_one;
        failure.combination = "NPR@USE";
        failure.kind = "timeout";
        shard.put_failure(failure);
        shard.save();
    }

    const auto stats = main_store.merge_manifest_file(dir.path / shard_file);
    EXPECT_EQ(stats.networks, 0u);  // deduplicated against the main store
    EXPECT_EQ(stats.layouts, 1u);
    EXPECT_EQ(stats.failures, 1u);
    EXPECT_EQ(stats.completed, 1u);
    EXPECT_EQ(stats.blob_ids.size(), 1u);
    EXPECT_EQ(main_store.num_layouts(), 1u);
    EXPECT_TRUE(main_store.contains("S/f|QCA ONE|exact@USE"));

    // merging the same shard again adds nothing
    const auto again = main_store.merge_manifest_file(dir.path / shard_file);
    EXPECT_EQ(again.layouts, 0u);
    EXPECT_EQ(again.completed, 0u);
    EXPECT_EQ(main_store.num_layouts(), 1u);
    EXPECT_EQ(main_store.num_failures(), 1u);  // failure replaced, not duplicated

    // the merged state persists and reloads cleanly
    main_store.save();
    layout_store reopened{dir.path};
    EXPECT_EQ(reopened.num_layouts(), 1u);
    EXPECT_EQ(reopened.num_failures(), 1u);
    EXPECT_TRUE(reopened.load().issues.empty());
}

TEST(LayoutStoreTest, MergeManifestFileRejectsMissingOrForeignFiles)
{
    const store_dir dir{"mnt_store_merge_reject_test"};
    layout_store store{dir.path};
    EXPECT_THROW(static_cast<void>(store.merge_manifest_file(dir.path / "nope.json")), mnt_error);

    write_file_atomic(dir.path / "bad.json", "not json");
    EXPECT_THROW(static_cast<void>(store.merge_manifest_file(dir.path / "bad.json")), mnt_error);

    write_file_atomic(dir.path / "old.json", "{\"version\": 1}");
    EXPECT_THROW(static_cast<void>(store.merge_manifest_file(dir.path / "old.json")), mnt_error);
}

TEST(LayoutStoreTest, ManifestBytesAreIndependentOfIngestOrder)
{
    const store_dir dir_a{"mnt_store_order_a_test"};
    const store_dir dir_b{"mnt_store_order_b_test"};
    const auto network = bm::mux21();
    const auto cartesian = pd::ortho(network);
    const auto hexagonal = pd::hexagonalization(cartesian);
    const auto qca = make_record("S", "f", cat::gate_library_kind::qca_one, "ortho", cartesian);
    const auto hex = make_record("S", "f", cat::gate_library_kind::bestagon, "ortho", hexagonal);

    {
        layout_store store{dir_a.path};
        store.put_network("S", "f", network);
        store.put_layout(qca);
        store.put_layout(hex);
        store.mark_completed("S/f|QCA ONE|exact@USE");
        store.mark_completed("S/f|Bestagon|exact@ROW");
        store.save();
    }
    {
        // same content, reverse ingest order
        layout_store store{dir_b.path};
        store.mark_completed("S/f|Bestagon|exact@ROW");
        store.mark_completed("S/f|QCA ONE|exact@USE");
        store.put_layout(hex);
        store.put_layout(qca);
        store.put_network("S", "f", network);
        store.save();
    }
    EXPECT_EQ(read_file(dir_a.path / "manifest.json"), read_file(dir_b.path / "manifest.json"));
}

TEST(LayoutStoreTest, PopulatedManifestBytesAreUnchanged)
{
    // Trindade16 XOR and four functions of an aoi family, deterministic and
    // journaled: the manifest is saved after every job
    std::vector<bm::benchmark_entry> entries;
    for (auto& entry : bm::trindade16())
    {
        if (entry.name == "XOR")
        {
            entries.push_back(std::move(entry));
        }
    }
    auto spec = *bm::find_reference_family("aoi");
    spec.count = 4;
    spec.seed = 0x1234;
    for (auto& entry : bm::family_entries(spec))
    {
        entries.push_back(std::move(entry));
    }
    populate_options options{};
    options.deterministic = true;
    options.journal = true;

    const store_dir dir{"mnt_store_golden_manifest_test"};
    const auto manifest = dir.path / "manifest.json";
    // recorded from the save that built the whole manifest document per call
    const char* golden = "1ea05e30e3f7ec330954f9ee9598d8d1";
    {
        layout_store store{dir.path};
        const auto report = populate_store(store, entries, options);
        ASSERT_EQ(report.jobs_run, report.jobs_total);
        ASSERT_EQ(report.jobs_total, 10u);
    }
    EXPECT_EQ(content_hash(read_file(manifest)), golden);

    // rows absorbed from the manifest save to the same bytes
    {
        layout_store store{dir.path};
        store.save();
    }
    EXPECT_EQ(content_hash(read_file(manifest)), golden);
}

TEST(LayoutStoreTest, RerunThatAddsNothingSavesTheManifestOnce)
{
    auto spec = *bm::find_reference_family("aoi");
    spec.count = 4;
    const auto entries = bm::family_entries(spec);
    populate_options options{};
    options.deterministic = true;
    options.journal = true;
    const store_dir dir{"mnt_store_rerun_saves_test"};
    const auto manifest = dir.path / "manifest.json";

    // one populate run over the store; counts its store/save spans wherever
    // they sit in the span tree
    struct run_saves
    {
        std::size_t jobs{0};
        std::uint64_t saves{0};
    };
    const auto populate_and_count_saves = [&]
    {
        run_saves result{};
        tel::set_enabled(true);
        tel::registry::instance().reset();
        {
            layout_store store{dir.path};
            const auto report = populate_store(store, entries, options);
            EXPECT_EQ(report.jobs_run, report.jobs_total);
            result.jobs = report.jobs_run;
        }
        const auto report = tel::capture_report();
        tel::registry::instance().reset();
        tel::set_enabled(false);
        const auto count = [&](const auto& self, const tel::span_node& node) -> void
        {
            result.saves += node.name == "store/save" ? node.calls : 0;
            for (const auto& child : node.children)
            {
                self(self, *child);
            }
        };
        count(count, *report.trace);
        return result;
    };

    // a fresh store: every job adds content and saves before its done record
    const auto first = populate_and_count_saves();
    EXPECT_EQ(first.saves, first.jobs + 1);
    const auto before = read_file(manifest);

    // every combination is cached: only the run-end save writes, and it
    // writes the same bytes
    const auto second = populate_and_count_saves();
    EXPECT_EQ(second.jobs, first.jobs);
    EXPECT_EQ(second.saves, 1u);
    EXPECT_EQ(read_file(manifest), before);
}

TEST(LayoutStoreTest, SaveRendersRowsFromFieldsNotFromTheOpenedManifest)
{
    // one entry per section, with members reordered, whitespace added, and
    // a number and a hex seed spelled differently from the canonical form
    const store_dir dir{"mnt_store_canonical_rows_test"};
    std::filesystem::create_directories(dir.path);
    write_file_atomic(dir.path / "manifest.json", R"({
  "completed": [ "S/f|QCA ONE|exact@USE" ],
  "failures": [
    { "attempts": 1, "elapsed_s": 5e-1, "message": "no \"route\"", "kind": "timeout",
      "combination": "exact@RES", "library": "QCA ONE", "name": "f", "set": "S" }
  ],
  "layouts": [
    { "cache_key": "S/f|QCA ONE|ortho@2DDWave", "blob": "0123456789abcdef0123456789abcdef",
      "family_seed": "0x00000000000012AB", "family": "fam", "runtime_s": 1.25e-1,
      "crossings": 0, "wires": 3, "gates": 4, "area": 12, "height": 3, "width": 4,
      "optimizations": [ "PLO" ], "algorithm": "ortho", "clocking": "2DDWave",
      "library": "QCA ONE", "name": "f", "set": "S" }
  ],
  "networks": [
    { "blob": "fedcba9876543210fedcba9876543210", "family": "fam",
      "gates": 4, "outputs": 1, "inputs": 2, "name": "f", "set": "S" }
  ],
  "version": 2
}
)");
    {
        layout_store store{dir.path};
        ASSERT_TRUE(store.open_issues().empty());
        EXPECT_EQ(store.num_networks(), 1u);
        EXPECT_EQ(store.num_layouts(), 1u);
        EXPECT_EQ(store.num_failures(), 1u);
        store.save();
    }
    EXPECT_EQ(read_file(dir.path / "manifest.json"),
              R"({"version":2,"networks":[{"set":"S","name":"f","inputs":2,"outputs":1,"gates":4,"family":"fam",)"
              R"("blob":"fedcba9876543210fedcba9876543210"}],"layouts":[{"set":"S","name":"f","library":"QCA ONE",)"
              R"("clocking":"2DDWave","algorithm":"ortho","optimizations":["PLO"],"width":4,"height":3,"area":12,)"
              R"("gates":4,"wires":3,"crossings":0,"runtime_s":0.125,"family":"fam",)"
              R"("family_seed":"0x00000000000012ab","blob":"0123456789abcdef0123456789abcdef",)"
              R"("cache_key":"S/f|QCA ONE|ortho@2DDWave"}],"failures":[{"set":"S","name":"f","library":"QCA ONE",)"
              R"("combination":"exact@RES","kind":"timeout","message":"no \"route\"","elapsed_s":0.5,"attempts":1}],)"
              R"("completed":["S/f|QCA ONE|exact@USE"]})"
              "\n");
}

TEST(LayoutStoreTest, StaleTempFilesOfDeadWritersArePruned)
{
    const store_dir dir{"mnt_store_stale_temp_test"};
    std::filesystem::create_directories(dir.path / "blobs");
    // pid 1 is not ours to signal -> kill(1, 0) fails with EPERM, so the file
    // is treated as live and kept; a wildly out-of-range pid is surely dead
    write_file_atomic(dir.path / "manifest.json", "{\"version\": 2}");
    const auto dead = dir.path / "blobs" / "deadbeef.fgl.tmp-999999999";
    {
        std::ofstream out{dead};
        out << "partial";
    }
    layout_store store{dir.path};
    EXPECT_FALSE(std::filesystem::exists(dead));
}

TEST(LayoutStoreTest, UnreadableManifestLogsAStructuredEvent)
{
    const store_dir dir{"mnt_store_manifest_event_test"};
    std::filesystem::create_directories(dir.path / "blobs");
    write_file_atomic(dir.path / "manifest.json", "{broken");

    auto& log = tel::event_log::instance();
    log.clear();
    layout_store store{dir.path};
    EXPECT_EQ(store.num_layouts(), 0u);

    bool found = false;
    for (const auto& record : log.snapshot())
    {
        if (record.component == "store" && record.severity == tel::log_severity::error &&
            record.message.find("unreadable") != std::string::npos)
        {
            found = true;
            // the event must carry the offending path for the operator
            bool has_path = false;
            for (const auto& [key, value] : record.fields)
            {
                has_path |= key == "path" && value.find("manifest.json") != std::string::npos;
            }
            EXPECT_TRUE(has_path);
        }
    }
    EXPECT_TRUE(found);
}

TEST(LayoutStoreTest, VersionSkewLogsWarnAndErrorEvents)
{
    auto& log = tel::event_log::instance();

    const store_dir old_dir{"mnt_store_event_old_test"};
    std::filesystem::create_directories(old_dir.path / "blobs");
    write_file_atomic(old_dir.path / "manifest.json", "{\"version\": 1}");
    log.clear();
    layout_store old_store{old_dir.path};
    bool warned = false;
    for (const auto& record : log.snapshot())
    {
        warned |= record.component == "store" && record.severity == tel::log_severity::warn &&
                  record.message.find("predates") != std::string::npos;
    }
    EXPECT_TRUE(warned);

    const store_dir new_dir{"mnt_store_event_new_test"};
    std::filesystem::create_directories(new_dir.path / "blobs");
    write_file_atomic(new_dir.path / "manifest.json", "{\"version\": 999}");
    log.clear();
    EXPECT_THROW((layout_store{new_dir.path}), mnt_error);
    bool errored = false;
    for (const auto& record : log.snapshot())
    {
        errored |= record.component == "store" && record.severity == tel::log_severity::error &&
                   record.message.find("newer") != std::string::npos;
    }
    EXPECT_TRUE(errored);
}
