// The export index (svc::render_index_json, written by
// `mnt_bench_cli export --json`) and the one JSON string escaper every
// writer shares.

#include "service/snapshot.hpp"

#include "benchmarks/functions.hpp"
#include "common/json_escape.hpp"
#include "core/filters.hpp"
#include "physical_design/ortho.hpp"
#include "service/json.hpp"
#include "service/query.hpp"

#include <gtest/gtest.h>

#include <string>

using namespace mnt;
using namespace mnt::cat;

namespace
{

catalog small_catalog()
{
    catalog c;
    c.add_network("Trindade16", "2:1 MUX", bm::mux21());

    layout_record record{};
    record.benchmark_set = "Trindade16";
    record.benchmark_name = "2:1 MUX";
    record.library = gate_library_kind::qca_one;
    record.clocking = "2DDWave";
    record.algorithm = "ortho";
    record.optimizations = {"InOrd (SDN)", "PLO"};
    record.runtime = 0.125;
    record.layout = pd::ortho(bm::mux21());
    c.add_layout(std::move(record));
    return c;
}

/// The index of every layout of \p c, as `export --json` writes it.
std::string index_of_everything(const catalog& c)
{
    const svc::query_engine engine{c};
    return svc::render_index_json(engine, engine.filter({}));
}

}  // namespace

TEST(JsonExportTest, EscapeSpecials)
{
    EXPECT_EQ(json_escape("a\"b\\c"), "a\\\"b\\\\c");
    EXPECT_EQ(json_escape("line\nbreak\ttab"), "line\\nbreak\\ttab");
    EXPECT_EQ(json_escape(std::string{"ctl\x01"}), "ctl\\u0001");
    EXPECT_EQ(json_escape("plain"), "plain");
}

TEST(JsonExportTest, EscapeControlCharactersAndDelete)
{
    EXPECT_EQ(json_escape(std::string{"a\bb\fc"}), "a\\bb\\fc");
    EXPECT_EQ(json_escape(std::string{"nul\0byte", 8}), "nul\\u0000byte");
    EXPECT_EQ(json_escape(std::string{"del\x7f"}), "del\\u007f");
    EXPECT_EQ(json_escape(std::string{"\x01\x02\x1f"}), "\\u0001\\u0002\\u001f");
}

TEST(JsonExportTest, ValidUtf8PassesThroughVerbatim)
{
    // 2-, 3- and 4-byte sequences (é, 漢, 😀) and a benchmark-style name
    EXPECT_EQ(json_escape("\xC3\xA9"), "\xC3\xA9");
    EXPECT_EQ(json_escape("\xE6\xBC\xA2"), "\xE6\xBC\xA2");
    EXPECT_EQ(json_escape("\xF0\x9F\x98\x80"), "\xF0\x9F\x98\x80");
    EXPECT_EQ(json_escape("ortho@ROW+45°"), "ortho@ROW+45°");
}

TEST(JsonExportTest, InvalidUtf8IsReplacedNotEmitted)
{
    // hostile benchmark names must never produce invalid JSON output:
    // every byte that cannot start/continue a valid sequence becomes U+FFFD
    EXPECT_EQ(json_escape("\xFF"), "\\ufffd");
    EXPECT_EQ(json_escape("a\x80z"), "a\\ufffdz");              // lone continuation
    EXPECT_EQ(json_escape("\xC3 x"), "\\ufffd x");              // truncated 2-byte
    EXPECT_EQ(json_escape("\xC0\xAF"), "\\ufffd\\ufffd");       // overlong 2-byte
    EXPECT_EQ(json_escape("\xE0\x80\x80"), "\\ufffd\\ufffd\\ufffd");  // overlong 3-byte
    EXPECT_EQ(json_escape("\xED\xA0\x80"), "\\ufffd\\ufffd\\ufffd");  // UTF-16 surrogate
    EXPECT_EQ(json_escape("\xF5\x80\x80\x80"), "\\ufffd\\ufffd\\ufffd\\ufffd");  // > U+10FFFF
    EXPECT_EQ(json_escape(std::string{"\xF0\x9F\x98"}), "\\ufffd\\ufffd\\ufffd");  // truncated 4-byte
}

TEST(JsonExportTest, HostileNamesYieldParseableDocuments)
{
    catalog c;
    c.add_network("set\"\\\n\x01\xFF", "name\x7f\xC3(", bm::mux21());

    layout_record record{};
    record.benchmark_set = "set\"\\\n\x01\xFF";
    record.benchmark_name = "name\x7f\xC3(";
    record.library = gate_library_kind::qca_one;
    record.clocking = "2DDWave";
    record.algorithm = "ortho";
    record.optimizations = {"opt\twith\x02junk\x90"};
    record.layout = pd::ortho(bm::mux21());
    c.add_layout(std::move(record));

    const auto doc = index_of_everything(c);
    // no raw control or invalid byte may survive into the document
    for (const char ch : doc)
    {
        const auto byte = static_cast<unsigned char>(ch);
        EXPECT_GE(byte, 0x20u) << "raw byte " << static_cast<int>(byte);
        EXPECT_NE(byte, 0xFFu);
        EXPECT_NE(byte, 0x90u);
    }
    EXPECT_NE(doc.find("set\\\"\\\\\\n\\u0001\\ufffd"), std::string::npos);
    EXPECT_NE(doc.find("name\\u007f\\ufffd("), std::string::npos);
    EXPECT_NE(doc.find("opt\\twith\\u0002junk\\ufffd"), std::string::npos);
    EXPECT_EQ(svc::json_value::parse(doc).at("layouts").as_array().size(), 1u);
}

TEST(JsonExportTest, DocumentStructure)
{
    const auto c = small_catalog();
    const svc::query_engine engine{c};
    const auto doc = svc::render_index_json(engine, engine.filter({}));

    EXPECT_EQ(doc.rfind("{\"networks\":[", 0), 0u);
    EXPECT_NE(doc.find("\"set\":\"Trindade16\""), std::string::npos);
    EXPECT_NE(doc.find("\"name\":\"2:1 MUX\""), std::string::npos);
    EXPECT_NE(doc.find("\"library\":\"QCA ONE\""), std::string::npos);
    EXPECT_NE(doc.find("\"algorithm\":\"ortho\""), std::string::npos);
    EXPECT_NE(doc.find("\"optimizations\":[\"InOrd (SDN)\",\"PLO\"]"), std::string::npos);
    EXPECT_NE(doc.find("\"inputs\":3"), std::string::npos);
    EXPECT_NE(doc.find("\"gates\":4"), std::string::npos);
    EXPECT_NE(doc.find("\"runtime_s\":0.125"), std::string::npos);

    // metrics derived from the layout itself must appear
    const auto& r = c.layouts().front();
    EXPECT_NE(doc.find("\"area\":" + std::to_string(r.area)), std::string::npos);

    // the network row is the /benchmarks row; the layout row is the /layouts
    // row, whose id is the content hash of the layout's .fgl
    const auto document = svc::json_value::parse(doc);
    const auto& networks = document.at("networks").as_array();
    ASSERT_EQ(networks.size(), 1u);
    EXPECT_EQ(networks.front().at("layouts").as_u64(), 1u);
    const auto& layouts = document.at("layouts").as_array();
    ASSERT_EQ(layouts.size(), 1u);
    const auto page = engine.run(svc::page_query{});
    ASSERT_EQ(page.rendered.size(), 1u);
    EXPECT_EQ(layouts.front().dump(), page.rendered.front());
    EXPECT_EQ(layouts.front().at("id").as_string(), engine.id_of(0));
    EXPECT_TRUE(document.at("failures").as_array().empty());
}

TEST(JsonExportTest, BalancedBracesAndQuotes)
{
    const auto doc = index_of_everything(small_catalog());
    long braces = 0;
    long brackets = 0;
    long quotes = 0;
    bool escaped = false;
    bool in_string = false;
    for (const char ch : doc)
    {
        if (escaped)
        {
            escaped = false;
            continue;
        }
        if (ch == '\\')
        {
            escaped = true;
            continue;
        }
        if (ch == '"')
        {
            in_string = !in_string;
            ++quotes;
            continue;
        }
        if (in_string)
        {
            continue;
        }
        braces += ch == '{' ? 1 : ch == '}' ? -1 : 0;
        brackets += ch == '[' ? 1 : ch == ']' ? -1 : 0;
        EXPECT_GE(braces, 0);
        EXPECT_GE(brackets, 0);
    }
    EXPECT_EQ(braces, 0);
    EXPECT_EQ(brackets, 0);
    EXPECT_EQ(quotes % 2, 0);
}

TEST(JsonExportTest, SelectionExportsOnlyReferencedNetworks)
{
    auto c = small_catalog();
    c.add_network("Fontes18", "t", bm::t_function());  // never selected
    for (const auto* set : {"Trindade16", "Fontes18"})
    {
        failure_record failure{};
        failure.benchmark_set = set;
        failure.benchmark_name = std::string{set} == "Fontes18" ? "t" : "2:1 MUX";
        failure.combination = "NPR@USE";
        failure.kind = "timeout";
        failure.message = "deadline exceeded";
        failure.elapsed_s = 1.5;
        failure.attempts = 2;
        c.add_failure(std::move(failure));
    }

    filter_query query{};
    query.libraries = {gate_library_kind::qca_one};
    const svc::query_engine engine{c};
    const auto doc = svc::render_index_json(engine, engine.filter(query));
    EXPECT_NE(doc.find("2:1 MUX"), std::string::npos);
    EXPECT_EQ(doc.find("Fontes18"), std::string::npos);

    // the failures of the referenced networks only, with every member
    const auto failures = svc::json_value::parse(doc).at("failures").as_array();
    ASSERT_EQ(failures.size(), 1u);
    EXPECT_EQ(failures.front().dump(),
              "{\"set\":\"Trindade16\",\"name\":\"2:1 MUX\",\"library\":\"QCA ONE\",\"combination\":\"NPR@USE\","
              "\"kind\":\"timeout\",\"message\":\"deadline exceeded\",\"elapsed_s\":1.5,\"attempts\":2}");

    // a record of another catalog is refused
    const auto other = small_catalog();
    EXPECT_THROW(static_cast<void>(svc::render_index_json(engine, {&other.layouts().front()})), precondition_error);
}

TEST(JsonExportTest, EmptyCatalog)
{
    EXPECT_EQ(index_of_everything(catalog{}), "{\"networks\":[],\"layouts\":[],\"failures\":[]}");
}
