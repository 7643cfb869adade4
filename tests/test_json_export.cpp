#include "core/json_export.hpp"

#include "benchmarks/functions.hpp"
#include "common/json_escape.hpp"
#include "core/filters.hpp"
#include "physical_design/ortho.hpp"

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

    const auto doc = catalog_json_string(c);
    // no raw control or invalid byte may survive into the document
    for (const char ch : doc)
    {
        const auto byte = static_cast<unsigned char>(ch);
        EXPECT_TRUE(byte >= 0x20 || ch == '\n') << "raw byte " << static_cast<int>(byte);
        EXPECT_NE(byte, 0xFFu);
        EXPECT_NE(byte, 0x90u);
    }
    EXPECT_NE(doc.find("set\\\"\\\\\\n\\u0001\\ufffd"), std::string::npos);
    EXPECT_NE(doc.find("name\\u007f\\ufffd("), std::string::npos);
    EXPECT_NE(doc.find("opt\\twith\\u0002junk\\ufffd"), std::string::npos);
}

TEST(JsonExportTest, DocumentStructure)
{
    const auto c = small_catalog();
    const auto doc = catalog_json_string(c);

    EXPECT_NE(doc.find("\"networks\": ["), std::string::npos);
    EXPECT_NE(doc.find("\"layouts\": ["), std::string::npos);
    EXPECT_NE(doc.find("\"set\": \"Trindade16\""), std::string::npos);
    EXPECT_NE(doc.find("\"name\": \"2:1 MUX\""), std::string::npos);
    EXPECT_NE(doc.find("\"library\": \"QCA ONE\""), std::string::npos);
    EXPECT_NE(doc.find("\"algorithm\": \"ortho\""), std::string::npos);
    EXPECT_NE(doc.find("\"optimizations\": [\"InOrd (SDN)\", \"PLO\"]"), std::string::npos);
    EXPECT_NE(doc.find("\"inputs\": 3"), std::string::npos);
    EXPECT_NE(doc.find("\"gates\": 4"), std::string::npos);
    EXPECT_NE(doc.find("\"runtime_s\": 0.125"), std::string::npos);

    // metrics derived from the layout itself must appear
    const auto& r = c.layouts().front();
    EXPECT_NE(doc.find("\"area\": " + std::to_string(r.area)), std::string::npos);
}

TEST(JsonExportTest, BalancedBracesAndQuotes)
{
    const auto doc = catalog_json_string(small_catalog());
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

    filter_query query{};
    query.libraries = {gate_library_kind::qca_one};
    const auto selection = apply_filter(c, query);

    std::ostringstream stream;
    write_selection_json(c, selection, stream);
    const auto doc = stream.str();
    EXPECT_NE(doc.find("2:1 MUX"), std::string::npos);
    EXPECT_EQ(doc.find("Fontes18"), std::string::npos);
}

TEST(JsonExportTest, EmptyCatalog)
{
    const catalog c;
    const auto doc = catalog_json_string(c);
    EXPECT_NE(doc.find("\"networks\": ["), std::string::npos);
    EXPECT_NE(doc.find("\"layouts\": ["), std::string::npos);
}
