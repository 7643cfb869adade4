#include "io/xml.hpp"

#include "common/types.hpp"

#include <gtest/gtest.h>

#include <string>

using namespace mnt;
using namespace mnt::io::xml;

TEST(XmlTest, ParseSimpleDocument)
{
    const auto doc = parse("<a><b>text</b><c/></a>");
    const auto& root = doc.root();
    EXPECT_EQ(root.tag, "a");
    const auto b = root.children_of("b");
    const auto c = root.children_of("c");
    ASSERT_EQ(b.size(), 1u);
    ASSERT_EQ(c.size(), 1u);
    EXPECT_EQ(root.subtree, 3u);
    EXPECT_EQ(b[0]->text, "text");
    EXPECT_EQ(c[0], b[0] + 1);  // document order: <b> then <c>
}

TEST(XmlTest, ParseDeclarationAndComments)
{
    const auto doc = parse("<?xml version=\"1.0\"?>\n<!-- hi -->\n<root><!-- inner --><x>1</x></root>");
    EXPECT_EQ(doc.root().tag, "root");
    EXPECT_EQ(doc.root().child_text("x"), "1");
}

TEST(XmlTest, ParseAttributes)
{
    const auto doc = parse("<g type='and' name=\"n&amp;1\"/>");
    EXPECT_EQ(doc.attribute_of(doc.root(), "type"), "and");
    EXPECT_EQ(doc.attribute_of(doc.root(), "name"), "n&1");
    EXPECT_EQ(doc.attribute_of(doc.root(), "zzz"), std::nullopt);
}

TEST(XmlTest, TextIsTrimmedAndUnescaped)
{
    const auto doc = parse("<a>  x &lt;&gt; y  </a>");
    EXPECT_EQ(doc.root().text, "x <> y");
}

TEST(XmlTest, MismatchedTagThrows)
{
    EXPECT_THROW(static_cast<void>(parse("<a><b></a></b>")), parse_error);
}

TEST(XmlTest, UnterminatedElementThrows)
{
    EXPECT_THROW(static_cast<void>(parse("<a><b>")), parse_error);
}

TEST(XmlTest, TrailingContentThrows)
{
    EXPECT_THROW(static_cast<void>(parse("<a/><b/>")), parse_error);
}

TEST(XmlTest, ChildAccessors)
{
    const auto doc = parse("<a><b>1</b><b>2</b><c>3</c></a>");
    const auto& root = doc.root();
    EXPECT_EQ(root.children_of("b").size(), 2u);
    EXPECT_EQ(root.child("c")->text, "3");
    EXPECT_EQ(root.child("zzz"), nullptr);
    EXPECT_THROW(static_cast<void>(root.child_text("zzz")), parse_error);
}

TEST(XmlTest, ChildAccessorsSkipGrandchildren)
{
    const auto doc = parse("<a><b><c>1</c><c>2</c></b><c>3</c></a>");
    const auto& root = doc.root();
    ASSERT_EQ(root.children_of("c").size(), 1u);
    EXPECT_EQ(root.child_text("c"), "3");
    EXPECT_EQ(root.child("b")->children_of("c").size(), 2u);
}

TEST(XmlTest, TextJoinsTheDataAroundChildrenAndComments)
{
    const auto doc = parse("<a>\n x &amp;<b>skip</b> y <!-- note --> z\n</a>");
    EXPECT_EQ(doc.root().text, "x & y  z");
    EXPECT_EQ(doc.root().child_text("b"), "skip");
}

TEST(XmlTest, NodesCarryTheLineOfTheirOpeningTag)
{
    const auto doc = parse("<?xml version=\"1.0\"?>\n<a>\n  <b\n    k='v'>\n  </b>\n  <!-- x\n -->\n  <c/>\n</a>");
    EXPECT_EQ(doc.root().line, 2u);
    EXPECT_EQ(doc.root().child("b")->line, 3u);
    EXPECT_EQ(doc.root().child("c")->line, 8u);
    try
    {
        static_cast<void>(parse("<a>\n<b>\n</a>"));
        FAIL() << "mismatched tags parsed";
    }
    catch (const parse_error& e)
    {
        EXPECT_EQ(e.line_number, 3u);
    }
}

TEST(XmlTest, EscapeCoversAllSpecials)
{
    EXPECT_EQ(escape("a&b<c>d\"e'f"), "a&amp;b&lt;c&gt;d&quot;e&apos;f");
}
