#include "io/fgl_reader.hpp"
#include "io/fgl_writer.hpp"

#include "common/types.hpp"
#include "layout/layout_utils.hpp"
#include "layout/routing.hpp"
#include "service/hash.hpp"
#include "service/store.hpp"
#include "verification/drc.hpp"
#include "verification/equivalence.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <map>
#include <string>

using namespace mnt;
using namespace mnt::io;
using namespace mnt::lyt;
using mnt::ntk::gate_type;

namespace
{

/// The canonical AND test layout (valid under 2DDWave).
gate_level_layout make_and_layout()
{
    gate_level_layout layout{"and_example", layout_topology::cartesian, clocking_scheme::twoddwave(), 4, 3};
    layout.place({1, 0}, gate_type::pi, "a");
    layout.place({0, 1}, gate_type::pi, "b");
    layout.place({1, 1}, gate_type::and2);
    layout.place({2, 1}, gate_type::buf);
    layout.place({3, 1}, gate_type::po, "y");
    layout.connect({1, 0}, {1, 1});
    layout.connect({0, 1}, {1, 1});
    layout.connect({1, 1}, {2, 1});
    layout.connect({2, 1}, {3, 1});
    return layout;
}

/// A layout with a crossing (two independent wires).
gate_level_layout make_crossing_layout()
{
    gate_level_layout layout{"crossing", layout_topology::cartesian, clocking_scheme::twoddwave(), 5, 5};
    layout.place({2, 0}, gate_type::pi, "v");
    layout.place({2, 4}, gate_type::po, "vy");
    if (!route(layout, {2, 0}, {2, 4}))
    {
        throw mnt_error{"route failed"};
    }
    layout.place({0, 2}, gate_type::pi, "h");
    layout.place({4, 2}, gate_type::po, "hy");
    if (!route(layout, {0, 2}, {4, 2}))
    {
        throw mnt_error{"route failed"};
    }
    return layout;
}

}  // namespace

TEST(FglWriterTest, DocumentStructure)
{
    const auto doc = write_fgl_string(make_and_layout());
    EXPECT_NE(doc.find("<fgl>"), std::string::npos);
    EXPECT_NE(doc.find("<topology>cartesian</topology>"), std::string::npos);
    EXPECT_NE(doc.find("<clocking>2DDWave</clocking>"), std::string::npos);
    EXPECT_NE(doc.find("<type>and</type>"), std::string::npos);
    EXPECT_NE(doc.find("<name>a</name>"), std::string::npos);
}

// ------------------------------------------------------ writer byte goldens
// Recorded while the writer still serialized a document tree. Every stored
// blob is addressed by the hash of these bytes.

TEST(FglWriterTest, EmptyLayoutNameIsAnEmptyElement)
{
    gate_level_layout layout{"", layout_topology::cartesian, clocking_scheme::twoddwave(), 1, 1};
    layout.place({0, 0}, gate_type::pi, "a");
    EXPECT_EQ(write_fgl_string(layout), R"(<?xml version="1.0" encoding="utf-8"?>
<fgl>
  <layout>
    <name/>
    <topology>cartesian</topology>
    <clocking>2DDWave</clocking>
    <size>
      <x>1</x>
      <y>1</y>
    </size>
    <gates>
      <gate>
        <type>pi</type>
        <name>a</name>
        <loc>
          <x>0</x>
          <y>0</y>
          <z>0</z>
        </loc>
      </gate>
    </gates>
  </layout>
</fgl>
)");
}

TEST(FglWriterTest, NamesAreEscaped)
{
    gate_level_layout layout{"x<&>y", layout_topology::cartesian, clocking_scheme::twoddwave(), 1, 1};
    layout.place({0, 0}, gate_type::pi, "a&<>\"'b");
    EXPECT_EQ(write_fgl_string(layout), R"(<?xml version="1.0" encoding="utf-8"?>
<fgl>
  <layout>
    <name>x&lt;&amp;&gt;y</name>
    <topology>cartesian</topology>
    <clocking>2DDWave</clocking>
    <size>
      <x>1</x>
      <y>1</y>
    </size>
    <gates>
      <gate>
        <type>pi</type>
        <name>a&amp;&lt;&gt;&quot;&apos;b</name>
        <loc>
          <x>0</x>
          <y>0</y>
          <z>0</z>
        </loc>
      </gate>
    </gates>
  </layout>
</fgl>
)");
}

TEST(FglWriterTest, LayoutWithoutGatesHasEmptyElements)
{
    const gate_level_layout layout{"empty", layout_topology::cartesian, clocking_scheme::open(), 2, 2};
    EXPECT_EQ(write_fgl_string(layout), R"(<?xml version="1.0" encoding="utf-8"?>
<fgl>
  <layout>
    <name>empty</name>
    <topology>cartesian</topology>
    <clocking>OPEN</clocking>
    <size>
      <x>2</x>
      <y>2</y>
    </size>
    <gates/>
    <clockzones/>
  </layout>
</fgl>
)");
}

TEST(FglWriterTest, OpenClockingListsTheZoneOfEveryGroundTile)
{
    gate_level_layout layout{"open", layout_topology::cartesian, clocking_scheme::open(), 2, 2};
    layout.assign_clock({0, 0}, 1);
    layout.assign_clock({1, 0}, 2);
    layout.place({0, 0}, gate_type::pi, "a");
    layout.place({1, 0}, gate_type::po, "y");
    layout.connect({0, 0}, {1, 0});
    EXPECT_EQ(write_fgl_string(layout), R"(<?xml version="1.0" encoding="utf-8"?>
<fgl>
  <layout>
    <name>open</name>
    <topology>cartesian</topology>
    <clocking>OPEN</clocking>
    <size>
      <x>2</x>
      <y>2</y>
    </size>
    <gates>
      <gate>
        <type>pi</type>
        <name>a</name>
        <loc>
          <x>0</x>
          <y>0</y>
          <z>0</z>
        </loc>
      </gate>
      <gate>
        <type>po</type>
        <name>y</name>
        <loc>
          <x>1</x>
          <y>0</y>
          <z>0</z>
        </loc>
        <incoming>
          <loc>
            <x>0</x>
            <y>0</y>
            <z>0</z>
          </loc>
        </incoming>
      </gate>
    </gates>
    <clockzones>
      <zone>
        <x>0</x>
        <y>0</y>
        <clock>1</clock>
      </zone>
      <zone>
        <x>1</x>
        <y>0</y>
        <clock>2</clock>
      </zone>
    </clockzones>
  </layout>
</fgl>
)");
}

TEST(FglIoTest, RoundTripPreservesStructure)
{
    const auto original = make_and_layout();
    const auto reread = read_fgl_string(write_fgl_string(original));

    EXPECT_EQ(reread.layout_name(), original.layout_name());
    EXPECT_EQ(reread.width(), original.width());
    EXPECT_EQ(reread.height(), original.height());
    EXPECT_EQ(reread.topology(), original.topology());
    EXPECT_EQ(reread.clocking().kind(), original.clocking().kind());
    EXPECT_EQ(reread.num_occupied(), original.num_occupied());

    original.foreach_tile(
        [&](const coordinate& c, const gate_level_layout::tile_data& d)
        {
            EXPECT_EQ(reread.type_of(c), d.type) << c.to_string();
            EXPECT_TRUE(std::ranges::equal(reread.incoming_of(c), d.incoming)) << c.to_string();
            EXPECT_EQ(reread.io_name_of(c), original.io_name_of(c)) << c.to_string();
        });
}

TEST(FglIoTest, RoundTripKeepsNamesOnAnyGate)
{
    // PI/PO names and a name on a buffer, which the reader accepts
    gate_level_layout layout{"names", layout_topology::cartesian, clocking_scheme::twoddwave(), 3, 1};
    layout.place({0, 0}, gate_type::pi, "a");
    layout.place({1, 0}, gate_type::buf, "w");
    layout.place({2, 0}, gate_type::po, "y");
    layout.connect({0, 0}, {1, 0});
    layout.connect({1, 0}, {2, 0});

    const auto reread = read_fgl_string(write_fgl_string(layout));
    EXPECT_EQ(reread.io_name_of({0, 0}), "a");
    EXPECT_EQ(reread.io_name_of({1, 0}), "w");
    EXPECT_EQ(reread.io_name_of({2, 0}), "y");
    EXPECT_EQ(write_fgl_string(reread), write_fgl_string(layout));
}

TEST(FglIoTest, RoundTripPreservesFunction)
{
    const auto original = make_and_layout();
    const auto spec = lyt::extract_network(original);
    const auto reread = read_fgl_string(write_fgl_string(original));
    EXPECT_TRUE(ver::check_layout_equivalence(spec, reread));
}

TEST(FglIoTest, CrossingRoundTrip)
{
    const auto original = make_crossing_layout();
    ASSERT_EQ(original.num_crossings(), 1u);
    const auto reread = read_fgl_string(write_fgl_string(original));
    EXPECT_EQ(reread.num_crossings(), 1u);
    EXPECT_TRUE(ver::gate_level_drc(reread).passed());
    EXPECT_TRUE(ver::check_layout_equivalence(lyt::extract_network(original), reread));
}

TEST(FglIoTest, HexagonalRoundTrip)
{
    gate_level_layout layout{"hex", layout_topology::hexagonal_even_row, clocking_scheme::row(), 5, 5};
    layout.place({2, 0}, gate_type::pi, "a");
    layout.place({2, 4}, gate_type::po, "y");
    ASSERT_TRUE(route(layout, {2, 0}, {2, 4}));

    const auto reread = read_fgl_string(write_fgl_string(layout));
    EXPECT_EQ(reread.topology(), layout_topology::hexagonal_even_row);
    EXPECT_EQ(reread.clocking().kind(), clocking_kind::row);
    EXPECT_EQ(reread.num_occupied(), layout.num_occupied());
}

TEST(FglIoTest, OpenClockingZonesRoundTrip)
{
    auto scheme = clocking_scheme::open();
    gate_level_layout layout{"open", layout_topology::cartesian, std::move(scheme), 3, 3};
    layout.assign_clock({0, 0}, 2);
    layout.assign_clock({1, 0}, 3);
    layout.place({0, 0}, gate_type::pi, "a");
    layout.place({1, 0}, gate_type::po, "y");
    layout.connect({0, 0}, {1, 0});

    const auto reread = read_fgl_string(write_fgl_string(layout));
    EXPECT_EQ(reread.clocking().kind(), clocking_kind::open);
    EXPECT_EQ(reread.clock_number({0, 0}), 2);
    EXPECT_EQ(reread.clock_number({1, 0}), 3);
    EXPECT_TRUE(ver::gate_level_drc(reread).passed());
}

TEST(FglReaderTest, IncomingSlotOrderPreserved)
{
    // lt2 is non-commutative: slot order matters
    gate_level_layout layout{"lt", layout_topology::cartesian, clocking_scheme::twoddwave(), 4, 3};
    layout.place({1, 0}, gate_type::pi, "a");
    layout.place({0, 1}, gate_type::pi, "b");
    layout.place({1, 1}, gate_type::lt2);
    layout.place({2, 1}, gate_type::po, "y");
    layout.connect({1, 0}, {1, 1});  // slot 0 = a
    layout.connect({0, 1}, {1, 1});  // slot 1 = b
    layout.connect({1, 1}, {2, 1});

    const auto spec = lyt::extract_network(layout);
    const auto reread = read_fgl_string(write_fgl_string(layout));
    EXPECT_TRUE(ver::check_layout_equivalence(spec, reread));
    EXPECT_EQ(reread.incoming_of({1, 1})[0], coordinate(1, 0));
    EXPECT_EQ(reread.incoming_of({1, 1})[1], coordinate(0, 1));
}

TEST(FglReaderTest, RejectsUnknownGateType)
{
    const std::string doc = R"(<fgl><layout><name>x</name><topology>cartesian</topology>
        <clocking>2DDWave</clocking><size><x>2</x><y>2</y></size>
        <gates><gate><type>frobnicator</type><loc><x>0</x><y>0</y></loc></gate></gates>
        </layout></fgl>)";
    EXPECT_THROW(static_cast<void>(read_fgl_string(doc)), parse_error);
}

TEST(FglReaderTest, RejectsOutOfBoundsGate)
{
    const std::string doc = R"(<fgl><layout><name>x</name><topology>cartesian</topology>
        <clocking>2DDWave</clocking><size><x>2</x><y>2</y></size>
        <gates><gate><type>buf</type><loc><x>5</x><y>0</y></loc></gate></gates>
        </layout></fgl>)";
    EXPECT_THROW(static_cast<void>(read_fgl_string(doc)), design_rule_error);
}

TEST(FglReaderTest, RejectsMissingSize)
{
    const std::string doc = R"(<fgl><layout><name>x</name><topology>cartesian</topology>
        <clocking>2DDWave</clocking><gates/></layout></fgl>)";
    EXPECT_THROW(static_cast<void>(read_fgl_string(doc)), parse_error);
}

TEST(FglReaderTest, RejectsBadInteger)
{
    const std::string doc = R"(<fgl><layout><name>x</name><topology>cartesian</topology>
        <clocking>2DDWave</clocking><size><x>two</x><y>2</y></size><gates/></layout></fgl>)";
    EXPECT_THROW(static_cast<void>(read_fgl_string(doc)), parse_error);
}

TEST(FglReaderTest, RejectsInvalidLayer)
{
    const std::string doc = R"(<fgl><layout><name>x</name><topology>cartesian</topology>
        <clocking>2DDWave</clocking><size><x>2</x><y>2</y></size>
        <gates><gate><type>buf</type><loc><x>0</x><y>0</y><z>3</z></loc></gate></gates>
        </layout></fgl>)";
    EXPECT_THROW(static_cast<void>(read_fgl_string(doc)), parse_error);
}

TEST(FglReaderTest, OptionalDrcRejectsIllegalLayout)
{
    // clock-invalid connection: passes structural load, fails DRC
    const std::string doc = R"(<fgl><layout><name>x</name><topology>cartesian</topology>
        <clocking>2DDWave</clocking><size><x>3</x><y>3</y></size>
        <gates>
          <gate><type>pi</type><name>a</name><loc><x>1</x><y>1</y></loc></gate>
          <gate><type>po</type><name>y</name><loc><x>0</x><y>1</y></loc>
            <incoming><loc><x>1</x><y>1</y></loc></incoming></gate>
        </gates></layout></fgl>)";
    EXPECT_NO_THROW(static_cast<void>(read_fgl_string(doc)));
    fgl_reader_options options{};
    options.run_drc = true;
    EXPECT_THROW(static_cast<void>(read_fgl_string(doc, options)), design_rule_error);
}

TEST(FglIoTest, FileRoundTrip)
{
    const auto original = make_and_layout();
    const auto path = std::filesystem::temp_directory_path() / "mnt_test_roundtrip.fgl";
    write_fgl_file(original, path);
    const auto reread = read_fgl_file(path);
    EXPECT_EQ(reread.num_occupied(), original.num_occupied());
    std::filesystem::remove(path);
}

TEST(FglIoTest, MissingFileThrows)
{
    EXPECT_THROW(static_cast<void>(read_fgl_file("/nonexistent/file.fgl")), mnt_error);
}

// ------------------------------------------------------ corpus verdicts
// What the reader makes of every file in fuzz/corpus/fgl, recorded while it
// still parsed into a document tree: an accepted file by the hash of its
// rewritten bytes, a rejected one by its exception type and the line it
// names.

namespace
{

std::string verdict_of(const std::string& document)
{
    try
    {
        return "accept " + svc::content_hash(write_fgl_string(read_fgl_string(document)));
    }
    catch (const parse_error& e)
    {
        return "parse_error line " + std::to_string(e.line_number);
    }
    catch (const design_rule_error& e)
    {
        // the line is part of the message: "fgl (line <n>): ..."
        const std::string what = e.what();
        const auto at = what.find("(line ");
        return "design_rule_error line " +
               (at == std::string::npos ? "?" : what.substr(at + 6, what.find(')', at) - at - 6));
    }
}

}  // namespace

TEST(FglReaderTest, CorpusVerdictsAreUnchanged)
{
    const std::map<std::string, std::string> expected{
        {"Fontes18_1bitAdderAOIG_QCA_ONE_2DDWave_ortho_PLO.fgl", "accept f9ada6c237794d2e6c2bfdd4a543525c"},
        {"Fontes18_1bitAdderMaj_QCA_ONE_2DDWave_ortho_PLO.fgl", "accept ced488fbfdb034dc1b7368b9c2fdacc8"},
        {"Fontes18_2bitAdderMaj_QCA_ONE_2DDWave_ortho_PLO.fgl", "accept 992c63e7df1c71ebade20bc259eb249b"},
        {"Fontes18_b1_r2_QCA_ONE_2DDWave_ortho_PLO.fgl", "accept 7968977215cee19ab106502c20d74c5d"},
        {"Fontes18_clpl_QCA_ONE_2DDWave_NPR_PLO.fgl", "accept 05610b9ded87ed41b929b29ba989b5ef"},
        {"Fontes18_cm82a_5_QCA_ONE_2DDWave_NPR_PLO.fgl", "accept 0b200b36789351d9a36ab1bcfcb1f311"},
        {"Fontes18_majority_QCA_ONE_2DDWave_ortho_PLO.fgl", "accept 8f2ae62b936eb8324d1d47c95ead7e9d"},
        {"Fontes18_newtag_QCA_ONE_2DDWave_ortho_PLO.fgl", "accept 7a47c50028800954846076752705065c"},
        {"Fontes18_parity_QCA_ONE_2DDWave_ortho_PLO.fgl", "accept 5180c69b62e2820a99a3e4e175614c5e"},
        {"Fontes18_t_QCA_ONE_2DDWave_ortho_PLO.fgl", "accept 0036d4a6fac474286c4658a15fc995ed"},
        {"Fontes18_xor5Maj_QCA_ONE_RES_NPR.fgl", "accept e33e63323d0d026190468eb0b3c4861f"},
        {"Trindade16_2_1_MUX_QCA_ONE_2DDWave_exact.fgl", "accept 28f9a8e094a4550f1fef9f0a62f6e90f"},
        {"Trindade16_Full_Adder_QCA_ONE_2DDWave_ortho_PLO.fgl", "accept 5aa4f391dcdde1f5f8c8caf7f43fc1d5"},
        {"Trindade16_Half_Adder_QCA_ONE_USE_exact.fgl", "accept 77886469c0a247992575291169cdea3d"},
        {"Trindade16_Parity_Check._QCA_ONE_2DDWave_exact.fgl", "accept 98a7df7e16ea71fdebfeb571a0cc8960"},
        {"Trindade16_Parity_Gen._QCA_ONE_2DDWave_exact.fgl", "accept 2c9b584876649ff058c41d77a04c71a5"},
        {"Trindade16_XNOR_QCA_ONE_2DDWave_exact.fgl", "accept 07b06b9ce255bbe78b0aec9461ffb404"},
        {"Trindade16_XOR_QCA_ONE_2DDWave_exact.fgl", "accept 532d8774f47fe4cb7684b6f3b9820cea"},
        {"escaped_names.fgl", "accept 38153c5a237d736f00dc995dc712baa0"},
        {"hostile_bad_coordinate.fgl", "parse_error line 1"},
        {"hostile_coordinate_overflow.fgl", "parse_error line 11"},
        {"hostile_garbage_prefix.fgl", "parse_error line 1"},
        {"hostile_mismatched_close.fgl", "parse_error line 12"},
        {"hostile_self_fanin.fgl", "design_rule_error line 13"},
        {"hostile_truncated.fgl", "parse_error line 1"},
    };
    std::map<std::string, std::string> actual;
    for (const auto& file : std::filesystem::directory_iterator{MNT_FGL_CORPUS_DIR})
    {
        actual[file.path().filename().string()] = verdict_of(svc::read_file(file.path()));
    }
    EXPECT_EQ(actual, expected);
}
