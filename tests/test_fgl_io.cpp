#include "io/fgl_reader.hpp"
#include "io/fgl_writer.hpp"

#include "common/types.hpp"
#include "layout/layout_utils.hpp"
#include "layout/routing.hpp"
#include "verification/drc.hpp"
#include "verification/equivalence.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
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
