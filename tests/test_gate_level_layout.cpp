#include "layout/gate_level_layout.hpp"

#include "common/types.hpp"
#include "network/gate_type.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

using namespace mnt;
using namespace mnt::lyt;
using mnt::ntk::gate_type;

namespace
{

std::vector<coordinate> as_vector(const neighbor_list& ns)
{
    return {ns.begin(), ns.end()};
}

gate_level_layout make_empty(const std::uint32_t w = 6, const std::uint32_t h = 6)
{
    return gate_level_layout{"test", layout_topology::cartesian, clocking_scheme::twoddwave(), w, h};
}

/// Builds a small AND layout on 2DDWave:
///   pi(a) at (0,0) -> and at (1,0) <- pi(b) at (1,1)? No: b must be in zone 0.
/// Layout used:
///   a=(0,0) z0, b=(1,0)? both feed and at... 2DDWave flows E and S, so use
///   a=(1,0), b=(0,1), and=(1,1), po=(2,1).
gate_level_layout make_and_layout()
{
    auto layout = make_empty();
    layout.place({1, 0}, gate_type::pi, "a");
    layout.place({0, 1}, gate_type::pi, "b");
    layout.place({1, 1}, gate_type::and2);
    layout.place({2, 1}, gate_type::po, "y");
    layout.connect({1, 0}, {1, 1});
    layout.connect({0, 1}, {1, 1});
    layout.connect({1, 1}, {2, 1});
    return layout;
}

}  // namespace

TEST(GateLevelLayoutTest, ConstructionAndGeometry)
{
    const auto layout = make_empty(4, 7);
    EXPECT_EQ(layout.width(), 4u);
    EXPECT_EQ(layout.height(), 7u);
    EXPECT_EQ(layout.area(), 28u);
    EXPECT_EQ(layout.topology(), layout_topology::cartesian);
    EXPECT_TRUE(layout.within_bounds({3, 6}));
    EXPECT_FALSE(layout.within_bounds({4, 0}));
    EXPECT_FALSE(layout.within_bounds({0, 7}));
    EXPECT_FALSE(layout.within_bounds({-1, 0}));
    EXPECT_FALSE(layout.within_bounds({0, 0, 2}));
}

TEST(GateLevelLayoutTest, ZeroDimensionsRejected)
{
    EXPECT_THROW(gate_level_layout("x", layout_topology::cartesian, clocking_scheme::twoddwave(), 0, 5),
                 precondition_error);
}

TEST(GateLevelLayoutTest, HexagonalRequiresRowOrOpen)
{
    EXPECT_THROW(gate_level_layout("x", layout_topology::hexagonal_even_row, clocking_scheme::use(), 4, 4),
                 precondition_error);
    EXPECT_NO_THROW(gate_level_layout("x", layout_topology::hexagonal_even_row, clocking_scheme::row(), 4, 4));
    EXPECT_NO_THROW(gate_level_layout("x", layout_topology::hexagonal_even_row, clocking_scheme::open(), 4, 4));
}

TEST(GateLevelLayoutTest, PlaceAndQuery)
{
    auto layout = make_empty();
    layout.place({2, 1}, gate_type::and2);
    EXPECT_TRUE(layout.has_tile({2, 1}));
    EXPECT_FALSE(layout.is_empty_tile({2, 1}));
    EXPECT_TRUE(layout.is_empty_tile({2, 2}));
    EXPECT_EQ(layout.type_of({2, 1}), gate_type::and2);
    EXPECT_EQ(layout.type_of({0, 0}), gate_type::none);
    EXPECT_EQ(layout.num_occupied(), 1u);
    EXPECT_EQ(layout.num_gates(), 1u);
}

TEST(GateLevelLayoutTest, PlaceRejectsInvalid)
{
    auto layout = make_empty();
    layout.place({1, 1}, gate_type::buf);
    EXPECT_THROW(layout.place({1, 1}, gate_type::and2), precondition_error);       // occupied
    EXPECT_THROW(layout.place({9, 9}, gate_type::and2), precondition_error);       // oob
    EXPECT_THROW(layout.place({2, 2}, gate_type::none), precondition_error);       // none
    EXPECT_THROW(layout.place({2, 2}, gate_type::const0), precondition_error);     // const
    EXPECT_THROW(layout.place({2, 2, 1}, gate_type::and2), precondition_error);    // gate on z=1
    EXPECT_NO_THROW(layout.place({1, 1, 1}, gate_type::buf));                      // crossing wire
}

TEST(GateLevelLayoutTest, ConnectTracksBothDirections)
{
    const auto layout = make_and_layout();
    const auto& in = layout.incoming_of({1, 1});
    ASSERT_EQ(in.size(), 2u);
    EXPECT_EQ(in[0], coordinate(1, 0));
    EXPECT_EQ(in[1], coordinate(0, 1));
    const auto& out = layout.outgoing_of({1, 1});
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0], coordinate(2, 1));
}

TEST(GateLevelLayoutTest, ConnectRejectsOverfull)
{
    auto layout = make_and_layout();
    layout.place({1, 2}, gate_type::buf);
    EXPECT_THROW(layout.connect({1, 2}, {1, 1}), precondition_error);  // and2 already has 2 fanins
}

TEST(GateLevelLayoutTest, PiPoBookkeeping)
{
    const auto layout = make_and_layout();
    EXPECT_EQ(layout.num_pis(), 2u);
    EXPECT_EQ(layout.num_pos(), 1u);
    ASSERT_EQ(layout.pi_tiles().size(), 2u);
    EXPECT_EQ(layout.io_name_of(layout.pi_tiles()[0]), "a");
    EXPECT_EQ(layout.io_name_of(layout.po_tiles()[0]), "y");
}

TEST(GateLevelLayoutTest, ClearTileSeversConnections)
{
    auto layout = make_and_layout();
    layout.clear_tile({1, 1});
    EXPECT_TRUE(layout.is_empty_tile({1, 1}));
    EXPECT_TRUE(layout.incoming_of({2, 1}).empty());
    EXPECT_TRUE(layout.outgoing_of({1, 0}).empty());
    EXPECT_TRUE(layout.outgoing_of({0, 1}).empty());
}

TEST(GateLevelLayoutTest, ClearPiUpdatesList)
{
    auto layout = make_and_layout();
    layout.clear_tile({1, 0});
    EXPECT_EQ(layout.num_pis(), 1u);
}

TEST(GateLevelLayoutTest, MoveTilePatchesConnections)
{
    auto layout = make_empty();
    layout.place({1, 0}, gate_type::pi, "a");
    layout.place({1, 1}, gate_type::buf);
    layout.place({1, 2}, gate_type::po, "y");
    layout.connect({1, 0}, {1, 1});
    layout.connect({1, 1}, {1, 2});

    // move the wire one tile east is clock-invalid, but move_tile itself is
    // permissive; semantic checks live in the DRC. Move the PO instead.
    layout.move_tile({1, 2}, {2, 2});
    EXPECT_TRUE(layout.is_empty_tile({1, 2}));
    EXPECT_EQ(layout.type_of({2, 2}), gate_type::po);
    ASSERT_EQ(layout.incoming_of({2, 2}).size(), 1u);
    EXPECT_EQ(layout.incoming_of({2, 2})[0], coordinate(1, 1));
    ASSERT_EQ(layout.outgoing_of({1, 1}).size(), 1u);
    EXPECT_EQ(layout.outgoing_of({1, 1})[0], coordinate(2, 2));
    EXPECT_EQ(layout.po_tiles()[0], coordinate(2, 2));
}

TEST(GateLevelLayoutTest, MoveTileRejectsOccupiedTarget)
{
    auto layout = make_and_layout();
    EXPECT_THROW(layout.move_tile({1, 0}, {0, 1}), precondition_error);
}

TEST(GateLevelLayoutTest, CountsByCategory)
{
    auto layout = make_and_layout();
    layout.place({3, 1}, gate_type::buf);
    layout.place({3, 1, 1}, gate_type::buf);
    layout.place({3, 2}, gate_type::fanout);
    EXPECT_EQ(layout.num_gates(), 1u);
    EXPECT_EQ(layout.num_wires(), 3u);
    EXPECT_EQ(layout.num_crossings(), 1u);
}

TEST(GateLevelLayoutTest, OutgoingClockedRespectsBoundsAndScheme)
{
    const auto layout = make_empty(3, 3);
    // 2DDWave at (0,0): outgoing to (1,0) and (0,1), east first
    EXPECT_EQ(as_vector(layout.outgoing_clocked({0, 0})), (std::vector<coordinate>{{1, 0}, {0, 1}}));
    // at the south-east corner nothing is outgoing within bounds
    const auto corner = layout.outgoing_clocked({2, 2});
    EXPECT_TRUE(corner.empty());
    // incoming at (0,0) is empty; at (1,1) west comes before north
    EXPECT_TRUE(layout.incoming_clocked({0, 0}).empty());
    EXPECT_EQ(as_vector(layout.incoming_clocked({1, 1})), (std::vector<coordinate>{{0, 1}, {1, 0}}));
}

TEST(GateLevelLayoutTest, ClockedNeighborsAreTheFilteredPlanarNeighborOrder)
{
    // hexagonal ROW: information flows one row south
    const gate_level_layout hex{"hex", layout_topology::hexagonal_even_row, clocking_scheme::row(), 5, 5};
    EXPECT_EQ(as_vector(hex.outgoing_clocked({2, 2})), (std::vector<coordinate>{{1, 3}, {2, 3}}));
    EXPECT_EQ(as_vector(hex.outgoing_clocked({2, 1})), (std::vector<coordinate>{{2, 2}, {3, 2}}));
    EXPECT_EQ(as_vector(hex.outgoing_clocked({0, 2})), (std::vector<coordinate>{{0, 3}}));
    EXPECT_EQ(as_vector(hex.incoming_clocked({2, 2})), (std::vector<coordinate>{{1, 1}, {2, 1}}));
    EXPECT_EQ(as_vector(hex.incoming_clocked({4, 1})), (std::vector<coordinate>{{4, 0}}));
    // queries on the crossing layer answer for the ground position below
    EXPECT_EQ(as_vector(hex.outgoing_clocked({2, 2, 1})), (std::vector<coordinate>{{1, 3}, {2, 3}}));

    // the table-driven queries against the definition: planar_neighbors of
    // the ground position, filtered by bounds and by the scheme's own zone
    // comparison, in that order
    const auto defined = [](const gate_level_layout& layout, const coordinate& c, const bool outgoing)
    {
        std::vector<coordinate> result;
        for (const auto& n : planar_neighbors(c.ground(), layout.topology()))
        {
            if (layout.within_bounds(n) && (outgoing ? layout.clocking().is_incoming_clocked(n, c) :
                                                       layout.clocking().is_incoming_clocked(c, n)))
            {
                result.push_back(n);
            }
        }
        return result;
    };
    // border tiles, tiles outside the bounds (negative ones too) and
    // crossing-layer queries
    const auto check = [&](const gate_level_layout& layout)
    {
        for (std::uint8_t z = 0; z < 2; ++z)
        {
            for (std::int32_t y = -6; y < 15; ++y)
            {
                for (std::int32_t x = -6; x < 15; ++x)
                {
                    const coordinate c{x, y, z};
                    const auto where = layout.layout_name() + " " + c.to_string();
                    EXPECT_EQ(as_vector(layout.outgoing_clocked(c)), defined(layout, c, true)) << where;
                    EXPECT_EQ(as_vector(layout.incoming_clocked(c)), defined(layout, c, false)) << where;
                }
            }
        }
    };

    for (const auto topo : {layout_topology::cartesian, layout_topology::hexagonal_even_row})
    {
        for (const auto& [w, h] : {std::pair{9u, 9u}, std::pair{5u, 4u}})
        {
            const auto where = "/" + topology_name(topo) + "/" + std::to_string(w) + "x" + std::to_string(h);
            for (const auto kind : regular_schemes_for(topo))
            {
                check(gate_level_layout{clocking_name(kind) + where, topo, clocking_scheme::create(kind), w, h});
            }

            // OPEN compares assigned zones; some tiles keep the default zone 0
            gate_level_layout open{"OPEN" + where, topo, clocking_scheme::open(), w, h};
            for (std::int32_t y = 0; y < static_cast<std::int32_t>(h); ++y)
            {
                for (std::int32_t x = 0; x < static_cast<std::int32_t>(w); ++x)
                {
                    if ((x * 7 + y * 3) % 5 != 0)
                    {
                        open.assign_clock({x, y}, static_cast<std::uint8_t>((x * 5 + y * 11) % 4));
                    }
                }
            }
            check(open);
        }
    }
}

TEST(GateLevelLayoutTest, ResizeValidation)
{
    auto layout = make_and_layout();
    EXPECT_THROW(layout.resize(2, 2), precondition_error);  // po at (2,1) would fall out
    layout.resize(3, 2);
    EXPECT_EQ(layout.width(), 3u);
    EXPECT_EQ(layout.height(), 2u);
}

TEST(GateLevelLayoutTest, BoundingBoxAndShrink)
{
    auto layout = make_empty(10, 10);
    layout.place({1, 0}, gate_type::pi, "a");
    layout.place({1, 1}, gate_type::po, "y");
    layout.connect({1, 0}, {1, 1});
    const auto [min_c, max_c] = layout.bounding_box();
    EXPECT_EQ(min_c, coordinate(1, 0));
    EXPECT_EQ(max_c, coordinate(1, 1));
    layout.shrink_to_fit();
    EXPECT_EQ(layout.width(), 2u);
    EXPECT_EQ(layout.height(), 2u);
}

TEST(GateLevelLayoutTest, TilesSortedIsDeterministic)
{
    const auto layout = make_and_layout();
    const auto sorted = layout.tiles_sorted();
    ASSERT_EQ(sorted.size(), 4u);
    EXPECT_TRUE(std::is_sorted(sorted.cbegin(), sorted.cend()));
}

TEST(GateLevelLayoutTest, LayoutNameAccessors)
{
    auto layout = make_empty();
    EXPECT_EQ(layout.layout_name(), "test");
    layout.set_layout_name("renamed");
    EXPECT_EQ(layout.layout_name(), "renamed");
}

TEST(GateLevelLayoutTest, ShrinkTranslatesByClockPeriod)
{
    // tiles starting at (4, 8): a 4-periodic translation is legal under any
    // regular scheme and must be applied by shrink_to_fit
    auto layout = gate_level_layout{"t", layout_topology::cartesian, clocking_scheme::use(), 16, 16};
    layout.place({4, 8}, gate_type::pi, "a");
    layout.place({5, 8}, gate_type::buf);
    layout.connect({4, 8}, {5, 8});
    const auto clock_before = layout.clock_number({4, 8});
    layout.shrink_to_fit();
    EXPECT_EQ(layout.width(), 2u);
    EXPECT_EQ(layout.height(), 1u);
    EXPECT_EQ(layout.type_of({0, 0}), gate_type::pi);
    EXPECT_EQ(layout.clock_number({0, 0}), clock_before);
}

TEST(GateLevelLayoutTest, ShrinkKeepsNonPeriodicMargin)
{
    // a (1, 0) offset is not a legal 2DDWave translation: the margin stays
    auto layout = gate_level_layout{"t", layout_topology::cartesian, clocking_scheme::twoddwave(), 8, 8};
    layout.place({1, 0}, gate_type::pi, "a");
    layout.shrink_to_fit();
    EXPECT_EQ(layout.width(), 2u);
    EXPECT_EQ(layout.type_of({1, 0}), gate_type::pi);
}

TEST(GateLevelLayoutTest, ShrinkMixedShiftPartiallyApplies)
{
    // 2DDWave at (4, 6): (4, 4) is the largest legal shift -> residue (0, 2)
    auto layout = gate_level_layout{"t", layout_topology::cartesian, clocking_scheme::twoddwave(), 16, 16};
    layout.place({4, 6}, gate_type::pi, "a");
    const auto clock_before = layout.clock_number({4, 6});
    layout.shrink_to_fit();
    EXPECT_EQ(layout.type_of({0, 2}), gate_type::pi);
    EXPECT_EQ(layout.clock_number({0, 2}), clock_before);
    EXPECT_EQ(layout.width(), 1u);
    EXPECT_EQ(layout.height(), 3u);
}

TEST(GateLevelLayoutTest, FailedResizeLeavesLayoutUntouched)
{
    // validate-then-commit: a rejected resize must not alter dimensions,
    // tiles, connectivity, PI/PO lists, or per-tile clock overrides
    auto layout = gate_level_layout{"t", layout_topology::cartesian, clocking_scheme::open(), 6, 6};
    layout.place({1, 0}, gate_type::pi, "a");
    layout.place({4, 4}, gate_type::po, "y");
    layout.connect({1, 0}, {4, 4});
    layout.assign_clock({1, 0}, 0);
    layout.assign_clock({4, 4}, 1);
    layout.assign_clock({5, 5}, 2);  // override beyond the would-be bounds

    EXPECT_THROW(layout.resize(3, 3), precondition_error);  // po at (4,4) falls out

    EXPECT_EQ(layout.width(), 6u);
    EXPECT_EQ(layout.height(), 6u);
    EXPECT_EQ(layout.type_of({4, 4}), gate_type::po);
    ASSERT_EQ(layout.incoming_of({4, 4}).size(), 1u);
    EXPECT_EQ(layout.incoming_of({4, 4})[0], coordinate(1, 0));
    ASSERT_EQ(layout.outgoing_of({1, 0}).size(), 1u);
    EXPECT_EQ(layout.outgoing_of({1, 0})[0], coordinate(4, 4));
    EXPECT_EQ(layout.num_pis(), 1u);
    EXPECT_EQ(layout.num_pos(), 1u);
    // even the override outside the rejected bounds must survive
    EXPECT_TRUE(layout.clocking().has_assigned_clock({5, 5}));
    EXPECT_EQ(layout.clocking().num_assigned_clocks(), 3u);
}

TEST(GateLevelLayoutTest, ResizeSmallerPrunesOpenOverrides)
{
    auto layout = gate_level_layout{"t", layout_topology::cartesian, clocking_scheme::open(), 6, 6};
    layout.place({0, 0}, gate_type::pi, "a");
    layout.assign_clock({0, 0}, 0);
    layout.assign_clock({5, 5}, 3);

    layout.resize(2, 2);

    EXPECT_TRUE(layout.clocking().has_assigned_clock({0, 0}));
    EXPECT_FALSE(layout.clocking().has_assigned_clock({5, 5}));
    EXPECT_EQ(layout.clocking().num_assigned_clocks(), 1u);
}

TEST(GateLevelLayoutTest, ShrinkThenRegrowDoesNotResurrectStaleZones)
{
    // a zone assigned at (5, 5), shrunk away, must not resurface once the
    // layout grows back over that coordinate
    auto layout = gate_level_layout{"t", layout_topology::cartesian, clocking_scheme::open(), 6, 6};
    layout.place({0, 0}, gate_type::pi, "a");
    layout.assign_clock({0, 0}, 0);
    layout.assign_clock({5, 5}, 3);

    layout.shrink_to_fit();
    EXPECT_EQ(layout.width(), 1u);
    EXPECT_EQ(layout.height(), 1u);

    layout.resize(6, 6);
    EXPECT_FALSE(layout.clocking().has_assigned_clock({5, 5}));
    EXPECT_EQ(layout.clock_number({5, 5}), 0u);  // unassigned default, not the stale 3
    EXPECT_TRUE(layout.clocking().has_assigned_clock({0, 0}));
}

TEST(GateLevelLayoutTest, ShrinkTranslationRekeysOpenZones)
{
    auto layout = gate_level_layout{"t", layout_topology::cartesian, clocking_scheme::open(), 8, 8};
    layout.place({3, 2}, gate_type::pi, "a");
    layout.place({4, 2}, gate_type::po, "y");
    layout.connect({3, 2}, {4, 2});
    layout.assign_clock({3, 2}, 1);
    layout.assign_clock({4, 2}, 2);

    layout.shrink_to_fit();

    EXPECT_EQ(layout.width(), 2u);
    EXPECT_EQ(layout.height(), 1u);
    EXPECT_EQ(layout.clock_number({0, 0}), 1u);
    EXPECT_EQ(layout.clock_number({1, 0}), 2u);
    // nothing outside the shrunken bounds remains assigned
    EXPECT_EQ(layout.clocking().num_assigned_clocks(), 2u);
}

TEST(GateLevelLayoutTest, HexagonalOpenShrinkKeepsRowParity)
{
    // an odd row shift would flip the even-row offset neighborhoods; the
    // shrink must keep one margin row instead
    auto layout = gate_level_layout{"t", layout_topology::hexagonal_even_row, clocking_scheme::open(), 8, 8};
    layout.place({0, 1}, gate_type::pi, "a");
    layout.assign_clock({0, 1}, 1);

    layout.shrink_to_fit();

    EXPECT_EQ(layout.height(), 2u);
    EXPECT_EQ(layout.type_of({0, 1}), gate_type::pi);
    EXPECT_EQ(layout.clock_number({0, 1}), 1u);
}

TEST(GateLevelLayoutTest, ConnectRejectsFanoutOverCapacity)
{
    auto layout = make_empty();
    layout.place({0, 0}, gate_type::fanout);
    layout.place({1, 0}, gate_type::buf);
    layout.place({0, 1}, gate_type::buf);
    layout.place({1, 1}, gate_type::and2);
    layout.connect({0, 0}, {1, 0});
    layout.connect({0, 0}, {0, 1});
    EXPECT_THROW(layout.connect({0, 0}, {1, 1}), precondition_error);
    EXPECT_EQ(layout.outgoing_of({0, 0}).size(), gate_level_layout::max_fanout);
}

TEST(GateLevelLayoutTest, AssignClockOnlyOnOpenLayouts)
{
    // a regular scheme never changes under its direction tables
    auto regular = make_empty();
    EXPECT_THROW(regular.assign_clock({0, 0}, 1), precondition_error);
    EXPECT_EQ(as_vector(regular.outgoing_clocked({0, 0})), (std::vector<coordinate>{{1, 0}, {0, 1}}));

    gate_level_layout open{"t", layout_topology::cartesian, clocking_scheme::open(), 3, 3};
    open.assign_clock({1, 2}, 3);
    EXPECT_EQ(open.clock_number({1, 2}), 3u);
}

TEST(GateLevelLayoutTest, NamesFollowTheirTiles)
{
    // a PI/PO name and a name on a buffer (a hostile .fgl may name any gate)
    auto layout = make_empty(8, 8);
    layout.place({4, 4}, gate_type::pi, "a");
    layout.place({5, 4}, gate_type::buf, "w");
    layout.place({6, 4}, gate_type::po, "y");
    layout.connect({4, 4}, {5, 4});
    layout.connect({5, 4}, {6, 4});

    layout.move_tile({5, 4}, {5, 5});
    layout.move_tile({6, 4}, {6, 5});
    EXPECT_EQ(layout.io_name_of({5, 5}), "w");
    EXPECT_EQ(layout.io_name_of({6, 5}), "y");
    EXPECT_TRUE(layout.io_name_of({5, 4}).empty());
    EXPECT_TRUE(layout.io_name_of({6, 4}).empty());

    layout.resize(12, 12);
    EXPECT_EQ(layout.io_name_of({4, 4}), "a");
    EXPECT_EQ(layout.io_name_of({5, 5}), "w");
    EXPECT_EQ(layout.io_name_of({6, 5}), "y");

    // 2DDWave zones repeat along (x + y) mod 4: the shrink translates by (4, 4)
    layout.shrink_to_fit();
    ASSERT_EQ(layout.width(), 3u);
    ASSERT_EQ(layout.height(), 2u);
    EXPECT_EQ(layout.io_name_of({0, 0}), "a");
    EXPECT_EQ(layout.io_name_of({1, 1}), "w");
    EXPECT_EQ(layout.io_name_of({2, 1}), "y");
    EXPECT_EQ(layout.type_of({1, 1}), gate_type::buf);

    // clear_tile drops the name: a gate placed there later starts unnamed
    layout.clear_tile({1, 1});
    layout.clear_tile({0, 0});
    EXPECT_TRUE(layout.io_name_of({1, 1}).empty());
    EXPECT_TRUE(layout.io_name_of({0, 0}).empty());
    layout.place({1, 1}, gate_type::buf);
    layout.place({0, 0}, gate_type::pi);
    EXPECT_TRUE(layout.io_name_of({1, 1}).empty());
    EXPECT_TRUE(layout.io_name_of({0, 0}).empty());
    EXPECT_EQ(layout.io_name_of({2, 1}), "y");
}

TEST(GateLevelLayoutTest, SetIncomingOrderChecksThePermutation)
{
    auto layout = make_empty();
    layout.place({1, 0}, gate_type::fanout);
    layout.place({0, 1}, gate_type::pi, "b");
    layout.place({1, 1}, gate_type::maj3);
    layout.connect({1, 0}, {1, 1});
    layout.connect({0, 1}, {1, 1});
    layout.connect({1, 0}, {1, 1});

    const std::vector<coordinate> reordered{{0, 1}, {1, 0}, {1, 0}};
    layout.set_incoming_order({1, 1}, reordered);
    EXPECT_TRUE(std::ranges::equal(layout.incoming_of({1, 1}), reordered));

    // same entries, other multiplicities; a subset; a superset
    const std::vector<coordinate> wrong_counts{{0, 1}, {0, 1}, {1, 0}};
    const std::vector<coordinate> subset{{0, 1}, {1, 0}};
    const std::vector<coordinate> superset{{0, 1}, {1, 0}, {1, 0}, {1, 0}};
    EXPECT_THROW(layout.set_incoming_order({1, 1}, wrong_counts), precondition_error);
    EXPECT_THROW(layout.set_incoming_order({1, 1}, subset), precondition_error);
    EXPECT_THROW(layout.set_incoming_order({1, 1}, superset), precondition_error);
    EXPECT_TRUE(std::ranges::equal(layout.incoming_of({1, 1}), reordered));

    // the span may view the tile's own list
    layout.set_incoming_order({1, 1}, layout.incoming_of({1, 1}));
    EXPECT_TRUE(std::ranges::equal(layout.incoming_of({1, 1}), reordered));
}
