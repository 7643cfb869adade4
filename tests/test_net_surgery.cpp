#include "layout/net_surgery.hpp"

#include "layout/layout_utils.hpp"
#include "physical_design/ortho.hpp"
#include "test_networks.hpp"
#include "verification/drc.hpp"
#include "verification/equivalence.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

using namespace mnt;
using namespace mnt::lyt;
using namespace mnt::test;
using mnt::ntk::gate_type;

namespace
{

/// pi -> (wires) -> po on 2DDWave
gate_level_layout make_wire_layout()
{
    gate_level_layout layout{"w", layout_topology::cartesian, clocking_scheme::twoddwave(), 6, 6};
    layout.place({0, 0}, gate_type::pi, "a");
    layout.place({4, 2}, gate_type::po, "y");
    net_surgeon surgeon{layout};
    if (!surgeon.route_shortest({0, 0}, {4, 2}).has_value())
    {
        throw mnt_error{"route failed"};
    }
    return layout;
}

}  // namespace

TEST(NetSurgeryTest, TraceFindsFullChain)
{
    const auto layout = make_wire_layout();
    const net_surgeon surgeon{const_cast<gate_level_layout&>(layout)};
    const auto conn = surgeon.trace_incoming({4, 2}, 0);
    EXPECT_EQ(conn.src, coordinate(0, 0));
    EXPECT_EQ(conn.dst, coordinate(4, 2));
    EXPECT_EQ(conn.chain.size(), 5u);
}

TEST(NetSurgeryTest, RipRemovesChainAndRestoreRebuildsIt)
{
    auto layout = make_wire_layout();
    net_surgeon surgeon{layout};
    const auto conn = surgeon.trace_incoming({4, 2}, 0);

    surgeon.rip(conn);
    EXPECT_EQ(layout.num_wires(), 0u);
    EXPECT_TRUE(layout.incoming_of({4, 2}).empty());

    const auto feeder = surgeon.restore(conn);
    EXPECT_EQ(layout.num_wires(), 5u);
    EXPECT_EQ(layout.incoming_of({4, 2}).front(), feeder);
    EXPECT_TRUE(ver::gate_level_drc(layout).passed());
}

TEST(NetSurgeryTest, AllConnectionsEnumeratesEachOnce)
{
    const auto network = mux21();
    auto layout = pd::ortho(network);
    net_surgeon surgeon{layout};
    const auto conns = surgeon.all_connections();

    // one connection per fanin slot of every non-wire tile
    std::size_t expected = 0;
    layout.foreach_tile(
        [&](const coordinate&, const gate_level_layout::tile_data& d)
        {
            if (d.type != gate_type::buf)
            {
                expected += d.incoming.size();
            }
        });
    EXPECT_EQ(conns.size(), expected);
}

TEST(NetSurgeryTest, IncidentConnectionsCoverInsAndOuts)
{
    const auto network = half_adder();
    auto layout = pd::ortho(network);
    net_surgeon surgeon{layout};

    // find the xor gate tile
    coordinate xor_tile{};
    layout.foreach_tile(
        [&](const coordinate& c, const gate_level_layout::tile_data& d)
        {
            if (d.type == gate_type::xor2)
            {
                xor_tile = c;
            }
        });

    const auto conns = surgeon.incident_connections(xor_tile);
    ASSERT_EQ(conns.size(), 3u);  // 2 fanins + 1 fanout (to the PO)
    EXPECT_EQ(conns[0].dst, xor_tile);
    EXPECT_EQ(conns[1].dst, xor_tile);
    EXPECT_EQ(conns[2].src, xor_tile);
}

TEST(NetSurgeryTest, RepeatedDirectLinksGetDistinctSlots)
{
    // a fanout feeding both slots of the adjacent AND directly
    gate_level_layout layout{"f", layout_topology::cartesian, clocking_scheme::twoddwave(), 6, 6};
    layout.place({0, 0}, gate_type::pi, "a");
    layout.place({0, 1}, gate_type::fanout);
    layout.place({1, 1}, gate_type::and2);
    layout.place({2, 1}, gate_type::po, "y");
    layout.connect({0, 0}, {0, 1});
    layout.connect({0, 1}, {1, 1});
    layout.connect({0, 1}, {1, 1});
    layout.connect({1, 1}, {2, 1});
    const auto spec = extract_network(layout);
    net_surgeon surgeon{layout};

    const auto conns = surgeon.incident_connections({0, 1});
    ASSERT_EQ(conns.size(), 3u);  // the PI link, then both links into the AND
    EXPECT_EQ(conns[1].dst, coordinate(1, 1));
    EXPECT_EQ(conns[2].dst, coordinate(1, 1));
    EXPECT_EQ(conns[1].dst_slot, 0u);
    EXPECT_EQ(conns[2].dst_slot, 1u);

    // one slot listed twice cannot be rebuilt: an error, not a read past
    // the end of the fanin list
    EXPECT_THROW(detail::rebuild_slot_order(layout, {1, 1}, {0, 0}, {{0, 1}, {0, 1}}), precondition_error);

    ASSERT_TRUE(try_relocate(surgeon, {0, 1}, {1, 0}, []() { return true; }));
    EXPECT_TRUE(std::ranges::equal(layout.incoming_of({1, 1}), std::vector<coordinate>{{1, 0}, {1, 0}}));
    EXPECT_EQ(layout.outgoing_of({1, 0}).size(), 2u);
    EXPECT_TRUE(ver::gate_level_drc(layout).passed());
    EXPECT_TRUE(ver::check_layout_equivalence(spec, layout));
}

TEST(NetSurgeryTest, RipDemotesFloatingCrossings)
{
    // build a crossing, then rip the ground net: the crossing wire must be
    // demoted to the ground layer and its net must stay intact
    gate_level_layout layout{"x", layout_topology::cartesian, clocking_scheme::twoddwave(), 5, 5};
    layout.place({2, 0}, gate_type::pi, "v");
    layout.place({2, 4}, gate_type::po, "vy");
    layout.place({0, 2}, gate_type::pi, "h");
    layout.place({4, 2}, gate_type::po, "hy");
    net_surgeon surgeon{layout};
    ASSERT_TRUE(surgeon.route_shortest({2, 0}, {2, 4}).has_value());  // ground at (2,2)
    ASSERT_TRUE(surgeon.route_shortest({0, 2}, {4, 2}).has_value());  // crossing at (2,2,1)
    ASSERT_EQ(layout.num_crossings(), 1u);

    const auto vertical = surgeon.trace_incoming({2, 4}, 0);
    surgeon.rip(vertical);

    EXPECT_EQ(layout.num_crossings(), 0u);
    EXPECT_EQ(layout.type_of({2, 2, 0}), gate_type::buf);  // demoted horizontal wire

    // drop the now-disconnected vertical I/O pins; the remaining horizontal
    // net must be fully DRC-clean
    layout.clear_tile({2, 0});
    layout.clear_tile({2, 4});
    const auto report = ver::gate_level_drc(layout);
    EXPECT_TRUE(report.passed()) << (report.errors.empty() ? "" : report.errors.front());
}

TEST(NetSurgeryTest, TryRelocateCommitsOnAccept)
{
    auto layout = make_wire_layout();
    net_surgeon surgeon{layout};
    const auto committed = try_relocate(surgeon, {4, 2}, {2, 2}, []() { return true; });
    EXPECT_TRUE(committed);
    EXPECT_EQ(layout.type_of({2, 2}), gate_type::po);
    EXPECT_TRUE(layout.is_empty_tile({4, 2}));
    EXPECT_TRUE(ver::gate_level_drc(layout).passed());
}

TEST(NetSurgeryTest, TryRelocateRollsBackOnReject)
{
    auto layout = make_wire_layout();
    const auto wires_before = layout.num_wires();
    net_surgeon surgeon{layout};
    const auto committed = try_relocate(surgeon, {4, 2}, {2, 2}, []() { return false; });
    EXPECT_FALSE(committed);
    EXPECT_EQ(layout.type_of({4, 2}), gate_type::po);
    EXPECT_TRUE(layout.is_empty_tile({2, 2}));
    EXPECT_EQ(layout.num_wires(), wires_before);
    EXPECT_TRUE(ver::gate_level_drc(layout).passed());
}

TEST(NetSurgeryTest, TryRelocateRollsBackOnUnroutable)
{
    auto layout = make_wire_layout();
    net_surgeon surgeon{layout};
    // moving the PI south-east of its PO makes the net unroutable under
    // 2DDWave (information only flows east/south) -> must roll back
    const auto committed = try_relocate(surgeon, {0, 0}, {5, 5}, []() { return true; });
    EXPECT_FALSE(committed);
    EXPECT_EQ(layout.type_of({0, 0}), gate_type::pi);
    EXPECT_EQ(layout.type_of({4, 2}), gate_type::po);
    EXPECT_TRUE(ver::gate_level_drc(layout).passed());
    EXPECT_TRUE(ver::check_layout_equivalence(lyt::extract_network(make_wire_layout()), layout));
}

TEST(NetSurgeryTest, RelocationPreservesFunctionOnRealCircuit)
{
    const auto network = mux21();
    auto layout = pd::ortho(network);
    net_surgeon surgeon{layout};

    // push every gate around randomly-ish (deterministic order), accepting
    // everything that routes; the function must survive
    for (const auto& g : layout.tiles_sorted())
    {
        if (layout.type_of(g) == gate_type::buf || layout.is_empty_tile(g))
        {
            continue;
        }
        for (std::int32_t y = 0; y < static_cast<std::int32_t>(layout.height()); y += 2)
        {
            const coordinate t{g.x, y, 0};
            if (layout.is_empty_tile(t) && layout.is_empty_tile(t.elevated()))
            {
                static_cast<void>(try_relocate(surgeon, g, t, []() { return true; }));
                break;
            }
        }
    }
    EXPECT_TRUE(ver::check_layout_equivalence(network, layout));
}
