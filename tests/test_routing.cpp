#include "layout/routing.hpp"

#include "common/types.hpp"
#include "layout/gate_level_layout.hpp"
#include "telemetry/telemetry.hpp"
#include "verification/drc.hpp"

#include <gtest/gtest.h>

using namespace mnt;
using namespace mnt::lyt;
using mnt::ntk::gate_type;

namespace
{

gate_level_layout make_2dd(const std::uint32_t w = 8, const std::uint32_t h = 8)
{
    return gate_level_layout{"r", layout_topology::cartesian, clocking_scheme::twoddwave(), w, h};
}

}  // namespace

TEST(RoutingTest, DirectNeighborNeedsNoWires)
{
    auto layout = make_2dd();
    layout.place({0, 0}, gate_type::pi, "a");
    layout.place({1, 0}, gate_type::po, "y");
    const auto path = find_path(layout, {0, 0}, {1, 0});
    ASSERT_TRUE(path.has_value());
    EXPECT_TRUE(path->empty());
    establish_path(layout, {0, 0}, {1, 0}, *path);
    EXPECT_EQ(layout.incoming_of({1, 0}).size(), 1u);
}

TEST(RoutingTest, StraightLineRoute)
{
    auto layout = make_2dd();
    layout.place({0, 0}, gate_type::pi, "a");
    layout.place({4, 0}, gate_type::po, "y");
    EXPECT_TRUE(route(layout, {0, 0}, {4, 0}));
    // three wire tiles in between
    EXPECT_EQ(layout.num_wires(), 3u);
    EXPECT_EQ(layout.type_of({1, 0}), gate_type::buf);
    EXPECT_EQ(layout.type_of({2, 0}), gate_type::buf);
    EXPECT_EQ(layout.type_of({3, 0}), gate_type::buf);
}

TEST(RoutingTest, PathRespectsClocking)
{
    // 2DDWave cannot route westward: src east of dst
    auto layout = make_2dd();
    layout.place({4, 0}, gate_type::pi, "a");
    layout.place({0, 0}, gate_type::po, "y");
    EXPECT_FALSE(find_path(layout, {4, 0}, {0, 0}).has_value());
}

TEST(RoutingTest, RouteAroundObstacle)
{
    auto layout = make_2dd();
    layout.place({0, 0}, gate_type::pi, "a");
    layout.place({2, 0}, gate_type::and2);  // obstacle: gates cannot be crossed
    layout.place({4, 2}, gate_type::po, "y");
    const auto path = find_path(layout, {0, 0}, {4, 2});
    ASSERT_TRUE(path.has_value());
    // path must detour south around the gate
    for (const auto& p : *path)
    {
        EXPECT_NE(p.ground(), coordinate(2, 0));
    }
    establish_path(layout, {0, 0}, {4, 2}, *path);
    EXPECT_EQ(layout.num_wires(), 5u);  // shortest monotone detour
}

TEST(RoutingTest, CrossingOverWire)
{
    auto layout = make_2dd();
    // vertical wire chain through column 2
    layout.place({2, 0}, gate_type::pi, "v");
    layout.place({2, 4}, gate_type::po, "vy");
    ASSERT_TRUE(route(layout, {2, 0}, {2, 4}));

    // horizontal net through row 2 must cross the vertical wire at (2,2)
    layout.place({0, 2}, gate_type::pi, "h");
    layout.place({4, 2}, gate_type::po, "hy");
    const auto path = find_path(layout, {0, 2}, {4, 2});
    ASSERT_TRUE(path.has_value());
    establish_path(layout, {0, 2}, {4, 2}, *path);
    EXPECT_EQ(layout.num_crossings(), 1u);
    EXPECT_EQ(layout.type_of({2, 2, 1}), gate_type::buf);
}

TEST(RoutingTest, CrossingDisabledFails)
{
    auto layout = make_2dd(5, 5);
    layout.place({2, 0}, gate_type::pi, "v");
    layout.place({2, 4}, gate_type::po, "vy");
    ASSERT_TRUE(route(layout, {2, 0}, {2, 4}));
    // block the alternative row paths to force a crossing
    for (int x = 0; x < 5; ++x)
    {
        for (int y : {1, 3})
        {
            if (layout.is_empty_tile({x, y}))
            {
                layout.place({x, y}, gate_type::and2);
            }
        }
    }
    layout.place({0, 2}, gate_type::pi, "h");
    layout.place({4, 2}, gate_type::po, "hy");
    routing_options options{};
    options.allow_crossings = false;
    EXPECT_FALSE(find_path(layout, {0, 2}, {4, 2}, options).has_value());
    options.allow_crossings = true;
    EXPECT_TRUE(find_path(layout, {0, 2}, {4, 2}, options).has_value());
}

TEST(RoutingTest, GatesCannotBeCrossed)
{
    auto layout = make_2dd(5, 1);  // single row: no detour possible
    layout.place({0, 0}, gate_type::pi, "a");
    layout.place({2, 0}, gate_type::and2);
    layout.place({4, 0}, gate_type::po, "y");
    EXPECT_FALSE(find_path(layout, {0, 0}, {4, 0}).has_value());
}

TEST(RoutingTest, CoincidentEndpointsRejected)
{
    auto layout = make_2dd();
    layout.place({1, 1}, gate_type::buf);
    EXPECT_THROW(static_cast<void>(find_path(layout, {1, 1}, {1, 1})), precondition_error);
}

TEST(RoutingTest, EmptyEndpointsRejected)
{
    auto layout = make_2dd();
    layout.place({0, 0}, gate_type::pi, "a");
    EXPECT_THROW(static_cast<void>(find_path(layout, {0, 0}, {3, 3})), precondition_error);
}

TEST(RoutingTest, MaxExpansionsLimitsSearch)
{
    auto layout = make_2dd(20, 20);
    layout.place({0, 0}, gate_type::pi, "a");
    layout.place({19, 19}, gate_type::po, "y");
    routing_options options{};
    options.max_expansions = 3;
    EXPECT_FALSE(find_path(layout, {0, 0}, {19, 19}, options).has_value());
}

TEST(RoutingTest, ExpansionsAreCountedWithAndWithoutCap)
{
    // every position taken off the queue counts, whether a cap is set or not
    const auto was_enabled = tel::enabled();
    tel::set_enabled(true);
    const auto& expanded = tel::registry::instance().get_counter("route.expansions");
    const auto expansions_of = [&](const routing_options& options, const bool expect_path)
    {
        auto layout = make_2dd(20, 20);
        layout.place({0, 0}, gate_type::pi, "a");
        layout.place({19, 19}, gate_type::po, "y");
        const auto before = expanded.value();
        EXPECT_EQ(find_path(layout, {0, 0}, {19, 19}, options).has_value(), expect_path);
        return expanded.value() - before;
    };

    const auto uncapped = expansions_of(routing_options{}, true);
    EXPECT_GT(uncapped, 0u);
    routing_options generous{};
    generous.max_expansions = 1'000'000;
    EXPECT_EQ(expansions_of(generous, true), uncapped);
    // a capped search gives up on the first position beyond the cap
    routing_options capped{};
    capped.max_expansions = 3;
    EXPECT_EQ(expansions_of(capped, false), 4u);
    tel::set_enabled(was_enabled);
}

TEST(RoutingTest, USERouteCanTurnBack)
{
    // USE clocking permits non-monotone paths; route westward
    gate_level_layout layout{"use", layout_topology::cartesian, clocking_scheme::use(), 8, 8};
    layout.place({4, 0}, gate_type::pi, "a");
    layout.place({0, 0}, gate_type::po, "y");
    const auto path = find_path(layout, {4, 0}, {0, 0});
    ASSERT_TRUE(path.has_value());
    establish_path(layout, {4, 0}, {0, 0}, *path);
    // every consecutive pair must advance the clock by one
    auto prev = coordinate{4, 0};
    for (const auto& p : *path)
    {
        EXPECT_TRUE(layout.clocking().is_incoming_clocked(p, prev));
        prev = p;
    }
    EXPECT_TRUE(layout.clocking().is_incoming_clocked({0, 0}, prev));
}

TEST(RoutingTest, HexagonalRowRoute)
{
    gate_level_layout layout{"hex", layout_topology::hexagonal_even_row, clocking_scheme::row(), 6, 6};
    layout.place({3, 0}, gate_type::pi, "a");
    layout.place({1, 4}, gate_type::po, "y");
    const auto path = find_path(layout, {3, 0}, {1, 4});
    ASSERT_TRUE(path.has_value());
    EXPECT_EQ(path->size(), 3u);  // one wire per intermediate row
    establish_path(layout, {3, 0}, {1, 4}, *path);
    EXPECT_TRUE(mnt::ver::gate_level_drc(layout).passed());
}

TEST(RoutingTest, RipUpRemovesChain)
{
    auto layout = make_2dd();
    layout.place({0, 0}, gate_type::pi, "a");
    layout.place({4, 2}, gate_type::po, "y");
    ASSERT_TRUE(route(layout, {0, 0}, {4, 2}));
    const auto wires_before = layout.num_wires();
    EXPECT_GT(wires_before, 0u);
    rip_up_path(layout, {0, 0}, {4, 2});
    EXPECT_EQ(layout.num_wires(), 0u);
    EXPECT_TRUE(layout.incoming_of({4, 2}).empty());
    EXPECT_TRUE(layout.outgoing_of({0, 0}).empty());
    // endpoints stay
    EXPECT_EQ(layout.type_of({0, 0}), gate_type::pi);
    EXPECT_EQ(layout.type_of({4, 2}), gate_type::po);
}

TEST(RoutingTest, RoutedLayoutPassesDrc)
{
    auto layout = make_2dd();
    layout.place({1, 0}, gate_type::pi, "a");
    layout.place({0, 1}, gate_type::pi, "b");
    layout.place({2, 2}, gate_type::and2);
    layout.place({7, 7}, gate_type::po, "y");
    ASSERT_TRUE(route(layout, {1, 0}, {2, 2}));
    ASSERT_TRUE(route(layout, {0, 1}, {2, 2}));
    ASSERT_TRUE(route(layout, {2, 2}, {7, 7}));
    const auto report = mnt::ver::gate_level_drc(layout);
    EXPECT_TRUE(report.passed()) << (report.errors.empty() ? "" : report.errors.front());
}
