#include "physical_design/hexagonalization.hpp"

#include "common/types.hpp"
#include "physical_design/ortho.hpp"
#include "test_networks.hpp"
#include "verification/drc.hpp"
#include "verification/equivalence.hpp"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

using namespace mnt;
using namespace mnt::pd;
using namespace mnt::test;

TEST(HexagonalizationTest, Mux21TransformsCorrectly)
{
    const auto network = mux21();
    const auto cartesian = ortho(network);
    const auto hex = hexagonalization(cartesian);

    EXPECT_EQ(hex.topology(), lyt::layout_topology::hexagonal_even_row);
    EXPECT_EQ(hex.clocking().kind(), lyt::clocking_kind::row);
    const auto report = ver::gate_level_drc(hex);
    EXPECT_TRUE(report.passed()) << (report.errors.empty() ? "" : report.errors.front());
    EXPECT_TRUE(ver::check_layout_equivalence(network, hex));
}

TEST(HexagonalizationTest, PreservesGateAndCrossingCounts)
{
    const auto network = random_network(5, 40, 3, 11);
    const auto cartesian = ortho(network);
    const auto hex = hexagonalization(cartesian);

    EXPECT_EQ(hex.num_gates(), cartesian.num_gates());
    EXPECT_EQ(hex.num_wires(), cartesian.num_wires());
    EXPECT_EQ(hex.num_crossings(), cartesian.num_crossings());
    EXPECT_EQ(hex.num_pis(), cartesian.num_pis());
    EXPECT_EQ(hex.num_pos(), cartesian.num_pos());
}

TEST(HexagonalizationTest, GeometryFollowsTheDiagonalFormula)
{
    const auto network = half_adder();
    const auto cartesian = ortho(network);
    const auto hex = hexagonalization(cartesian);
    // rows = diagonals of the Cartesian layout
    EXPECT_EQ(hex.height(), cartesian.width() + cartesian.height() - 1);
    EXPECT_LE(hex.width(), (cartesian.width() + cartesian.height()) / 2 + 1);
}

TEST(HexagonalizationTest, NamesMoveWithTheirTiles)
{
    lyt::gate_level_layout layout{"names", lyt::layout_topology::cartesian, lyt::clocking_scheme::twoddwave(), 3, 1};
    layout.place({0, 0}, ntk::gate_type::pi, "a");
    layout.place({1, 0}, ntk::gate_type::buf, "w");
    layout.place({2, 0}, ntk::gate_type::po, "y");
    layout.connect({0, 0}, {1, 0});
    layout.connect({1, 0}, {2, 0});

    const auto hex = hexagonalization(layout);
    std::vector<std::pair<ntk::gate_type, std::string>> named;
    hex.foreach_tile([&](const lyt::coordinate& c, const lyt::gate_level_layout::tile_data& d)
                     { named.emplace_back(d.type, hex.io_name_of(c)); });
    const std::vector<std::pair<ntk::gate_type, std::string>> expected{
        {ntk::gate_type::pi, "a"}, {ntk::gate_type::buf, "w"}, {ntk::gate_type::po, "y"}};
    EXPECT_EQ(named, expected);
}

TEST(HexagonalizationTest, RejectsNonTwoDDWaveInput)
{
    lyt::gate_level_layout use_layout{"x", lyt::layout_topology::cartesian, lyt::clocking_scheme::use(), 4, 4};
    EXPECT_THROW(static_cast<void>(hexagonalization(use_layout)), precondition_error);

    lyt::gate_level_layout hex_layout{"x", lyt::layout_topology::hexagonal_even_row, lyt::clocking_scheme::row(), 4,
                                      4};
    EXPECT_THROW(static_cast<void>(hexagonalization(hex_layout)), precondition_error);
}

TEST(HexagonalizationTest, RandomSweepStaysEquivalent)
{
    for (const std::uint64_t seed : {21u, 22u, 23u})
    {
        const auto network = random_network(4, 60, 4, seed);
        const auto hex = hexagonalization(ortho(network));
        ASSERT_TRUE(ver::gate_level_drc(hex).passed()) << "seed " << seed;
        EXPECT_TRUE(ver::check_layout_equivalence(network, hex)) << "seed " << seed;
    }
}

TEST(HexagonalizationTest, EmptyLayoutHandled)
{
    const lyt::gate_level_layout empty{"e", lyt::layout_topology::cartesian, lyt::clocking_scheme::twoddwave(), 3,
                                       3};
    const auto hex = hexagonalization(empty);
    EXPECT_EQ(hex.num_occupied(), 0u);
}

TEST(HexagonalizationTest, OddHeightLayoutsKeepAdjacency)
{
    // regression: with an odd Cartesian height the x offset must be rounded
    // up to even, otherwise east/south steps land on non-neighbors
    ntk::logic_network network{"odd"};
    const auto a = network.create_pi("a");
    const auto b = network.create_pi("b");
    const auto c = network.create_pi("c");
    network.create_po(network.create_xor(network.create_xor(a, b), c), "p");

    const auto cartesian = pd::ortho(network);
    ASSERT_EQ(cartesian.height() % 2, 1u);  // the scenario under test
    const auto hex = hexagonalization(cartesian);
    const auto report = ver::gate_level_drc(hex);
    EXPECT_TRUE(report.passed()) << (report.errors.empty() ? "" : report.errors.front());
    EXPECT_TRUE(ver::check_layout_equivalence(network, hex));
}
