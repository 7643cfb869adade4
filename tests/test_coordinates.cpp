#include "layout/coordinates.hpp"

#include "common/types.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <ostream>
#include <unordered_set>
#include <vector>

using namespace mnt;
using namespace mnt::lyt;

namespace mnt::lyt
{

/// gtest prints coordinates in assertion messages as "(x, y, z)".
void PrintTo(const coordinate& c, std::ostream* os)
{
    *os << c.to_string();
}

}  // namespace mnt::lyt

namespace
{

std::vector<coordinate> as_vector(const neighbor_list& ns)
{
    return {ns.begin(), ns.end()};
}

}  // namespace

TEST(CoordinateTest, ConstructionAndEquality)
{
    const coordinate a{1, 2};
    const coordinate b{1, 2, 0};
    const coordinate c{1, 2, 1};
    EXPECT_EQ(a, b);
    EXPECT_NE(a, c);
    EXPECT_EQ(c.ground(), a);
    EXPECT_EQ(a.elevated(), c);
}

TEST(CoordinateTest, OrderingIsRowMajor)
{
    EXPECT_LT(coordinate(5, 0), coordinate(0, 1));
    EXPECT_LT(coordinate(0, 1), coordinate(1, 1));
    EXPECT_LT(coordinate(1, 1, 0), coordinate(1, 1, 1));
}

TEST(CoordinateTest, ToString)
{
    EXPECT_EQ(coordinate(3, 4, 1).to_string(), "(3, 4, 1)");
}

TEST(CoordinateTest, HashDistinguishesLayers)
{
    std::unordered_set<coordinate, coordinate_hash> set;
    set.insert({1, 1, 0});
    set.insert({1, 1, 1});
    EXPECT_EQ(set.size(), 2u);
}

// The neighbor order is part of the output contract: the router's BFS,
// exact's path enumeration and NanoPlaceR's rip-up all take the first match
// in this order, so a reordering changes layouts.

TEST(CoordinateTest, CartesianNeighbors)
{
    // E, S, W, N
    EXPECT_EQ(as_vector(planar_neighbors({2, 2}, layout_topology::cartesian)),
              (std::vector<coordinate>{{3, 2}, {2, 3}, {1, 2}, {2, 1}}));
    // no bounds checking, and the layer is kept
    EXPECT_EQ(as_vector(planar_neighbors({0, 0, 1}, layout_topology::cartesian)),
              (std::vector<coordinate>{{1, 0, 1}, {0, 1, 1}, {-1, 0, 1}, {0, -1, 1}}));
}

TEST(CoordinateTest, HexagonalNeighborsEvenRow)
{
    // even row: (x+1, y), (x-1, y), (x-1, y-1), (x, y-1), (x-1, y+1), (x, y+1)
    EXPECT_EQ(as_vector(planar_neighbors({3, 2}, layout_topology::hexagonal_even_row)),
              (std::vector<coordinate>{{4, 2}, {2, 2}, {2, 1}, {3, 1}, {2, 3}, {3, 3}}));
}

TEST(CoordinateTest, HexagonalNeighborsOddRow)
{
    // odd row: (x+1, y), (x-1, y), (x, y-1), (x+1, y-1), (x, y+1), (x+1, y+1)
    EXPECT_EQ(as_vector(planar_neighbors({3, 3}, layout_topology::hexagonal_even_row)),
              (std::vector<coordinate>{{4, 3}, {2, 3}, {3, 2}, {4, 2}, {3, 4}, {4, 4}}));
    // negative odd rows are odd rows too
    EXPECT_EQ(as_vector(planar_neighbors({0, -1, 1}, layout_topology::hexagonal_even_row)),
              (std::vector<coordinate>{{1, -1, 1}, {-1, -1, 1}, {0, -2, 1}, {1, -2, 1}, {0, 0, 1}, {1, 0, 1}}));
}

TEST(CoordinateTest, HexNeighborhoodIsSymmetric)
{
    // if b is a neighbor of a, then a must be a neighbor of b
    for (int y = 0; y < 4; ++y)
    {
        for (int x = 0; x < 4; ++x)
        {
            const coordinate a{x, y};
            for (const auto& b : planar_neighbors(a, layout_topology::hexagonal_even_row))
            {
                EXPECT_TRUE(are_adjacent(b, a, layout_topology::hexagonal_even_row))
                    << a.to_string() << " vs " << b.to_string();
            }
        }
    }
}

TEST(CoordinateTest, AdjacencyIgnoresLayer)
{
    EXPECT_TRUE(are_adjacent({1, 1, 1}, {2, 1, 0}, layout_topology::cartesian));
    EXPECT_FALSE(are_adjacent({1, 1}, {3, 1}, layout_topology::cartesian));
    EXPECT_FALSE(are_adjacent({1, 1}, {2, 2}, layout_topology::cartesian));
}

TEST(CoordinateTest, AdjacencyMatchesPlanarNeighbors)
{
    // are_adjacent decides by offsets, without building the neighbor list;
    // b is adjacent to a exactly when it is one of a's planar neighbors,
    // on both row parities and at negative coordinates
    for (const auto topo : {layout_topology::cartesian, layout_topology::hexagonal_even_row})
    {
        for (int y = -3; y < 4; ++y)
        {
            for (int x = -3; x < 4; ++x)
            {
                const coordinate a{x, y};
                const auto ns = planar_neighbors(a, topo);
                for (int by = y - 2; by <= y + 2; ++by)
                {
                    for (int bx = x - 2; bx <= x + 2; ++bx)
                    {
                        const coordinate b{bx, by, 1};
                        const auto listed = std::any_of(ns.begin(), ns.end(), [&](const coordinate& n)
                                                        { return n.x == b.x && n.y == b.y; });
                        EXPECT_EQ(are_adjacent(a, b, topo), listed)
                            << topology_name(topo) << ": " << a.to_string() << " vs " << b.to_string();
                    }
                }
            }
        }
    }
}

TEST(CoordinateTest, GridDistance)
{
    EXPECT_EQ(grid_distance({0, 0}, {3, 4}, layout_topology::cartesian), 7u);
    // hexagonal: diagonal movement absorbs column difference
    EXPECT_EQ(grid_distance({0, 0}, {3, 4}, layout_topology::hexagonal_even_row), 4u);
    EXPECT_EQ(grid_distance({0, 0}, {5, 2}, layout_topology::hexagonal_even_row), 5u);
}

TEST(CoordinateTest, TopologyNames)
{
    EXPECT_EQ(topology_name(layout_topology::cartesian), "cartesian");
    EXPECT_EQ(topology_from_name("hexagonal"), layout_topology::hexagonal_even_row);
    EXPECT_THROW(static_cast<void>(topology_from_name("triangular")), mnt_error);
}
