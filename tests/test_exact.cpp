#include "physical_design/exact.hpp"

#include "benchmarks/functions.hpp"
#include "common/taskrt/taskrt.hpp"
#include "common/types.hpp"
#include "io/fgl_writer.hpp"
#include "service/hash.hpp"
#include "test_networks.hpp"
#include "verification/drc.hpp"
#include "verification/equivalence.hpp"

#include <gtest/gtest.h>

#include <string>

using namespace mnt;
using namespace mnt::pd;
using namespace mnt::test;

namespace
{

ntk::logic_network single_and()
{
    ntk::logic_network network{"and"};
    network.create_po(network.create_and(network.create_pi("a"), network.create_pi("b")), "y");
    return network;
}

}  // namespace

TEST(ExactTest, SingleAndOn2DDWave)
{
    const auto network = single_and();
    exact_stats stats{};
    const auto layout = exact(network, {}, &stats);
    ASSERT_TRUE(layout.has_value());
    EXPECT_FALSE(stats.timed_out);
    // 4 placeable nodes; a 2x2 grid cannot host the PO (no outgoing tile
    // for the AND in bounds), so the true optimum is 6 tiles (e.g. 3x2)
    EXPECT_EQ(layout->area(), 6u);
    EXPECT_TRUE(ver::gate_level_drc(*layout).passed());
    EXPECT_TRUE(ver::check_layout_equivalence(network, *layout));
}

TEST(ExactTest, AreaIsMinimalComparedToWideBound)
{
    // xor + inverter: exact must beat the trivial diagonal bound
    ntk::logic_network network{"xn"};
    const auto a = network.create_pi("a");
    const auto b = network.create_pi("b");
    network.create_po(network.create_not(network.create_xor(a, b)), "y");

    exact_params params{};
    params.timeout_s = 5.0;
    const auto layout = exact(network, params);
    ASSERT_TRUE(layout.has_value());
    EXPECT_LE(layout->area(), 8u);  // 5 placeable nodes + routing
    EXPECT_TRUE(ver::check_layout_equivalence(network, *layout));
}

TEST(ExactTest, Mux21OnUseScheme)
{
    const auto network = mux21();
    exact_params params{};
    params.scheme = lyt::clocking_kind::use;
    // generous budget: Release finds the solution in well under a second, but
    // Debug + sanitizer builds legitimately need several seconds
    params.timeout_s = 60.0;
    params.max_area = 40;
    const auto layout = exact(network, params);
    ASSERT_TRUE(layout.has_value());
    EXPECT_EQ(layout->clocking().kind(), lyt::clocking_kind::use);
    EXPECT_TRUE(ver::gate_level_drc(*layout).passed());
    EXPECT_TRUE(ver::check_layout_equivalence(network, *layout));
}

TEST(ExactTest, MajStaysNativeOnRes)
{
    // RES offers 3-incoming tiles: MAJ must not be decomposed
    ntk::logic_network network{"maj"};
    const auto a = network.create_pi("a");
    const auto b = network.create_pi("b");
    const auto c = network.create_pi("c");
    network.create_po(network.create_maj(a, b, c), "y");

    exact_params params{};
    params.scheme = lyt::clocking_kind::res;
    params.timeout_s = 10.0;
    params.max_area = 30;
    const auto layout = exact(network, params);
    ASSERT_TRUE(layout.has_value());
    bool has_maj = false;
    layout->foreach_tile([&](const lyt::coordinate&, const lyt::gate_level_layout::tile_data& d)
                         { has_maj |= d.type == ntk::gate_type::maj3; });
    EXPECT_TRUE(has_maj);
    EXPECT_TRUE(ver::check_layout_equivalence(network, *layout));
}

TEST(ExactTest, HexagonalRowLayout)
{
    const auto network = single_and();
    exact_params params{};
    params.topology = lyt::layout_topology::hexagonal_even_row;
    params.scheme = lyt::clocking_kind::row;
    params.timeout_s = 5.0;
    const auto layout = exact(network, params);
    ASSERT_TRUE(layout.has_value());
    EXPECT_EQ(layout->topology(), lyt::layout_topology::hexagonal_even_row);
    EXPECT_TRUE(ver::gate_level_drc(*layout).passed());
    EXPECT_TRUE(ver::check_layout_equivalence(network, *layout));
}

TEST(ExactTest, TimeoutReported)
{
    // a function too large for a 1 ms budget
    const auto network = random_network(4, 10, 2, 5);
    exact_params params{};
    params.timeout_s = 0.001;
    params.max_area = 80;
    exact_stats stats{};
    const auto layout = exact(network, params, &stats);
    EXPECT_FALSE(layout.has_value());
    EXPECT_TRUE(stats.timed_out);
}

TEST(ExactTest, InfeasibleAreaBoundReturnsNothing)
{
    const auto network = mux21();
    exact_params params{};
    params.max_area = 3;  // fewer tiles than nodes
    exact_stats stats{};
    const auto layout = exact(network, params, &stats);
    EXPECT_FALSE(layout.has_value());
    EXPECT_FALSE(stats.timed_out);
}

TEST(ExactTest, RejectsOpenScheme)
{
    exact_params params{};
    params.scheme = lyt::clocking_kind::open;
    EXPECT_THROW(static_cast<void>(exact(single_and(), params)), precondition_error);
}

TEST(ExactTest, RejectsHexWithNonRow)
{
    exact_params params{};
    params.topology = lyt::layout_topology::hexagonal_even_row;
    params.scheme = lyt::clocking_kind::use;
    EXPECT_THROW(static_cast<void>(exact(single_and(), params)), precondition_error);
}

TEST(ExactTest, MaxIncomingDegreeTable)
{
    EXPECT_EQ(max_incoming_degree(lyt::clocking_kind::twoddwave, lyt::layout_topology::cartesian), 2);
    EXPECT_EQ(max_incoming_degree(lyt::clocking_kind::row, lyt::layout_topology::hexagonal_even_row), 2);
    EXPECT_EQ(max_incoming_degree(lyt::clocking_kind::row, lyt::layout_topology::cartesian), 1);
    EXPECT_GE(max_incoming_degree(lyt::clocking_kind::res, lyt::layout_topology::cartesian), 3);
    EXPECT_LE(max_incoming_degree(lyt::clocking_kind::use, lyt::layout_topology::cartesian), 2);
}

// ------------------------------------------------------------ golden corpus
//
// Content hashes of io::write_fgl_string over exact's layouts ("none" when
// it finds no layout), captured at one thread before the search gained its
// forward-checking prune, its parity skip of path lengths and its arena
// path buffers. Only calls that took under 0.3 s in a Release build are
// pinned, and the test gives them 120 s, so no entry depends on the budget.
// The prune and the skip drop only work that cannot yield a solution, so
// every aspect ratio's first solution, and with it every byte, stays.

namespace
{

using lyt::clocking_kind;

struct golden_function
{
    ntk::logic_network (*build)();  ///< a Trindade16 function
    clocking_kind scheme;
    const char* hash;
};

constexpr golden_function golden_trindade16[] = {
    {&bm::mux21, clocking_kind::twoddwave, "28f9a8e094a4550f1fef9f0a62f6e90f"},
    {&bm::mux21, clocking_kind::use, "d0ec042572cfdc2d3c22f3398b24f715"},
    {&bm::mux21, clocking_kind::res, "9c7275d96dab4b69e37083d7eb4c62f1"},
    {&bm::mux21, clocking_kind::row, "beed66f3afd2c2421f51523653f9aa97"},
    {&bm::xor2, clocking_kind::twoddwave, "532d8774f47fe4cb7684b6f3b9820cea"},
    {&bm::xor2, clocking_kind::use, "7a0d2e677f91204d0c21b9b571eb0179"},
    {&bm::xor2, clocking_kind::res, "d70062c366a00b83d2928a9f07ce5558"},
    {&bm::xor2, clocking_kind::row, "b56e76d30c7281525cd217d532ec4e37"},
    {&bm::xnor2, clocking_kind::twoddwave, "07b06b9ce255bbe78b0aec9461ffb404"},
    {&bm::xnor2, clocking_kind::res, "917951d6445a373798e8f0c8a89e3e38"},
    {&bm::xnor2, clocking_kind::row, "37d67f5a71fd86f745ed387ba58e81bb"},
    {&bm::half_adder, clocking_kind::twoddwave, "e967add64c8c2bdb69eb6f7a9c2eda63"},
    {&bm::half_adder, clocking_kind::use, "77886469c0a247992575291169cdea3d"},
    {&bm::half_adder, clocking_kind::res, "2a76956ad4d3db384f5acb873cf6b98d"},
    {&bm::half_adder, clocking_kind::esr, "f2a54b349cf09c7e5ba59d00ad99c865"},
    {&bm::half_adder, clocking_kind::row, "c77ea72dd92c2c776afac85ce48ace6d"},
    {&bm::parity_generator, clocking_kind::twoddwave, "2c9b584876649ff058c41d77a04c71a5"},
    {&bm::parity_generator, clocking_kind::use, "67ec63f489433035c643284b432301b8"},
    {&bm::parity_generator, clocking_kind::res, "337ee53e1d00049e4445edcf441c67e6"},
    {&bm::parity_generator, clocking_kind::esr, "f9d48e8e694110346542ecd849ecd220"},
    {&bm::parity_generator, clocking_kind::row, "26c03070e8bcdc4e9da655fdf1a01bec"},
    {&bm::parity_checker, clocking_kind::twoddwave, "98a7df7e16ea71fdebfeb571a0cc8960"},
    {&bm::parity_checker, clocking_kind::use, "5f17230fb49799e10e67d22a522c494c"},
    {&bm::parity_checker, clocking_kind::res, "79281c5b7e5406b0484fef7797d7fd5a"},
    {&bm::parity_checker, clocking_kind::row, "0909f715154fc5e875d58a224b8fd300"},
};

struct golden_random
{
    std::size_t pis;
    std::size_t gates;
    std::size_t pos;
    std::uint64_t seed;  ///< arguments of test::random_network
    clocking_kind scheme;
    const char* hash;
};

constexpr golden_random golden_random_networks[] = {
    {3, 4, 2, 1, clocking_kind::twoddwave, "7b8d14e3d5b6b11bad8167190200b72c"},
    {3, 4, 2, 1, clocking_kind::res, "52e2c3b95c69c884278b6cad8f61ece4"},
    {3, 4, 2, 1, clocking_kind::esr, "200e1d705b0928799a1db17706fab484"},
    {3, 4, 2, 1, clocking_kind::row, "47f05f0d6a5fba641723d025a76960cd"},
    {4, 5, 1, 2, clocking_kind::twoddwave, "e9460dbb872a2c38759537d86c937e8c"},
    {4, 5, 1, 2, clocking_kind::use, "f04b2e9f0cba865950a32411e26ee8ed"},
    {4, 5, 1, 2, clocking_kind::res, "56b73e4e817c5694043f8a97cd6555db"},
    {4, 5, 1, 2, clocking_kind::esr, "3cd36123955dbe22a305472cbfd7d2a6"},
    {4, 5, 1, 2, clocking_kind::row, "d3bfb26496190c95908ffbc5ff386171"},
    {2, 6, 2, 3, clocking_kind::twoddwave, "6b898f850988949235298aaf14ce9352"},
    {2, 6, 2, 3, clocking_kind::use, "0250e3dd045e8adf50628062ba1a809d"},
    {2, 6, 2, 3, clocking_kind::res, "373f55d9054104aa5829542685e39aa6"},
    {2, 6, 2, 3, clocking_kind::esr, "8f6da9c933e7db6a756d2929195db852"},
    {2, 6, 2, 3, clocking_kind::row, "fa2dc019f08bfd5c57f78bbbb9c1d498"},
    {3, 3, 1, 4, clocking_kind::twoddwave, "bab58efe473948e9f2841c50591a03a2"},
    {3, 3, 1, 4, clocking_kind::use, "294130a033441bcedddf5ee0e68cd256"},
    {3, 3, 1, 4, clocking_kind::res, "7904e8fd2e7a24e17d6d33dfc6fd19df"},
    {3, 3, 1, 4, clocking_kind::esr, "f9f8091cc5158d0f133a6362a213ec55"},
    {3, 3, 1, 4, clocking_kind::row, "5ae8168bb772cffdf55b5bdf9b76d199"},
    {4, 4, 2, 5, clocking_kind::twoddwave, "9790eb40ed5030a8afc6e1192ec1e642"},
    {4, 4, 2, 5, clocking_kind::use, "aee572cdfaf7a4ee8e53b155fd1d9f3b"},
    {4, 4, 2, 5, clocking_kind::res, "ab1e7166983280252db2c31eda4fbc27"},
    {4, 4, 2, 5, clocking_kind::row, "bcb48cc8961f7fceb24a9c0b521bf845"},
    {2, 5, 1, 6, clocking_kind::twoddwave, "2d21f01b77143bb99d9496bb73caecab"},
    {2, 5, 1, 6, clocking_kind::use, "8affbc191f1eb04e894fc575c2231d7b"},
    {2, 5, 1, 6, clocking_kind::res, "d94efda91096fc1ff4b7f6e1bdf9197c"},
    {2, 5, 1, 6, clocking_kind::esr, "6625309097316a4f1bf151ceabbad42c"},
    {2, 5, 1, 6, clocking_kind::row, "2878f48e04156b64f35b377cab5c4043"},
    {3, 6, 2, 7, clocking_kind::twoddwave, "3447d6ca8b24204a22d7bb993ae31683"},
    {3, 6, 2, 7, clocking_kind::use, "43d39a6e9f5485b2c41cafef5b8b84ae"},
    {3, 6, 2, 7, clocking_kind::res, "35ecddb419ceede820e18c3d7cf8699c"},
    {3, 6, 2, 7, clocking_kind::esr, "bb09abf07f9da24df66c91a0be5916e0"},
    {3, 6, 2, 7, clocking_kind::row, "4b6213d70a183ad4255c6c0c69b3f9c9"},
    {3, 3, 1, 16, clocking_kind::twoddwave, "318371c519d8fa23019740f020a65829"},
    {3, 3, 1, 16, clocking_kind::use, "ce42314bc087aac618ec1b5d9634930d"},
    {3, 3, 1, 16, clocking_kind::res, "e4197a80177f6f52418c20a872be27c4"},
    {3, 3, 1, 16, clocking_kind::esr, "3c8bd9fe19f68ad263685388c73b9af7"},
    {3, 3, 1, 16, clocking_kind::row, "95767a4dc77018824e96740fff54dbca"},
    {2, 5, 1, 18, clocking_kind::twoddwave, "4041b0e4007e27a53bdf86e4f75f8569"},
    {2, 5, 1, 18, clocking_kind::use, "1b1978bbdef2af46861538e08f4492ea"},
    {2, 5, 1, 18, clocking_kind::res, "1ee26c3988cead29d474bf2b7551bc6c"},
    {2, 5, 1, 18, clocking_kind::esr, "b4bcd880f9f91a1e2c54058ea2eef1f4"},
    {2, 5, 1, 18, clocking_kind::row, "f2c954b44e75ba45f943276e28a33f5c"},
    {2, 4, 2, 21, clocking_kind::twoddwave, "75bc097f81f766472add3c5a9914540d"},
    {2, 4, 2, 21, clocking_kind::use, "dd084c96233adb8c5a669b7895d16f5b"},
    {2, 4, 2, 21, clocking_kind::esr, "4b7455a4c6c503804380f27a83a3218f"},
    {2, 4, 2, 21, clocking_kind::row, "bd48d39198cb134b86f987d314d0cfad"},
    {3, 5, 1, 22, clocking_kind::twoddwave, "00d37e6d1774e3f9d83bc1eb2392422d"},
    {3, 5, 1, 22, clocking_kind::use, "1592eefe020b4967bd2ade7623dfd1f1"},
    {3, 5, 1, 22, clocking_kind::res, "9d92e3937149f4a73e153ee56a155e4c"},
    {3, 5, 1, 22, clocking_kind::esr, "44fc610ccf2c94fbe4af131d0941aa70"},
    {3, 5, 1, 22, clocking_kind::row, "ec97e9a8479e1d606af4f21df089c26b"},
    {2, 3, 1, 24, clocking_kind::twoddwave, "1e7519624c5122c37f6833364dd59308"},
    {2, 3, 1, 24, clocking_kind::use, "f37b670d502d4a381c6fc90553c8ee66"},
    {2, 3, 1, 24, clocking_kind::res, "b59637985fd5a7bbeb0108108ef48e2c"},
    {2, 3, 1, 24, clocking_kind::esr, "4da64b172e149a9cfe019fa9ca0c3a2a"},
    {2, 3, 1, 24, clocking_kind::row, "7c7bda24a79fce17557c4461c726828f"},
    {4, 5, 1, 26, clocking_kind::twoddwave, "27e0bce8caac48948c837b5d72ddbb9c"},
    {4, 5, 1, 26, clocking_kind::use, "5f06d315ec816b6889ce1c7f9b11e7c2"},
    {4, 5, 1, 26, clocking_kind::res, "c554084d53bc9e828fb5cbf20d741faf"},
    {4, 5, 1, 26, clocking_kind::esr, "dc37912a61fb8aa400b8971d1fd5fd7b"},
    {4, 5, 1, 26, clocking_kind::row, "a29007343c38b1c7e510e4481ff8df79"},
    {3, 3, 1, 28, clocking_kind::twoddwave, "345f4c1003fa66969d83961c6aa2ad83"},
    {3, 3, 1, 28, clocking_kind::use, "c718582a0666af09c62bb594fe00be5d"},
    {3, 3, 1, 28, clocking_kind::res, "c7aed3212ac132c0969fa403753625bb"},
    {3, 3, 1, 28, clocking_kind::esr, "cdce6bc8249c5e07f4d85f862fbc9d3f"},
    {3, 3, 1, 28, clocking_kind::row, "f72a9f978d22aea96cfbdaa20b7e260c"},
    {4, 4, 2, 29, clocking_kind::twoddwave, "0d0971d0e3765e7bcabd6a6f472ad241"},
    {4, 4, 2, 29, clocking_kind::use, "c3589b6102718805f5dfadd6a00a5912"},
    {4, 4, 2, 29, clocking_kind::res, "91777fc69c6d21e8af247a9413c1ee50"},
    {4, 4, 2, 29, clocking_kind::esr, "62f7f68b144a8bb9986cc8f8ef86edd8"},
    {4, 4, 2, 29, clocking_kind::row, "66ea36930935ad82d2f391339fb33f9f"},
    {2, 5, 1, 30, clocking_kind::twoddwave, "1375e9bfd7e875472ae0ba561f5c56b2"},
    {2, 5, 1, 30, clocking_kind::use, "630130c484f15da156061a119af775b0"},
    {2, 5, 1, 30, clocking_kind::res, "3ba84fbf68a37b572c053bbebdbd81a9"},
    {2, 5, 1, 30, clocking_kind::esr, "004c23c7ed02a6e5569fac71101ddba4"},
    {2, 5, 1, 30, clocking_kind::row, "e4289e66bcc7b7f9a6fd6d619477a928"},
    {4, 3, 1, 32, clocking_kind::twoddwave, "2360a6d1e5f6ab8cc3c7ad4b5f1e9765"},
    {4, 3, 1, 32, clocking_kind::use, "6f31ed931f1bddd5dafc888a08239760"},
    {4, 3, 1, 32, clocking_kind::res, "98ef198bdf49f7e80b84c659f12c9fbb"},
    {4, 3, 1, 32, clocking_kind::esr, "932a90579c04fa2e62edc99563447854"},
    {4, 3, 1, 32, clocking_kind::row, "9b827fc3d16e6e670cb643d80f64f606"},
    {4, 6, 2, 35, clocking_kind::twoddwave, "9476549238fbba5fda7c676719b74ffc"},
    {4, 6, 2, 35, clocking_kind::use, "ab47d9d3c1d999e8531de39764725170"},
    {4, 6, 2, 35, clocking_kind::res, "db530a658be7a2fdc56b48facb333eb5"},
    {4, 6, 2, 35, clocking_kind::esr, "6d574022e0b86268b11d8565227c8680"},
    {4, 6, 2, 35, clocking_kind::row, "c2f7140a11a9a4757c469af56e52d866"},
    {3, 4, 2, 37, clocking_kind::twoddwave, "90f72bc881c42d196c5b2bc51806c2b8"},
    {3, 4, 2, 37, clocking_kind::use, "6e038dd1cb3aedd8fd9e7cfde5754c03"},
    {3, 4, 2, 37, clocking_kind::res, "bf92f9cd75447ff838c956b4bd4330c4"},
    {3, 4, 2, 37, clocking_kind::esr, "494713f8eec081f7c67688a3c382f074"},
    {3, 4, 2, 37, clocking_kind::row, "e1b22a2a7e39f81f7852516365d7f3f6"},
    {3, 3, 1, 40, clocking_kind::twoddwave, "3caf2f0f360ee62e766f28ffcc1361a7"},
    {3, 3, 1, 40, clocking_kind::use, "adb59bcff2ccdd2f6a74f0461e644673"},
    {3, 3, 1, 40, clocking_kind::res, "852c70e17735df2bdc2eacfc178bf6a8"},
    {3, 3, 1, 40, clocking_kind::esr, "d9b9de3496243a1216ed8ba485a9ec86"},
    {3, 3, 1, 40, clocking_kind::row, "db3ba1d3124547c18a391683906e91ce"},
};

/// Table I's exact budget (pd::portfolio_params::exact_max_area), with the
/// wall clock out of the way; ROW runs on the hexagonal grid of Bestagon.
exact_params golden_params(const clocking_kind scheme)
{
    exact_params params{};
    params.topology =
        scheme == clocking_kind::row ? lyt::layout_topology::hexagonal_even_row : lyt::layout_topology::cartesian;
    params.scheme = scheme;
    params.max_area = 60;
    params.timeout_s = 120.0;
    return params;
}

std::string exact_hash(const ntk::logic_network& network, const clocking_kind scheme, exact_stats& stats)
{
    const auto layout = exact(network, golden_params(scheme), &stats);
    return layout.has_value() ? svc::content_hash(io::write_fgl_string(*layout)) : "none";
}

/// One compute thread: node counts are per-search, not summed over a race.
class ExactGoldenTest : public ::testing::Test
{
protected:
    void SetUp() override
    {
        trt::set_thread_count(1);
    }

    void TearDown() override
    {
        trt::set_thread_count(0);
    }
};

}  // namespace

TEST_F(ExactGoldenTest, LayoutsByteIdenticalToPinnedCorpus)
{
    for (const auto& row : golden_trindade16)
    {
        const auto network = row.build();
        exact_stats stats{};
        EXPECT_EQ(exact_hash(network, row.scheme, stats), row.hash)
            << network.network_name() << " on " << lyt::clocking_name(row.scheme);
        EXPECT_FALSE(stats.timed_out) << network.network_name();
    }
    for (const auto& row : golden_random_networks)
    {
        exact_stats stats{};
        EXPECT_EQ(exact_hash(random_network(row.pis, row.gates, row.pos, row.seed), row.scheme, stats), row.hash)
            << "random_network(" << row.pis << ", " << row.gates << ", " << row.pos << ", " << row.seed << ") on "
            << lyt::clocking_name(row.scheme);
        EXPECT_FALSE(stats.timed_out) << "seed " << row.seed;
    }
}

TEST_F(ExactGoldenTest, ParityCheckOnEsrSkipsDeadSubtrees)
{
    // the slowest exact call of Table I's curated rows; before the prune its
    // search expanded 107,817 nodes for the same layout
    exact_stats stats{};
    EXPECT_EQ(exact_hash(bm::parity_checker(), clocking_kind::esr, stats),
              "7f5f4c97114d5a810097ff798bdde3a4");
    EXPECT_FALSE(stats.timed_out);
    EXPECT_LT(stats.search_nodes, 107817u);
}
