#include "verification/wave_simulation.hpp"

#include "common/types.hpp"
#include "layout/layout_utils.hpp"
#include "physical_design/hexagonalization.hpp"
#include "physical_design/nanoplacer.hpp"
#include "physical_design/ortho.hpp"
#include "test_networks.hpp"

#include <gtest/gtest.h>

using namespace mnt;
using namespace mnt::ver;
using namespace mnt::test;
using mnt::ntk::gate_type;

namespace
{

/// pi(a)=(1,0), pi(b)=(0,1) -> and=(1,1) -> po=(2,1) on 2DDWave.
lyt::gate_level_layout and_layout()
{
    lyt::gate_level_layout layout{"and", lyt::layout_topology::cartesian, lyt::clocking_scheme::twoddwave(), 4, 3};
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

TEST(WaveSimulationTest, AndGateSteadyState)
{
    const auto layout = and_layout();
    // pi order: a then b (creation order)
    const auto result = wave_simulate(layout, {0b1100ull, 0b1010ull});
    ASSERT_TRUE(result.stabilized);
    ASSERT_EQ(result.po_words.size(), 1u);
    EXPECT_EQ(result.po_words[0] & 0xfull, 0b1000ull);
    EXPECT_EQ(result.po_names[0], "y");
    EXPECT_GT(result.settle_ticks, 0u);
}

TEST(WaveSimulationTest, InputCountChecked)
{
    const auto layout = and_layout();
    EXPECT_THROW(static_cast<void>(wave_simulate(layout, {0ull})), precondition_error);
}

TEST(WaveSimulationTest, SettleLatencyTracksDepth)
{
    // a longer wire chain needs more ticks to settle
    lyt::gate_level_layout shallow{"s", lyt::layout_topology::cartesian, lyt::clocking_scheme::twoddwave(), 8, 2};
    shallow.place({0, 0}, gate_type::pi, "a");
    shallow.place({1, 0}, gate_type::po, "y");
    shallow.connect({0, 0}, {1, 0});

    lyt::gate_level_layout deep{"d", lyt::layout_topology::cartesian, lyt::clocking_scheme::twoddwave(), 8, 2};
    deep.place({0, 0}, gate_type::pi, "a");
    deep.place({7, 0}, gate_type::po, "y");
    for (int x = 1; x < 7; ++x)
    {
        deep.place({x, 0}, gate_type::buf);
    }
    for (int x = 0; x < 7; ++x)
    {
        deep.connect({x, 0}, {x + 1, 0});
    }

    const auto fast = wave_simulate(shallow, {0xffull});
    const auto slow = wave_simulate(deep, {0xffull});
    ASSERT_TRUE(fast.stabilized);
    ASSERT_TRUE(slow.stabilized);
    EXPECT_EQ(fast.po_words[0], 0xffull);
    EXPECT_EQ(slow.po_words[0], 0xffull);
    EXPECT_GT(slow.settle_ticks, fast.settle_ticks);
}

TEST(WaveSimulationTest, BackwardConnectionTakesAFullExtraCycle)
{
    // a backwards (westward) connection under 2DDWave is a DAG, so with
    // inputs held constant it still settles to the right value — but the
    // transfer needs (almost) a full extra clock cycle instead of one phase,
    // which is exactly the physical penalty of the illegal direction
    lyt::gate_level_layout backward{"bad", lyt::layout_topology::cartesian, lyt::clocking_scheme::twoddwave(), 4,
                                    2};
    backward.place({2, 0}, gate_type::pi, "a");
    backward.place({1, 0}, gate_type::po, "y");
    backward.connect({2, 0}, {1, 0});  // zone 2 -> zone 1: illegal direction

    lyt::gate_level_layout forward{"good", lyt::layout_topology::cartesian, lyt::clocking_scheme::twoddwave(), 4,
                                   2};
    forward.place({1, 0}, gate_type::pi, "a");
    forward.place({2, 0}, gate_type::po, "y");
    forward.connect({1, 0}, {2, 0});  // zone 1 -> zone 2: legal

    const auto slow = wave_simulate(backward, {0xaaull});
    const auto fast = wave_simulate(forward, {0xaaull});
    ASSERT_TRUE(slow.stabilized);
    ASSERT_TRUE(fast.stabilized);
    EXPECT_EQ(slow.po_words[0], 0xaaull);
    EXPECT_EQ(fast.po_words[0], 0xaaull);
    EXPECT_GT(slow.settle_ticks, fast.settle_ticks);
}

TEST(WaveSimulationTest, CyclicLayoutDoesNotStabilize)
{
    // ring oscillator: inverter loop through OPEN-clocked tiles
    auto scheme = lyt::clocking_scheme::open();
    lyt::gate_level_layout layout{"osc", lyt::layout_topology::cartesian, std::move(scheme), 3, 3};
    layout.assign_clock({0, 0}, 0);
    layout.assign_clock({1, 0}, 1);
    layout.assign_clock({1, 1}, 2);
    layout.assign_clock({0, 1}, 3);
    layout.place({0, 0}, gate_type::inv);
    layout.place({1, 0}, gate_type::buf);
    layout.place({1, 1}, gate_type::buf);
    layout.place({0, 1}, gate_type::buf);
    layout.connect({0, 0}, {1, 0});
    layout.connect({1, 0}, {1, 1});
    layout.connect({1, 1}, {0, 1});
    layout.connect({0, 1}, {0, 0});

    wave_options options{};
    options.max_ticks = 256;
    const auto result = wave_simulate(layout, {}, options);
    EXPECT_FALSE(result.stabilized);
}

TEST(WaveSimulationTest, WaveEquivalenceOnOrthoLayouts)
{
    for (const auto& network : {mux21(), half_adder(), full_adder()})
    {
        const auto layout = pd::ortho(network);
        const auto result = check_wave_equivalence(network, layout);
        EXPECT_TRUE(result.equivalent) << network.network_name() << ": " << result.reason;
    }
}

TEST(WaveSimulationTest, WaveEquivalenceOnHexLayouts)
{
    const auto network = full_adder();
    const auto hex = pd::hexagonalization(pd::ortho(network));
    const auto result = check_wave_equivalence(network, hex);
    EXPECT_TRUE(result.equivalent) << result.reason;
}

TEST(WaveSimulationTest, WaveEquivalenceOnSnakingSchemes)
{
    const auto network = half_adder();
    pd::nanoplacer_params params{};
    params.scheme = lyt::clocking_kind::use;
    params.iterations = 200;
    const auto layout = pd::nanoplacer(network, params);
    ASSERT_TRUE(layout.has_value());
    const auto result = check_wave_equivalence(network, *layout);
    EXPECT_TRUE(result.equivalent) << result.reason;
}

TEST(WaveSimulationTest, WaveEquivalenceDetectsWrongFunction)
{
    const auto layout = and_layout();
    ntk::logic_network wrong{"or"};
    wrong.create_po(wrong.create_or(wrong.create_pi("a"), wrong.create_pi("b")), "y");
    const auto result = check_wave_equivalence(wrong, layout);
    EXPECT_FALSE(result.equivalent);
    EXPECT_NE(result.reason.find("'y'"), std::string::npos);
}

TEST(WaveSimulationTest, RandomSweepMatchesExtraction)
{
    for (const std::uint64_t seed : {301u, 302u})
    {
        const auto network = random_network(5, 25, 3, seed);
        const auto layout = pd::ortho(network);
        const auto result = check_wave_equivalence(network, layout);
        EXPECT_TRUE(result.equivalent) << "seed " << seed << ": " << result.reason;
    }
}

TEST(StreamSimulationTest, SettleRateStreamsMatchOnOrthoLayouts)
{
    for (const auto& network : {mux21(), half_adder()})
    {
        const auto layout = pd::ortho(network);
        const auto result = check_stream_equivalence(network, layout);
        EXPECT_TRUE(result.equivalent) << network.network_name() << ": " << result.reason;
    }
}

TEST(StreamSimulationTest, FullRateOnBalancedWire)
{
    // a straight 4-tile wire is trivially path-balanced: it must transport a
    // full-rate stream with latency = depth cycles
    lyt::gate_level_layout layout{"wire", lyt::layout_topology::cartesian, lyt::clocking_scheme::twoddwave(), 6, 1};
    layout.place({0, 0}, gate_type::pi, "a");
    for (int x = 1; x < 5; ++x)
    {
        layout.place({x, 0}, gate_type::buf);
    }
    layout.place({5, 0}, gate_type::po, "y");
    for (int x = 0; x < 5; ++x)
    {
        layout.connect({x, 0}, {x + 1, 0});
    }

    std::vector<std::vector<std::uint64_t>> frames;
    std::vector<std::vector<std::uint64_t>> expected(1);
    for (std::uint64_t f = 1; f <= 10; ++f)
    {
        frames.push_back({f * 0x1111ull});
        expected[0].push_back(f * 0x1111ull);
    }

    stream_options options{};
    options.cycles_per_frame = 1;  // full rate
    const auto result = wave_stream_simulate(layout, frames, expected, options);
    ASSERT_TRUE(result.aligned);
    // 6 tiles, one zone step each: latency of at least one full cycle
    EXPECT_GE(result.latency_cycles[0], 1u);
    EXPECT_EQ(result.po_frames[0], expected[0]);
}

TEST(StreamSimulationTest, FullRateFailsOnUnbalancedInputPaths)
{
    // Under 2DDWave every monotone path between two tiles has the same
    // delay, so skew arises between *inputs at different distances*: here
    // input a reaches the AND in 1 tick but input b needs 5 ticks (a full
    // clock cycle more). At full rate the AND combines input a of frame f
    // with input b of frame f-1 — the physical reason FCN designs need
    // delay-balancing signal distribution networks (the InOrd paper).
    lyt::gate_level_layout layout{"skew", lyt::layout_topology::cartesian, lyt::clocking_scheme::twoddwave(), 7, 2};
    layout.place({5, 0}, gate_type::pi, "a");
    layout.place({0, 1}, gate_type::pi, "b");
    for (int x = 1; x <= 4; ++x)
    {
        layout.place({x, 1}, gate_type::buf);
    }
    for (int x = 0; x <= 3; ++x)
    {
        layout.connect({x, 1}, {x + 1, 1});
    }
    layout.place({5, 1}, gate_type::and2);
    layout.connect({5, 0}, {5, 1});
    layout.connect({4, 1}, {5, 1});
    layout.place({6, 1}, gate_type::po, "y");
    layout.connect({5, 1}, {6, 1});

    std::vector<std::vector<std::uint64_t>> frames;
    std::vector<std::vector<std::uint64_t>> expected(1);
    std::mt19937_64 rng{5};
    for (int f = 0; f < 12; ++f)
    {
        const auto a = rng();
        const auto b = rng();
        frames.push_back({a, b});
        expected[0].push_back(a & b);
    }

    stream_options slow{};
    const auto settled = wave_stream_simulate(layout, frames, expected, slow);
    stream_options fast{};
    fast.cycles_per_frame = 1;
    const auto streamed = wave_stream_simulate(layout, frames, expected, fast);
    // settled: every frame matches; full rate: skewed frames mix
    EXPECT_TRUE(settled.aligned);
    EXPECT_FALSE(streamed.aligned);
}

TEST(StreamSimulationTest, InputValidation)
{
    const auto layout = and_layout();
    EXPECT_THROW(static_cast<void>(wave_stream_simulate(layout, {}, {{0ull}})), precondition_error);
    EXPECT_THROW(static_cast<void>(wave_stream_simulate(layout, {{1ull}}, {{0ull}})), precondition_error);
    EXPECT_THROW(static_cast<void>(wave_stream_simulate(layout, {{1ull, 2ull}}, {})), precondition_error);
}
