/// \file test_integration.cpp
/// \brief Cross-module integration and property tests: complete pipelines
///        from Verilog text to re-read .fgl layouts, chained optimizations,
///        and randomized end-to-end sweeps — the flows a downstream MNT
///        Bench user runs.

#include "benchmarks/functions.hpp"
#include "benchmarks/suites.hpp"
#include "io/fgl_reader.hpp"
#include "io/fgl_writer.hpp"
#include "io/verilog_reader.hpp"
#include "io/verilog_writer.hpp"
#include "layout/layout_utils.hpp"
#include "network/transforms.hpp"
#include "physical_design/hexagonalization.hpp"
#include "physical_design/input_ordering.hpp"
#include "physical_design/ortho.hpp"
#include "physical_design/post_layout_optimization.hpp"
#include "test_networks.hpp"
#include "verification/drc.hpp"
#include "verification/equivalence.hpp"
#include "verification/wave_simulation.hpp"

#include <gtest/gtest.h>

#include <cctype>
#include <string>
#include <tuple>

using namespace mnt;
using namespace mnt::test;

TEST(IntegrationTest, VerilogToFglRoundTrip)
{
    // the full QCA ONE flow: Verilog -> network -> AOI -> ortho -> PLO ->
    // .fgl -> reread
    const auto network = io::read_verilog_string(R"(
        module demo(a, b, c, y0, y1);
          input a, b, c;
          output y0, y1;
          wire w;
          assign w = (a & b) | (~a & c);
          assign y0 = w & c;
          assign y1 = ~w;
        endmodule
    )");

    const auto aoi = ntk::to_aoi(network);
    const auto layout = pd::post_layout_optimization(pd::ortho(aoi));
    ASSERT_TRUE(ver::check_layout_equivalence(network, layout));
    ASSERT_TRUE(ver::gate_level_drc(layout).passed());

    const auto reread = io::read_fgl_string(io::write_fgl_string(layout));
    ASSERT_TRUE(ver::check_layout_equivalence(network, reread));
}

TEST(IntegrationTest, OrthoHexPloFlow)
{
    // the full Bestagon flow: network -> ortho -> 45° -> PLO (hex)
    const auto network = bm::full_adder();
    const auto hex = pd::post_layout_optimization(pd::hexagonalization(pd::ortho(network)));
    ASSERT_TRUE(ver::check_layout_equivalence(network, hex));
    ASSERT_TRUE(ver::gate_level_drc(hex).passed());
}

TEST(IntegrationTest, OptimizationChainMonotonicity)
{
    // every optimization stage must preserve function and never grow area
    const auto network = random_network(5, 35, 3, 77);
    const auto base = pd::ortho(network);
    const auto inord = pd::input_ordering_ortho(network);
    const auto plo = pd::post_layout_optimization(inord);

    EXPECT_LE(inord.area(), base.area());
    EXPECT_LE(plo.area(), inord.area());
    for (const auto* layout : {&base, &inord, &plo})
    {
        EXPECT_TRUE(ver::check_layout_equivalence(network, *layout));
    }
}

TEST(IntegrationTest, HexPipelinePreservesEverySuiteFunction)
{
    // the complete Bestagon pipeline over all small benchmark functions
    for (const auto& entry : bm::trindade16())
    {
        const auto network = entry.build();
        const auto hex = pd::hexagonalization(pd::ortho(network));
        ASSERT_TRUE(ver::gate_level_drc(hex).passed()) << entry.name;
        EXPECT_TRUE(ver::check_layout_equivalence(network, hex)) << entry.name;
    }
}

TEST(IntegrationTest, SuiteVerilogRoundTrip)
{
    // every Fontes18 function survives Verilog serialization
    for (const auto& entry : bm::fontes18())
    {
        const auto network = entry.build();
        for (const auto style : {io::verilog_style::assignments, io::verilog_style::primitives})
        {
            const auto reread = io::read_verilog_string(io::write_verilog_string(network, style));
            EXPECT_TRUE(ver::check_equivalence(network, reread))
                << entry.name << " style " << static_cast<int>(style);
        }
    }
}

// property sweep: random pipelines end-to-end
class PipelineProperty : public ::testing::TestWithParam<std::tuple<std::size_t, std::uint64_t>>
{};

TEST_P(PipelineProperty, OrthoPloFglHexAllEquivalent)
{
    const auto [gates, seed] = GetParam();
    const auto network = random_network(6, gates, 4, seed);

    const auto layout = pd::ortho(network);
    const auto optimized = pd::post_layout_optimization(layout);
    EXPECT_LE(optimized.area(), layout.area());

    const auto reread = io::read_fgl_string(io::write_fgl_string(optimized));
    EXPECT_TRUE(ver::check_layout_equivalence(network, reread));

    const auto hex = pd::hexagonalization(layout);
    EXPECT_TRUE(ver::check_layout_equivalence(network, hex));
    const auto hex_reread = io::read_fgl_string(io::write_fgl_string(hex));
    EXPECT_TRUE(ver::check_layout_equivalence(network, hex_reread));
}

INSTANTIATE_TEST_SUITE_P(Sweep, PipelineProperty,
                         ::testing::Combine(::testing::Values(10, 30, 60), ::testing::Values(101u, 202u)),
                         [](const auto& info)
                         {
                             return "g" + std::to_string(std::get<0>(info.param)) + "_s" +
                                    std::to_string(std::get<1>(info.param));
                         });

// suite-wide property: every small benchmark function survives both library
// pipelines end to end (QCA ONE Cartesian and Bestagon hexagonal)
class SuitePipelineProperty : public ::testing::TestWithParam<int>
{};

TEST_P(SuitePipelineProperty, BothLibraryFlows)
{
    auto entries = bm::trindade16();
    const auto fontes = bm::fontes18();
    entries.insert(entries.end(), fontes.begin(), fontes.end());
    const auto& e = entries[static_cast<std::size_t>(GetParam())];
    const auto network = e.build();

    // QCA ONE flow
    const auto cart = pd::post_layout_optimization(pd::ortho(network));
    ASSERT_TRUE(ver::gate_level_drc(cart).passed()) << e.name;
    EXPECT_TRUE(ver::check_layout_equivalence(network, cart)) << e.name;
    EXPECT_TRUE(ver::check_wave_equivalence(network, cart)) << e.name;

    // Bestagon flow
    const auto hex = pd::hexagonalization(pd::ortho(network));
    ASSERT_TRUE(ver::gate_level_drc(hex).passed()) << e.name;
    EXPECT_TRUE(ver::check_layout_equivalence(network, hex)) << e.name;

    // file format round trips
    const auto fgl = io::read_fgl_string(io::write_fgl_string(hex));
    EXPECT_TRUE(ver::check_layout_equivalence(network, fgl)) << e.name;
    const auto verilog = io::read_verilog_string(io::write_verilog_string(network));
    EXPECT_TRUE(ver::check_equivalence(network, verilog)) << e.name;
}

INSTANTIATE_TEST_SUITE_P(AllSmallBenchmarks, SuitePipelineProperty, ::testing::Range(0, 18),
                         [](const auto& info)
                         {
                             auto entries = bm::trindade16();
                             const auto fontes = bm::fontes18();
                             entries.insert(entries.end(), fontes.begin(), fontes.end());
                             auto name = entries[static_cast<std::size_t>(info.param)].name;
                             for (auto& c : name)
                             {
                                 if (!std::isalnum(static_cast<unsigned char>(c)))
                                 {
                                     c = '_';
                                 }
                             }
                             return name;
                         });
