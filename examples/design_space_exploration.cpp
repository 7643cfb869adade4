/// \file design_space_exploration.cpp
/// \brief Runs the full MNT Bench tool portfolio (exact, NanoPlaceR
///        substitute, ortho with InOrd/PLO/45°) on one function across both
///        gate libraries and all clocking schemes — the workload the paper's
///        website automates per benchmark, shown here end to end. The
///        output demonstrates the paper's core message: the best tool
///        combination differs per function and beats any fixed flow.

#include "benchmarks/functions.hpp"
#include "physical_design/portfolio.hpp"
#include "verification/equivalence.hpp"

#include <cstdio>

int main()
{
    using namespace mnt;

    const auto network = bm::one_bit_adder_maj();
    std::printf("design space of '%s' (%zu inputs, %zu outputs, %zu gates)\n\n", network.network_name().c_str(),
                network.num_pis(), network.num_pos(), network.num_gates());

    pd::portfolio_params params{};
    params.verify = true;  // every layout is checked against the network
    params.exact_timeout_s = 3.0;

    std::printf("%-10s %-30s %-8s %14s %8s\n", "Library", "Flow", "Clk.", "w x h = A", "t [s]");
    std::printf("-------------------------------------------------------------------------------\n");

    const auto report = [](const char* library, const std::vector<pd::layout_result>& results)
    {
        for (const auto& r : results)
        {
            const auto dims = std::to_string(r.layout.width()) + " x " + std::to_string(r.layout.height()) +
                              " = " + std::to_string(r.layout.area());
            std::printf("%-10s %-30s %-8s %14s %8.2f\n", library, r.label().c_str(), r.clocking.c_str(),
                        dims.c_str(), r.runtime);
        }
        if (const auto* best = pd::best_by_area(results); best != nullptr)
        {
            std::printf("%-10s BEST: %s on %s with %lu tiles\n\n", library, best->label().c_str(),
                        best->clocking.c_str(), static_cast<unsigned long>(best->layout.area()));
        }
    };

    const auto cartesian = pd::run_cartesian_portfolio(network, params);
    report("QCA ONE", cartesian);

    const auto hexagonal = pd::run_hexagonal_portfolio(network, params);
    report("Bestagon", hexagonal);

    return 0;
}
