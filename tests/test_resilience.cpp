#include "common/resilience.hpp"

#include "core/best_selection.hpp"
#include "core/catalog.hpp"
#include "physical_design/portfolio.hpp"
#include "telemetry/report.hpp"
#include "telemetry/telemetry.hpp"
#include "test_networks.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

using namespace mnt;
using namespace mnt::res;
using namespace mnt::test;

namespace
{

/// The fault plan is process-global: every test starts and ends disarmed.
class ResilienceTest : public ::testing::Test
{
protected:
    void SetUp() override
    {
        fault::configure("");
    }

    void TearDown() override
    {
        fault::configure("");
    }
};

guard_params no_retry()
{
    guard_params params{};
    params.retry.max_attempts = 1;
    return params;
}

pd::portfolio_params fast_params()
{
    pd::portfolio_params params{};
    params.exact_timeout_s = 2.0;
    params.nanoplacer_iterations = 200;
    params.input_orderings = 3;
    params.verify = true;
    return params;
}

}  // namespace

// ----------------------------------------------------------- deadline_clock

TEST_F(ResilienceTest, UnboundedClockNeverExpires)
{
    const deadline_clock clock;
    EXPECT_FALSE(clock.bounded());
    EXPECT_FALSE(clock.expired());
    EXPECT_TRUE(std::isinf(clock.remaining_s()));
    EXPECT_NO_THROW(clock.throw_if_expired("test"));
}

TEST_F(ResilienceTest, ElapsedClockExpires)
{
    const auto clock = deadline_clock::after(-1.0);
    EXPECT_TRUE(clock.bounded());
    EXPECT_TRUE(clock.expired());
    EXPECT_DOUBLE_EQ(clock.remaining_s(), 0.0);
    EXPECT_THROW(clock.throw_if_expired("unit"), deadline_exceeded);
}

TEST_F(ResilienceTest, StopFlagExpiresIndependentOfBudget)
{
    auto flag = std::make_shared<std::atomic<bool>>(false);
    deadline_clock clock;  // no time budget
    clock.attach_stop(flag);
    EXPECT_TRUE(clock.bounded());
    EXPECT_FALSE(clock.expired());
    flag->store(true);
    EXPECT_TRUE(clock.expired());
}

TEST_F(ResilienceTest, DeadlineGuardNoticesExpiryOnFirstPoll)
{
    const auto clock = deadline_clock::after(-1.0);
    deadline_guard guard{clock, 64};
    EXPECT_TRUE(guard.poll());  // first call always consults the clock
}

TEST_F(ResilienceTest, DeadlineGuardOnUnboundedClockIsFree)
{
    const deadline_clock clock;
    deadline_guard guard{clock, 2};
    for (int i = 0; i < 1000; ++i)
    {
        EXPECT_FALSE(guard.poll());
    }
}

// -------------------------------------------------------------- run_guarded

TEST_F(ResilienceTest, GuardedSuccessIsOk)
{
    const auto outcome = run_guarded("combo", no_retry(), [](std::size_t) {});
    EXPECT_TRUE(outcome.is_ok());
    EXPECT_EQ(outcome.kind, outcome_kind::ok);
    EXPECT_EQ(outcome.attempts, 1U);
    EXPECT_TRUE(outcome.message.empty());
    EXPECT_GE(outcome.elapsed_s, 0.0);
    EXPECT_EQ(outcome.label, "combo");
}

TEST_F(ResilienceTest, GuardedExceptionTaxonomy)
{
    const auto timeout = run_guarded("t", no_retry(),
                                     [](std::size_t) { throw deadline_exceeded{"unit"}; });
    EXPECT_EQ(timeout.kind, outcome_kind::timeout);
    EXPECT_NE(timeout.message.find("unit"), std::string::npos);

    const auto verification = run_guarded("v", no_retry(),
                                          [](std::size_t) { throw verification_error{"mismatch"}; });
    EXPECT_EQ(verification.kind, outcome_kind::verification_failed);
    EXPECT_NE(verification.message.find("mismatch"), std::string::npos);

    const auto oom = run_guarded("o", no_retry(), [](std::size_t) { throw std::bad_alloc{}; });
    EXPECT_EQ(oom.kind, outcome_kind::oom);

    const auto internal = run_guarded("i", no_retry(),
                                      [](std::size_t) { throw std::runtime_error{"boom"}; });
    EXPECT_EQ(internal.kind, outcome_kind::internal_error);
    EXPECT_EQ(internal.message, "boom");

    const auto unknown = run_guarded("u", no_retry(), [](std::size_t) { throw 42; });  // NOLINT
    EXPECT_EQ(unknown.kind, outcome_kind::internal_error);
    EXPECT_EQ(unknown.message, "unknown exception");
}

TEST_F(ResilienceTest, GuardedBodyMayReturnSoftOutcome)
{
    const auto outcome = run_guarded("soft", no_retry(),
                                     [](std::size_t) { return outcome_kind::timeout; });
    EXPECT_EQ(outcome.kind, outcome_kind::timeout);
    EXPECT_EQ(outcome.attempts, 1U);
}

TEST_F(ResilienceTest, TransientFailureIsRetriedUntilSuccess)
{
    guard_params params{};
    params.retry.max_attempts = 3;
    std::size_t calls = 0;
    const auto outcome = run_guarded("retry", params,
                                     [&](const std::size_t attempt)
                                     {
                                         ++calls;
                                         if (attempt < 2)
                                         {
                                             throw verification_error{"flaky"};
                                         }
                                     });
    EXPECT_TRUE(outcome.is_ok());
    EXPECT_EQ(outcome.attempts, 2U);
    EXPECT_EQ(calls, 2U);
}

TEST_F(ResilienceTest, RetryBudgetIsBounded)
{
    guard_params params{};
    params.retry.max_attempts = 3;
    std::size_t calls = 0;
    const auto outcome = run_guarded("exhausted", params,
                                     [&](std::size_t)
                                     {
                                         ++calls;
                                         throw verification_error{"always"};
                                     });
    EXPECT_EQ(outcome.kind, outcome_kind::verification_failed);
    EXPECT_EQ(outcome.attempts, 3U);
    EXPECT_EQ(calls, 3U);
}

TEST_F(ResilienceTest, TimeoutIsNeverRetried)
{
    guard_params params{};
    params.retry.max_attempts = 5;
    std::size_t calls = 0;
    const auto outcome = run_guarded("no-retry", params,
                                     [&](std::size_t)
                                     {
                                         ++calls;
                                         throw deadline_exceeded{"budget"};
                                     });
    EXPECT_EQ(outcome.kind, outcome_kind::timeout);
    EXPECT_EQ(calls, 1U);
}

TEST_F(ResilienceTest, HardErrorFailsFastByDefault)
{
    guard_params params{};
    params.retry.max_attempts = 5;
    std::size_t calls = 0;
    const auto outcome = run_guarded("hard", params,
                                     [&](std::size_t)
                                     {
                                         ++calls;
                                         throw std::runtime_error{"bug"};
                                     });
    EXPECT_EQ(outcome.kind, outcome_kind::internal_error);
    EXPECT_EQ(calls, 1U);
}

TEST_F(ResilienceTest, ExpiredDeadlineShortCircuitsWithoutRunningBody)
{
    guard_params params{};
    params.deadline = deadline_clock::after(-1.0);
    std::size_t calls = 0;
    const auto outcome = run_guarded("expired", params, [&](std::size_t) { ++calls; });
    EXPECT_EQ(outcome.kind, outcome_kind::timeout);
    EXPECT_EQ(outcome.attempts, 0U);
    EXPECT_EQ(calls, 0U);
}

TEST_F(ResilienceTest, OutcomeKindNamesAreStable)
{
    EXPECT_STREQ(outcome_kind_name(outcome_kind::ok), "ok");
    EXPECT_STREQ(outcome_kind_name(outcome_kind::timeout), "timeout");
    EXPECT_STREQ(outcome_kind_name(outcome_kind::verification_failed), "verification_failed");
    EXPECT_STREQ(outcome_kind_name(outcome_kind::oom), "oom");
    EXPECT_STREQ(outcome_kind_name(outcome_kind::internal_error), "internal_error");
}

// ---------------------------------------------------------- fault injection

TEST_F(ResilienceTest, FaultSpecParsing)
{
    EXPECT_FALSE(fault::enabled());
    fault::configure("verify.check:0.5:7,route.search");
    EXPECT_TRUE(fault::enabled());
    const auto spec = fault::current_spec();
    EXPECT_NE(spec.find("verify.check"), std::string::npos);
    EXPECT_NE(spec.find("route.search"), std::string::npos);
    fault::configure("");
    EXPECT_FALSE(fault::enabled());
}

TEST_F(ResilienceTest, MalformedFaultSpecsAreRejected)
{
    EXPECT_THROW(fault::configure("site:not-a-number"), mnt_error);
    EXPECT_THROW(fault::configure("site:2.0"), mnt_error);   // probability > 1
    EXPECT_THROW(fault::configure("site:-0.5"), mnt_error);  // probability < 0
    EXPECT_THROW(fault::configure(":1"), mnt_error);         // empty site name
    EXPECT_FALSE(fault::enabled());                          // nothing was armed
}

TEST_F(ResilienceTest, FaultFiringIsDeterministic)
{
    fault::configure("always.on:1:1");
    for (int i = 0; i < 10; ++i)
    {
        EXPECT_TRUE(fault::fire("always.on"));
    }
    EXPECT_FALSE(fault::fire("other.site"));

    fault::configure("never.on:0:1");
    for (int i = 0; i < 10; ++i)
    {
        EXPECT_FALSE(fault::fire("never.on"));
    }
}

TEST_F(ResilienceTest, MaybeFailThrowsInjectedFault)
{
    fault::configure("unit.site");
    EXPECT_THROW(fault::maybe_fail("unit.site"), fault::injected_fault);
    EXPECT_NO_THROW(fault::maybe_fail("unrelated.site"));
}

// ------------------------------------------- portfolio under fault injection

TEST_F(ResilienceTest, PortfolioSurvivesExactFaults)
{
    // every exact invocation dies; all other combinations must still deliver
    fault::configure("exact.search");
    const auto run = pd::generate_portfolio(mux21(), pd::portfolio_flavor::cartesian, fast_params());

    ASSERT_FALSE(run.results.empty());
    EXPECT_FALSE(std::any_of(run.results.cbegin(), run.results.cend(),
                             [](const pd::layout_result& r) { return r.algorithm == "exact"; }));
    EXPECT_TRUE(std::any_of(run.results.cbegin(), run.results.cend(),
                            [](const pd::layout_result& r) { return r.algorithm == "ortho"; }));
    EXPECT_TRUE(std::any_of(run.results.cbegin(), run.results.cend(),
                            [](const pd::layout_result& r) { return r.algorithm == "NPR"; }));

    // the failure manifest lists each failed exact combination with detail
    const auto failures = run.failures();
    ASSERT_FALSE(failures.empty());
    for (const auto& f : failures)
    {
        EXPECT_EQ(f.kind, outcome_kind::internal_error);
        EXPECT_NE(f.label.find("exact@"), std::string::npos);
        EXPECT_NE(f.message.find("exact.search"), std::string::npos);
        EXPECT_GE(f.elapsed_s, 0.0);
        EXPECT_GE(f.attempts, 1U);
    }

    // healthy + failed outcomes cover every attempted combination
    const auto ok_count = static_cast<std::size_t>(
        std::count_if(run.outcomes.cbegin(), run.outcomes.cend(),
                      [](const combo_outcome& o) { return o.is_ok(); }));
    EXPECT_EQ(ok_count + failures.size(), run.outcomes.size());

    // best_by_area still picks the area-minimal healthy layout
    const auto* best = pd::best_by_area(run.results);
    ASSERT_NE(best, nullptr);
    for (const auto& r : run.results)
    {
        EXPECT_LE(best->layout.area(), r.layout.area());
    }
}

TEST_F(ResilienceTest, VerificationFaultsAreRetriedThenReported)
{
    // the verifier reports a (injected) mismatch on every check: all
    // combinations fail as verification_failed after the full retry budget
    fault::configure("verify.check");
    auto params = fast_params();
    params.max_attempts = 2;
    params.try_exact = false;  // keep the run fast
    params.try_nanoplacer = false;
    params.try_input_ordering = false;
    params.try_plo = false;
    const auto run = pd::generate_portfolio(mux21(), pd::portfolio_flavor::cartesian, params);

    EXPECT_TRUE(run.results.empty());
    ASSERT_FALSE(run.outcomes.empty());
    for (const auto& o : run.outcomes)
    {
        EXPECT_EQ(o.kind, outcome_kind::verification_failed);
        EXPECT_EQ(o.attempts, 2U) << o.label;
        EXPECT_NE(o.message.find("verify.check"), std::string::npos);
    }
}

TEST_F(ResilienceTest, ExpiredGlobalDeadlineYieldsTimeoutManifest)
{
    auto params = fast_params();
    params.deadline_s = 1e-9;  // expires before the first combination starts
    const auto run = pd::generate_portfolio(mux21(), pd::portfolio_flavor::cartesian, params);

    EXPECT_TRUE(run.results.empty());
    ASSERT_FALSE(run.outcomes.empty());
    for (const auto& o : run.outcomes)
    {
        EXPECT_EQ(o.kind, outcome_kind::timeout) << o.label;
    }
}

TEST_F(ResilienceTest, PartialResultsSurviveMidRunDeadline)
{
    // a tight-but-nonzero budget: whatever completed before expiry is kept,
    // everything after reports timeout — and nothing throws
    auto params = fast_params();
    params.deadline_s = 0.05;
    const auto run = pd::generate_portfolio(half_adder(), pd::portfolio_flavor::cartesian, params);

    for (const auto& o : run.outcomes)
    {
        EXPECT_TRUE(o.kind == outcome_kind::ok || o.kind == outcome_kind::timeout) << o.label;
    }
    // results only stem from ok outcomes (each combination yields <= 1 layout)
    const auto ok_count = static_cast<std::size_t>(std::count_if(
        run.outcomes.cbegin(), run.outcomes.cend(), [](const combo_outcome& o) { return o.is_ok(); }));
    EXPECT_LE(run.results.size(), ok_count);
}

TEST_F(ResilienceTest, FailuresSurfaceAsTelemetryEvents)
{
    tel::set_enabled(true);
    tel::registry::instance().reset();
    fault::configure("exact.search");

    const auto run = pd::generate_portfolio(mux21(), pd::portfolio_flavor::cartesian, fast_params());
    const auto report = tel::capture_report();

    tel::registry::instance().reset();
    tel::set_enabled(false);

    ASSERT_FALSE(run.failures().empty());
    const auto failed_events = static_cast<std::size_t>(
        std::count_if(report.events.cbegin(), report.events.cend(),
                      [](const tel::event_record& e) { return e.category == "combo_failure"; }));
    EXPECT_EQ(failed_events, run.failures().size());
    for (const auto& e : report.events)
    {
        if (e.category != "combo_failure")
        {
            continue;
        }
        EXPECT_EQ(e.kind, "internal_error");
        EXPECT_FALSE(e.label.empty());
        EXPECT_FALSE(e.message.empty());
    }

    std::uint64_t failed_counter = 0;
    for (const auto& c : report.counters)
    {
        if (c.name == "portfolio.combos_failed")
        {
            failed_counter = c.value;
        }
    }
    EXPECT_EQ(failed_counter, run.failures().size());

    // the failure manifest round-trips into the report JSON
    const auto json = tel::report_json_string(report);
    EXPECT_NE(json.find("\"combo_failure\""), std::string::npos);
    EXPECT_NE(json.find("\"internal_error\""), std::string::npos);
}

TEST_F(ResilienceTest, CatalogManifestAndBestSelectionUnderInjection)
{
    fault::configure("exact.search");
    const auto network = mux21();
    const auto run = pd::generate_portfolio(network, pd::portfolio_flavor::cartesian, fast_params());
    ASSERT_FALSE(run.results.empty());
    ASSERT_FALSE(run.failures().empty());

    cat::catalog catalog;
    catalog.add_network("Trindade16", "mux21", network);
    for (const auto& r : run.results)
    {
        cat::layout_record record{};
        record.benchmark_set = "Trindade16";
        record.benchmark_name = "mux21";
        record.library = cat::gate_library_kind::qca_one;
        record.clocking = r.clocking;
        record.algorithm = r.algorithm;
        record.optimizations = r.optimizations;
        record.runtime = r.runtime;
        record.layout = r.layout;
        catalog.add_layout(std::move(record));
    }
    for (const auto& f : run.failures())
    {
        catalog.add_failure({"Trindade16", "mux21", cat::gate_library_kind::qca_one, f.label,
                             outcome_kind_name(f.kind), f.message, f.elapsed_s, f.attempts});
    }

    EXPECT_EQ(catalog.num_layouts(), run.results.size());
    EXPECT_EQ(catalog.num_failures(), run.failures().size());

    // best selection operates on the healthy layouts only
    const auto best = cat::select_best(catalog, "Trindade16", "mux21", cat::gate_library_kind::qca_one);
    ASSERT_NE(best.best, nullptr);
    EXPECT_NE(best.best->algorithm, "exact");
    for (const auto& r : catalog.layouts())
    {
        EXPECT_LE(best.best->area, r.area);
    }
}
