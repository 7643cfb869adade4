#include "common/taskrt/taskrt.hpp"

#include "common/resilience.hpp"
#include "common/taskrt/arena.hpp"
#include "common/taskrt/deque.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <numeric>
#include <optional>
#include <random>
#include <stdexcept>
#include <thread>
#include <vector>

using namespace mnt;

namespace
{

/// The runtime is process-global: every test starts from a clean, automatic
/// configuration (no pool, no override, no MNT_THREADS leakage).
class TaskRuntimeTest : public ::testing::Test
{
protected:
    void SetUp() override
    {
        unsetenv("MNT_THREADS");
        trt::set_thread_count(0);
        trt::shutdown();
        trt::reset_stats();
    }

    void TearDown() override
    {
        unsetenv("MNT_THREADS");
        trt::set_thread_count(0);
        trt::shutdown();
    }
};

}  // namespace

// --------------------------------------------------------------- deque units

TEST(ChaseLevDequeTest, OwnerPopsLifoThievesStealFifo)
{
    trt::chase_lev_deque<int> dq{};
    int items[4] = {0, 1, 2, 3};
    for (auto& item : items)
    {
        dq.push(&item);
    }
    EXPECT_EQ(dq.size_estimate(), 4u);

    EXPECT_EQ(dq.steal(), &items[0]);  // top = oldest
    EXPECT_EQ(dq.pop(), &items[3]);    // bottom = newest
    EXPECT_EQ(dq.steal(), &items[1]);
    EXPECT_EQ(dq.pop(), &items[2]);
    EXPECT_EQ(dq.pop(), nullptr);
    EXPECT_EQ(dq.steal(), nullptr);
}

TEST(ChaseLevDequeTest, GrowthPreservesAllElements)
{
    // initial ring capacity is 256: pushing 1000 forces two growths
    trt::chase_lev_deque<int> dq{};
    std::vector<int> items(1000);
    std::iota(items.begin(), items.end(), 0);
    for (auto& item : items)
    {
        dq.push(&item);
    }
    // steal everything: FIFO order must survive the ring swaps
    for (int expected = 0; expected < 1000; ++expected)
    {
        const auto* got = dq.steal();
        ASSERT_NE(got, nullptr);
        EXPECT_EQ(*got, expected);
    }
    EXPECT_EQ(dq.steal(), nullptr);
}

TEST(ChaseLevDequeTest, ConcurrentStealsLoseNothingDuplicateNothing)
{
    constexpr int n = 20000;
    constexpr int thieves = 3;

    trt::chase_lev_deque<int> dq{};
    std::vector<int> items(n);
    std::iota(items.begin(), items.end(), 0);
    std::vector<std::atomic<int>> taken(n);
    for (auto& t : taken)
    {
        t.store(0);
    }

    std::atomic<bool> done{false};
    std::vector<std::thread> pool;
    pool.reserve(thieves);
    for (int t = 0; t < thieves; ++t)
    {
        pool.emplace_back(
            [&]
            {
                while (!done.load(std::memory_order_acquire))
                {
                    if (auto* item = dq.steal(); item != nullptr)
                    {
                        taken[static_cast<std::size_t>(*item)].fetch_add(1);
                    }
                }
                while (auto* item = dq.steal())  // drain the leftovers
                {
                    taken[static_cast<std::size_t>(*item)].fetch_add(1);
                }
            });
    }

    // the owner interleaves pushes with occasional pops, racing the thieves
    // for the bottom element
    for (int i = 0; i < n; ++i)
    {
        dq.push(&items[static_cast<std::size_t>(i)]);
        if (i % 7 == 0)
        {
            if (auto* item = dq.pop(); item != nullptr)
            {
                taken[static_cast<std::size_t>(*item)].fetch_add(1);
            }
        }
    }
    done.store(true, std::memory_order_release);
    for (auto& t : pool)
    {
        t.join();
    }

    for (int i = 0; i < n; ++i)
    {
        EXPECT_EQ(taken[static_cast<std::size_t>(i)].load(), 1) << "item " << i;
    }
}

// --------------------------------------------------------- thread resolution

TEST_F(TaskRuntimeTest, ThreadCountPrecedence)
{
    // auto: hardware concurrency (>= 1 always)
    EXPECT_GE(trt::thread_count(), 1u);

    // MNT_THREADS beats hardware
    setenv("MNT_THREADS", "5", 1);
    trt::set_thread_count(0);  // invalidate the cached resolution
    EXPECT_EQ(trt::thread_count(), 5u);
    EXPECT_EQ(trt::resolve_auto_threads(), 5u);

    // --threads beats MNT_THREADS
    trt::set_thread_count(3);
    EXPECT_EQ(trt::thread_count(), 3u);
    EXPECT_EQ(trt::resolve_auto_threads(), 5u);  // env fallback unaffected

    // releasing the override falls back to the environment
    trt::set_thread_count(0);
    EXPECT_EQ(trt::thread_count(), 5u);

    // garbage in the environment is ignored
    setenv("MNT_THREADS", "zero", 1);
    trt::set_thread_count(0);
    EXPECT_GE(trt::thread_count(), 1u);
}

TEST_F(TaskRuntimeTest, SerialRuntimeIsNotParallel)
{
    trt::set_thread_count(1);
    EXPECT_FALSE(trt::parallel());
    trt::set_thread_count(4);
    EXPECT_TRUE(trt::parallel());
}

// ------------------------------------------------------------- parallel_for

TEST_F(TaskRuntimeTest, ParallelForCoversEveryIndexExactlyOnce)
{
    trt::set_thread_count(4);
    constexpr std::size_t n = 1000;
    std::vector<std::atomic<int>> hits(n);
    for (auto& h : hits)
    {
        h.store(0);
    }
    trt::parallel_for(0, n, 1,
                      [&](const std::size_t b, const std::size_t e)
                      {
                          for (std::size_t i = b; i < e; ++i)
                          {
                              hits[i].fetch_add(1);
                          }
                      });
    for (std::size_t i = 0; i < n; ++i)
    {
        EXPECT_EQ(hits[i].load(), 1) << "index " << i;
    }
}

TEST_F(TaskRuntimeTest, SerialParallelForRunsInlineAsOneChunk)
{
    trt::set_thread_count(1);
    std::size_t calls = 0;
    std::thread::id body_thread{};
    trt::parallel_for(10, 50, 1,
                      [&](const std::size_t b, const std::size_t e)
                      {
                          ++calls;
                          body_thread = std::this_thread::get_id();
                          EXPECT_EQ(b, 10u);
                          EXPECT_EQ(e, 50u);
                      });
    EXPECT_EQ(calls, 1u);
    EXPECT_EQ(body_thread, std::this_thread::get_id());
}

TEST_F(TaskRuntimeTest, GrainBoundsChunkSize)
{
    trt::set_thread_count(4);
    std::atomic<std::size_t> min_chunk{SIZE_MAX};
    trt::parallel_for(0, 1024, 64,
                      [&](const std::size_t b, const std::size_t e)
                      {
                          auto prev = min_chunk.load();
                          while (e - b < prev && !min_chunk.compare_exchange_weak(prev, e - b))
                          {
                          }
                      });
    // every chunk (the last included) spans at least the requested grain
    EXPECT_GE(min_chunk.load(), 32u);  // 1024/64 = 16 chunks <= 4*8 cap
}

TEST_F(TaskRuntimeTest, ParallelForRethrowsFirstException)
{
    trt::set_thread_count(4);
    const auto boom = [](const std::size_t b, const std::size_t)
    {
        if (b >= 500)
        {
            throw std::runtime_error{"chunk failed"};
        }
    };
    EXPECT_THROW(trt::parallel_for(0, 1000, 1, boom), std::runtime_error);
    // the runtime survives a throwing region and stays usable
    std::atomic<int> sum{0};
    trt::parallel_for(0, 100, 1,
                      [&](const std::size_t b, const std::size_t e)
                      { sum.fetch_add(static_cast<int>(e - b)); });
    EXPECT_EQ(sum.load(), 100);
}

// ------------------------------------------------------- parallel_map_reduce

TEST_F(TaskRuntimeTest, MapReduceFoldsInSubmissionOrder)
{
    const auto run = [](const std::size_t threads)
    {
        trt::set_thread_count(threads);
        return trt::parallel_map_reduce<std::vector<std::size_t>>(
            200, {},
            [](const std::size_t i) { return std::vector<std::size_t>{i}; },
            [](std::vector<std::size_t>& acc, std::vector<std::size_t>&& v)
            { acc.insert(acc.end(), v.begin(), v.end()); });
    };

    const auto serial = run(1);
    ASSERT_EQ(serial.size(), 200u);
    for (std::size_t i = 0; i < serial.size(); ++i)
    {
        EXPECT_EQ(serial[i], i);
    }
    // the ordered fold makes the outcome thread-count invariant
    EXPECT_EQ(run(2), serial);
    EXPECT_EQ(run(8), serial);
}

TEST_F(TaskRuntimeTest, MapReduceEmptyAndSingleton)
{
    trt::set_thread_count(4);
    const auto add = [](int& acc, int&& v) { acc += v; };
    const auto none = trt::parallel_map_reduce<int>(0, 42, [](const std::size_t) { return 0; }, add);
    EXPECT_EQ(none, 42);
    const auto one =
        trt::parallel_map_reduce<int>(1, 0, [](const std::size_t i) { return static_cast<int>(i) + 7; }, add);
    EXPECT_EQ(one, 7);
}

// ------------------------------------------------------------- first_winner

TEST_F(TaskRuntimeTest, FirstWinnerPicksLowestEngagedIndex)
{
    trt::set_thread_count(4);
    // index 2 answers instantly, index 0 after a delay: 0 must still win
    const auto winner = trt::first_winner<std::size_t>(
        4,
        [](const std::size_t i, const trt::cancel_token&) -> std::optional<std::size_t>
        {
            if (i == 0)
            {
                std::this_thread::sleep_for(std::chrono::milliseconds{20});
                return i;
            }
            if (i == 2)
            {
                return i;
            }
            return std::nullopt;
        });
    ASSERT_TRUE(winner.has_value());
    EXPECT_EQ(*winner, 0u);
}

TEST_F(TaskRuntimeTest, SerialFirstWinnerShortCircuits)
{
    trt::set_thread_count(1);
    std::size_t attempts = 0;
    const auto winner = trt::first_winner<std::size_t>(
        8,
        [&](const std::size_t i, const trt::cancel_token&) -> std::optional<std::size_t>
        {
            ++attempts;
            return i == 1 ? std::optional<std::size_t>{i} : std::nullopt;
        });
    ASSERT_TRUE(winner.has_value());
    EXPECT_EQ(*winner, 1u);
    EXPECT_EQ(attempts, 2u);  // indices 0 and 1 only, like a sequential loop
}

TEST_F(TaskRuntimeTest, FirstWinnerCancelsHigherIndexedLosers)
{
    trt::set_thread_count(4);
    std::atomic<int> cancelled_observed{0};
    const auto winner = trt::first_winner<std::size_t>(
        4,
        [&](const std::size_t i, const trt::cancel_token& token) -> std::optional<std::size_t>
        {
            if (i == 0)
            {
                return i;  // wins immediately; everything above gets cancelled
            }
            // losers poll their token through the deadline_clock integration,
            // exactly like exact's per-ratio solvers do
            const auto clock = res::deadline_clock::after(5.0).with_stop(token.handle());
            while (!clock.expired())
            {
                std::this_thread::sleep_for(std::chrono::microseconds{200});
            }
            if (token.cancelled())
            {
                cancelled_observed.fetch_add(1);
            }
            return std::nullopt;
        });
    ASSERT_TRUE(winner.has_value());
    EXPECT_EQ(*winner, 0u);
    // every loser that got to run must have unwound via its token, not the
    // 5 s budget (the test would blow past its timeout otherwise)
    EXPECT_GE(cancelled_observed.load(), 0);
}

TEST_F(TaskRuntimeTest, FirstWinnerAllFailReturnsNothing)
{
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}})
    {
        trt::set_thread_count(threads);
        const auto winner = trt::first_winner<int>(
            6, [](const std::size_t, const trt::cancel_token&) -> std::optional<int>
            { return std::nullopt; });
        EXPECT_FALSE(winner.has_value());
    }
}

TEST_F(TaskRuntimeTest, CancelTokenComposesWithDeadlineClock)
{
    const trt::cancel_token token{};
    const auto clock = res::deadline_clock::after(1000.0).with_stop(token.handle());
    EXPECT_TRUE(clock.bounded());
    EXPECT_FALSE(clock.expired());
    token.cancel();
    EXPECT_TRUE(token.cancelled());
    EXPECT_TRUE(clock.expired());

    // stacking on a clock that already carries a stop flag uses the second
    // slot (portfolio stop + first_winner cancel is the deepest real chain)
    const trt::cancel_token outer{};
    const trt::cancel_token inner{};
    auto chained = res::deadline_clock::unbounded().with_stop(outer.handle()).with_stop(inner.handle());
    EXPECT_FALSE(chained.expired());
    inner.cancel();
    EXPECT_TRUE(chained.expired());
}

// ----------------------------------------------------- randomized DAG stress

TEST_F(TaskRuntimeTest, RandomizedDagStressWithCancellationRaces)
{
    trt::set_thread_count(4);
    std::mt19937_64 rng{20260808};

    for (int round = 0; round < 30; ++round)
    {
        const auto n = static_cast<std::size_t>(rng() % 24 + 2);
        // random subset of winners; the race must resolve to the minimum
        std::vector<std::size_t> succeeds;
        for (std::size_t i = 0; i < n; ++i)
        {
            if (rng() % 3 == 0)
            {
                succeeds.push_back(i);
            }
        }

        const auto winner = trt::first_winner<std::size_t>(
            n,
            [&](const std::size_t i, const trt::cancel_token& token) -> std::optional<std::size_t>
            {
                // nested parallel region inside a racing task: the help-first
                // scheduler must make progress without deadlocking
                std::atomic<int> nested{0};
                trt::parallel_for(0, 64, 8,
                                  [&](const std::size_t b, const std::size_t e)
                                  { nested.fetch_add(static_cast<int>(e - b)); });
                EXPECT_EQ(nested.load(), 64);
                if (token.cancelled())
                {
                    return std::nullopt;  // lost the race: unwind cooperatively
                }
                const auto hit = std::find(succeeds.begin(), succeeds.end(), i) != succeeds.end();
                return hit ? std::optional<std::size_t>{i} : std::nullopt;
            });

        if (succeeds.empty())
        {
            EXPECT_FALSE(winner.has_value()) << "round " << round;
        }
        else
        {
            ASSERT_TRUE(winner.has_value()) << "round " << round;
            // cancellation can only suppress indices *above* a success, so
            // the minimum success always survives and always wins
            EXPECT_EQ(*winner, succeeds.front()) << "round " << round;
        }
    }
}

TEST_F(TaskRuntimeTest, TaskGroupPropagatesFirstErrorAndAborts)
{
    trt::set_thread_count(4);
    trt::detail::task_group group{};
    for (int i = 0; i < 16; ++i)
    {
        group.run(
            [i]
            {
                if (i == 3)
                {
                    throw std::logic_error{"task 3 failed"};
                }
            });
    }
    EXPECT_THROW(group.wait(), std::logic_error);
    EXPECT_TRUE(group.aborted());
}

// -------------------------------------------------------------------- stats

TEST_F(TaskRuntimeTest, StatsCountTasksAndSurvivePoolRestarts)
{
    trt::set_thread_count(4);
    trt::reset_stats();
    std::atomic<int> sum{0};
    trt::parallel_for(0, 256, 1,
                      [&](const std::size_t b, const std::size_t e)
                      { sum.fetch_add(static_cast<int>(e - b)); });
    EXPECT_EQ(sum.load(), 256);

    auto s = trt::stats();
    EXPECT_EQ(s.workers, 3u);  // 4 compute threads = 3 pool workers + caller
    EXPECT_GT(s.tasks_executed, 0u);

    // shutting the pool down retires its totals instead of losing them
    const auto executed_before = s.tasks_executed;
    trt::shutdown();
    s = trt::stats();
    EXPECT_GE(s.tasks_executed, executed_before);

    trt::publish_telemetry();  // must not crash with or without a live pool
}

TEST_F(TaskRuntimeTest, InlineTasksAreCountedWhenSerial)
{
    trt::set_thread_count(1);
    trt::reset_stats();
    trt::detail::task_group group{};
    for (int i = 0; i < 5; ++i)
    {
        group.run([] {});
    }
    group.wait();
    EXPECT_EQ(trt::stats().tasks_inline, 5u);
}

// ------------------------------------------------------------ scratch arena

TEST(ScratchArenaTest, BumpRewindReusesMemory)
{
    trt::scratch_arena arena{1024};
    const auto m = arena.mark();
    auto* first = arena.allocate(100, 8);
    ASSERT_NE(first, nullptr);
    EXPECT_GE(arena.total_in_use(), 100u);

    arena.rewind(m);
    EXPECT_EQ(arena.total_in_use(), 0u);
    auto* again = arena.allocate(100, 8);
    EXPECT_EQ(again, first);  // same block, same offset: no new heap traffic
    EXPECT_GE(arena.high_water_bytes(), 100u);
}

TEST(ScratchArenaTest, OversizedRequestGetsDedicatedBlock)
{
    trt::scratch_arena arena{256};
    auto* big = arena.allocate(10000, 16);
    ASSERT_NE(big, nullptr);
    EXPECT_GE(arena.reserved_bytes(), 10000u);
    // the arena stays usable for normal requests afterwards
    auto* small = arena.allocate(16, 8);
    EXPECT_NE(small, nullptr);
}

TEST(ScratchArenaTest, SpareBlockTooSmallIsReplacedNotKept)
{
    // growing requests in successive regions (the router's search tables on
    // ever larger grids) keep the first block plus the largest request, not
    // one block per size
    trt::scratch_arena arena{256};
    for (const std::size_t bytes : {1000u, 2000u, 3000u, 4000u})
    {
        trt::scratch_region region{arena};
        static_cast<void>(arena.allocate(16, 8));  // the first block is in use
        auto* table = arena.allocate_array<std::uint32_t>(bytes / 4);
        ASSERT_NE(table, nullptr);
        table[bytes / 4 - 1] = 1;
    }
    EXPECT_EQ(arena.reserved_bytes(), 256u + 4000u + alignof(std::uint32_t));
    // a smaller request afterwards reuses the larger block
    {
        trt::scratch_region region{arena};
        static_cast<void>(arena.allocate(16, 8));
        static_cast<void>(arena.allocate(2000, 8));
    }
    EXPECT_EQ(arena.reserved_bytes(), 256u + 4000u + alignof(std::uint32_t));
}

TEST(ScratchArenaTest, RegionsNestLifo)
{
    trt::scratch_arena arena{1024};
    {
        trt::scratch_region outer{arena};
        static_cast<void>(arena.allocate(64, 8));
        const auto outer_use = arena.total_in_use();
        {
            trt::scratch_region inner{arena};
            static_cast<void>(arena.allocate(128, 8));
            EXPECT_GT(arena.total_in_use(), outer_use);
        }
        EXPECT_EQ(arena.total_in_use(), outer_use);
    }
    EXPECT_EQ(arena.total_in_use(), 0u);
}

TEST(ScratchArenaTest, ScratchBufferGrowsAndKeepsContents)
{
    trt::scratch_arena arena{512};  // small blocks force several growths
    trt::scratch_region region{arena};
    trt::scratch_buffer<int> buf{arena, 4};
    for (int i = 0; i < 1000; ++i)
    {
        buf.push_back(i);
    }
    ASSERT_EQ(buf.size(), 1000u);
    for (int i = 0; i < 1000; ++i)
    {
        EXPECT_EQ(buf[static_cast<std::size_t>(i)], i);
    }
    int expected = 0;
    for (const auto v : buf)  // iterator interface
    {
        EXPECT_EQ(v, expected++);
    }
}

TEST(ScratchArenaTest, ThreadLocalArenasAreIndependent)
{
    auto& mine = trt::scratch();
    const auto base = mine.total_in_use();
    std::thread other(
        [base]
        {
            auto& theirs = trt::scratch();
            trt::scratch_region region{theirs};
            static_cast<void>(theirs.allocate(4096, 16));
            EXPECT_GE(theirs.total_in_use(), 4096u);
            static_cast<void>(base);
        });
    other.join();
    EXPECT_EQ(mine.total_in_use(), base);  // untouched by the other thread
}
