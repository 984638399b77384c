/**
 * @file
 * Unit tests for the discrete-event simulation core.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <numeric>
#include <vector>

#include "sim/event_queue.h"

namespace pulse::sim {
namespace {

TEST(EventQueue, ExecutesInTimeOrder)
{
    EventQueue queue;
    std::vector<int> order;
    queue.schedule_at(30, [&] { order.push_back(3); });
    queue.schedule_at(10, [&] { order.push_back(1); });
    queue.schedule_at(20, [&] { order.push_back(2); });
    queue.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(queue.now(), 30);
}

TEST(EventQueue, FifoTiebreakAtEqualTimes)
{
    EventQueue queue;
    std::vector<int> order;
    for (int i = 0; i < 8; i++) {
        queue.schedule_at(100, [&order, i] { order.push_back(i); });
    }
    queue.run();
    for (int i = 0; i < 8; i++) {
        EXPECT_EQ(order[i], i);
    }
}

TEST(EventQueue, ScheduleAfterUsesCurrentTime)
{
    EventQueue queue;
    Time fired_at = -1;
    queue.schedule_at(50, [&] {
        queue.schedule_after(25, [&] { fired_at = queue.now(); });
    });
    queue.run();
    EXPECT_EQ(fired_at, 75);
}

TEST(EventQueue, EventsMayScheduleMoreEvents)
{
    EventQueue queue;
    int depth = 0;
    std::function<void()> chain = [&] {
        if (++depth < 100) {
            queue.schedule_after(1, chain);
        }
    };
    queue.schedule_at(0, chain);
    const std::uint64_t executed = queue.run();
    EXPECT_EQ(depth, 100);
    EXPECT_EQ(executed, 100u);
    EXPECT_EQ(queue.now(), 99);
}

TEST(EventQueue, RunUntilStopsAtDeadline)
{
    EventQueue queue;
    int fired = 0;
    for (Time t = 10; t <= 100; t += 10) {
        queue.schedule_at(t, [&] { fired++; });
    }
    queue.run_until(50);
    EXPECT_EQ(fired, 5);  // 10..50 inclusive
    EXPECT_EQ(queue.now(), 50);
    EXPECT_EQ(queue.pending(), 5u);
    queue.run();
    EXPECT_EQ(fired, 10);
}

TEST(EventQueue, RunUntilAdvancesClockWhenIdle)
{
    EventQueue queue;
    queue.run_until(12345);
    EXPECT_EQ(queue.now(), 12345);
}

TEST(EventQueue, RunUntilAdvancesClockOnEarlyDrain)
{
    // Regression for the run_until clock contract: when the queue
    // drains before the deadline, the clock must still land exactly on
    // the deadline — a fixed measurement window always advances time
    // by its full span, and follow-up relative scheduling anchors at
    // the window end rather than at the last executed event.
    EventQueue queue;
    int fired = 0;
    queue.schedule_at(10, [&] { fired++; });
    queue.schedule_at(30, [&] { fired++; });
    EXPECT_EQ(queue.run_until(1000), 2u);
    EXPECT_EQ(fired, 2);
    EXPECT_TRUE(queue.empty());
    EXPECT_EQ(queue.now(), 1000);

    Time anchored_at = -1;
    queue.schedule_after(5, [&] { anchored_at = queue.now(); });
    queue.run();
    EXPECT_EQ(anchored_at, 1005);

    // Back-to-back windows each span their full width.
    queue.run_until(2000);
    queue.run_until(3000);
    EXPECT_EQ(queue.now(), 3000);
}

TEST(EventQueue, RunWhilePendingStopsOnPredicate)
{
    EventQueue queue;
    int count = 0;
    for (int i = 0; i < 10; i++) {
        queue.schedule_at(i, [&] { count++; });
    }
    const bool met =
        queue.run_while_pending([&] { return count >= 4; });
    EXPECT_TRUE(met);
    EXPECT_EQ(count, 4);
    // Predicate never met: drains and reports false.
    const bool never =
        queue.run_while_pending([&] { return count >= 100; });
    EXPECT_FALSE(never);
    EXPECT_EQ(count, 10);
}

TEST(EventQueue, StepReturnsFalseWhenEmpty)
{
    EventQueue queue;
    EXPECT_FALSE(queue.step());
    EXPECT_TRUE(queue.empty());
}

TEST(EventQueue, TelemetryCountsScheduledAndExecuted)
{
    EventQueue queue;
    EXPECT_EQ(queue.events_scheduled(), 0u);
    EXPECT_EQ(queue.events_executed(), 0u);
    for (int i = 0; i < 5; i++) {
        queue.schedule_at(i, [] {});
    }
    EXPECT_EQ(queue.events_scheduled(), 5u);
    EXPECT_EQ(queue.peak_pending(), 5u);
    queue.run();
    EXPECT_EQ(queue.events_executed(), 5u);
    EXPECT_EQ(queue.peak_pending(), 5u);  // high-water, not current
}

TEST(EventQueue, PoolSlotsConvergeUnderSteadyState)
{
    // The slot pool grows to the peak number of simultaneously
    // pending events and then recycles: a long self-rescheduling
    // chain must not grow the pool beyond its initial burst.
    EventQueue queue;
    int depth = 0;
    std::function<void()> chain = [&] {
        if (++depth < 1000) {
            queue.schedule_after(1, chain);
        }
    };
    queue.schedule_at(0, chain);
    queue.run();
    EXPECT_EQ(depth, 1000);
    EXPECT_EQ(queue.peak_pending(), 1u);
    EXPECT_EQ(queue.pool_slots(), queue.peak_pending());
}

TEST(EventQueue, CallbackMayScheduleWhileItsSlotRecycles)
{
    // step() frees the slot before invoking the callback, so the
    // running callback's own slot may be handed to what it schedules.
    // The callback's captures must survive that reuse (they were
    // moved out of the pool first).
    EventQueue queue;
    std::vector<int> order;
    std::vector<std::uint64_t> payload(8, 42);
    queue.schedule_at(10, [&queue, &order, payload] {
        // Schedule two events from inside an executing event; one of
        // them likely lands in this event's just-freed slot.
        queue.schedule_after(5, [&order] { order.push_back(2); });
        queue.schedule_after(1, [&order] { order.push_back(1); });
        // Captures still intact after the schedule calls:
        order.push_back(static_cast<int>(payload[7]) - 42);
    });
    queue.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(EventQueue, MoveOnlyCaptures)
{
    // EventFn is move-only, so events can own their payloads —
    // std::function would reject this capture outright.
    EventQueue queue;
    auto owned = std::make_unique<int>(9);
    int result = 0;
    queue.schedule_at(3, [owned = std::move(owned), &result] {
        result = *owned;
    });
    queue.run();
    EXPECT_EQ(result, 9);
}

TEST(EventQueueDeath, SchedulingIntoThePastPanics)
{
    EventQueue queue;
    queue.schedule_at(100, [] {});
    queue.run();
    EXPECT_DEATH(queue.schedule_at(50, [] {}), "past");
}

// ---- Same-timestamp coalescing (docs/PERF.md) -----------------------

TEST(EventQueueCoalescing, ChainsPreserveFifoOrder)
{
    EventQueue queue;
    std::vector<int> order;
    // Interleave two timestamps so chains grow out of arrival order.
    for (int i = 0; i < 16; i++) {
        const Time when = (i % 2 == 0) ? 100 : 200;
        queue.schedule_at(when, [&order, i] { order.push_back(i); });
    }
    queue.run();
    ASSERT_EQ(order.size(), 16u);
    // All evens (t=100) in arrival order, then all odds (t=200).
    for (int i = 0; i < 8; i++) {
        EXPECT_EQ(order[i], 2 * i);
        EXPECT_EQ(order[8 + i], 2 * i + 1);
    }
    EXPECT_GT(queue.events_coalesced(), 0u);
    EXPECT_GT(queue.batches_drained(), 0u);
}

TEST(EventQueueCoalescing, ManyTimestampsEvictTheCacheSafely)
{
    // More live timestamps than the direct-mapped chain cache has
    // slots: evicted timestamps fall back to plain heap entries, and
    // order is still globally correct.
    EventQueue queue;
    std::vector<Time> fired;
    for (int pass = 0; pass < 2; pass++) {
        for (Time t = 1; t <= 300; t++) {
            queue.schedule_at(t, [&fired, t] { fired.push_back(t); });
        }
    }
    queue.run();
    ASSERT_EQ(fired.size(), 600u);
    for (std::size_t i = 0; i + 1 < fired.size(); i++) {
        EXPECT_LE(fired[i], fired[i + 1]);
    }
}

TEST(EventQueueCoalescing, SchedulingDuringDrainJoinsTheChain)
{
    // An event scheduled *at the current timestamp while its chain is
    // draining* must still run within this drain, in FIFO position.
    EventQueue queue;
    std::vector<int> order;
    queue.schedule_at(10, [&] {
        order.push_back(0);
        queue.schedule_after(0, [&order] { order.push_back(2); });
    });
    queue.schedule_at(10, [&order] { order.push_back(1); });
    queue.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
    EXPECT_EQ(queue.now(), 10);
}

TEST(EventQueueCoalescing, MatchesStableTimestampOrder)
{
    // Reference order: the schedule indices stably sorted by
    // timestamp (FIFO among equal timestamps).
    std::vector<Time> when(32);
    for (int i = 0; i < 32; i++) {
        when[i] = (i % 4) * 10;
    }
    std::vector<int> expected(32);
    std::iota(expected.begin(), expected.end(), 0);
    std::stable_sort(expected.begin(), expected.end(),
                     [&when](int a, int b) { return when[a] < when[b]; });

    EventQueue queue;
    std::vector<int> order;
    for (int i = 0; i < 32; i++) {
        queue.schedule_at(when[i], [&order, i] { order.push_back(i); });
    }
    queue.run();
    EXPECT_EQ(order, expected);
    EXPECT_EQ(queue.now(), 30);
    EXPECT_EQ(queue.events_executed(), 32u);
}

TEST(EventQueueCoalescing, RunUntilRespectsChainedDeadline)
{
    EventQueue queue;
    int before = 0;
    int after = 0;
    for (int i = 0; i < 4; i++) {
        queue.schedule_at(50, [&before] { before++; });
        queue.schedule_at(150, [&after] { after++; });
    }
    queue.run_until(100);
    EXPECT_EQ(before, 4);
    EXPECT_EQ(after, 0);
    EXPECT_EQ(queue.now(), 100);
    queue.run();
    EXPECT_EQ(after, 4);
}

TEST(EventQueueCoalescing, CountersTrackChainedEvents)
{
    EventQueue queue;
    for (int i = 0; i < 10; i++) {
        queue.schedule_at(7, [] {});
    }
    queue.run();
    // One heap pop drained all ten: nine rode along a chain.
    EXPECT_EQ(queue.events_executed(), 10u);
    EXPECT_EQ(queue.events_coalesced(), 9u);
    EXPECT_EQ(queue.batches_drained(), 1u);
}

}  // namespace
}  // namespace pulse::sim
