/**
 * @file
 * Tests for the accelerator's exactly-once replay window: verdict
 * state machine, per-client FIFO eviction, wraparound behaviour of a
 * tiny window, and cluster-level exactly-once CAS execution under
 * fault-injected duplication with a window small enough to evict
 * mid-run.
 */
#include <gtest/gtest.h>

#include <memory>

#include "accel/replay_window.h"
#include "check/fuzzer.h"
#include "core/cluster.h"
#include "isa/program.h"

namespace pulse::accel {
namespace {

ReplayWindow::Key
key(ClientId client, std::uint64_t seq, std::uint64_t visit = 0)
{
    return {{client, seq}, visit};
}

net::TraversalPacket
response_for(const ReplayWindow::Key& k)
{
    net::TraversalPacket packet;
    packet.id = k.id;
    packet.is_response = true;
    packet.iterations_done = k.visit + 1;
    return packet;
}

TEST(ReplayWindow, VerdictStateMachine)
{
    ReplayWindow window(4);
    const auto k = key(0, 1);

    EXPECT_EQ(window.classify(k), ReplayWindow::Verdict::kNew);
    window.mark_in_progress(k);
    EXPECT_EQ(window.classify(k), ReplayWindow::Verdict::kInProgress);
    EXPECT_EQ(window.cached_response(k), nullptr);

    window.record_response(k, response_for(k));
    EXPECT_EQ(window.classify(k), ReplayWindow::Verdict::kCached);
    const net::TraversalPacket* cached = window.cached_response(k);
    ASSERT_NE(cached, nullptr);
    EXPECT_EQ(cached->id, k.id);
    EXPECT_TRUE(cached->is_response);
}

TEST(ReplayWindow, UnmarkAllowsReexecution)
{
    // Admission-queue overflow path: the packet never executed, so a
    // retransmit must be allowed to run later.
    ReplayWindow window(4);
    const auto k = key(1, 7);
    window.mark_in_progress(k);
    EXPECT_EQ(window.classify(k), ReplayWindow::Verdict::kInProgress);
    window.unmark(k);
    EXPECT_EQ(window.classify(k), ReplayWindow::Verdict::kNew);
    EXPECT_EQ(window.size(), 0u);
}

TEST(ReplayWindow, ForgetDropsCompletedEntries)
{
    // A cached zero-progress kNotLocal bounce must be droppable even
    // though it is done: if the node has become the owner since (slab
    // migrated here, or the entry arrived via a cutover handoff),
    // replaying the bounce would ping-pong the packet between switch
    // and accelerator forever — the accelerator forgets the entry and
    // re-executes the visit under current routes instead.
    ReplayWindow window(4);
    const auto k = key(2, 3);
    window.mark_in_progress(k);
    net::TraversalPacket bounce = response_for(k);
    bounce.status = isa::TraversalStatus::kNotLocal;
    bounce.iterations_done = k.visit;  // no iteration ran
    window.record_response(k, bounce);
    EXPECT_EQ(window.classify(k), ReplayWindow::Verdict::kCached);

    window.forget(k);
    EXPECT_EQ(window.classify(k), ReplayWindow::Verdict::kNew);
    EXPECT_EQ(window.size(), 0u);
    window.forget(k);  // idempotent on a missing key
    EXPECT_EQ(window.classify(k), ReplayWindow::Verdict::kNew);
}

TEST(ReplayWindow, DistinctVisitsAreDistinctKeys)
{
    // A multi-hop traversal legitimately revisits a node with a larger
    // iterations_done; only byte-identical duplicates may collide.
    ReplayWindow window(8);
    const auto v0 = key(0, 5, 0);
    const auto v3 = key(0, 5, 3);
    window.mark_in_progress(v0);
    window.record_response(v0, response_for(v0));
    EXPECT_EQ(window.classify(v0), ReplayWindow::Verdict::kCached);
    EXPECT_EQ(window.classify(v3), ReplayWindow::Verdict::kNew);
}

TEST(ReplayWindow, FifoEvictionWrapsPerClient)
{
    ReplayWindow window(/*per_client_entries=*/3);
    // Fill client 0's budget, then keep inserting: the oldest entry
    // must fall out each time (wraparound), newest three retained.
    for (std::uint64_t seq = 0; seq < 10; seq++) {
        const auto k = key(0, seq);
        EXPECT_EQ(window.classify(k), ReplayWindow::Verdict::kNew);
        window.mark_in_progress(k);
        window.record_response(k, response_for(k));
    }
    EXPECT_EQ(window.size(), 3u);
    // 7, 8, 9 survive; everything older reads as new again.
    for (std::uint64_t seq = 0; seq < 7; seq++) {
        EXPECT_EQ(window.classify(key(0, seq)),
                  ReplayWindow::Verdict::kNew);
    }
    for (std::uint64_t seq = 7; seq < 10; seq++) {
        EXPECT_EQ(window.classify(key(0, seq)),
                  ReplayWindow::Verdict::kCached);
    }

    // Budgets are per client: client 1 inserts never evict client 0.
    for (std::uint64_t seq = 0; seq < 3; seq++) {
        const auto k = key(1, seq);
        window.mark_in_progress(k);
        window.record_response(k, response_for(k));
    }
    EXPECT_EQ(window.size(), 6u);
    EXPECT_EQ(window.classify(key(0, 9)),
              ReplayWindow::Verdict::kCached);
}

isa::Program
cas_increment_program()
{
    isa::ProgramBuilder b;
    b.load(8)
        .add(isa::sp(8), isa::dat(0), isa::imm(1))
        .cas(0, isa::dat(0), isa::sp(8))
        .jump_eq("done")
        .next_iter()
        .label("done")
        .ret();
    return b.build();
}

TEST(ReplayWindowCluster, ExactlyOnceUnderDuplicationWithTinyWindow)
{
    // End to end: duplicate-heavy network, a replay window small
    // enough that eviction happens mid-run, and a CAS counter as the
    // witness — n increments must land exactly n times, and the
    // duplicate-execution invariant must stay quiet.
    core::ClusterConfig config;
    config.check.invariants = true;
    config.accel.replay_window_entries = 8;
    config.faults = check::fuzz_fault_config("dup", /*seed=*/21);
    config.offload.adaptive_rto = true;
    config.offload.retransmit_timeout = micros(2000.0);
    core::Cluster cluster(config);

    const VirtAddr counter = cluster.allocator().alloc_on(0, 8, 256);
    cluster.memory().write_as<std::uint64_t>(counter, 0);
    auto program =
        std::make_shared<const isa::Program>(cas_increment_program());

    const int n = 100;
    int done = 0;
    auto submit = cluster.submitter(core::SystemKind::kPulse);
    for (int i = 0; i < n; i++) {
        offload::Operation op;
        op.program = program;
        op.start_ptr = counter;
        op.init_scratch.assign(16, 0);
        op.done = [&](offload::Completion&& completion) {
            EXPECT_EQ(completion.status, isa::TraversalStatus::kDone);
            done++;
        };
        submit(std::move(op));
    }
    cluster.queue().run();

    EXPECT_EQ(done, n);
    EXPECT_EQ(cluster.memory().read_as<std::uint64_t>(counter),
              static_cast<std::uint64_t>(n));
    EXPECT_EQ(cluster.verify_quiesce(), 0u);
    EXPECT_EQ(cluster.checker()->registry().count(
                  check::InvariantKind::kDuplicateExecution),
              0u);
}

}  // namespace
}  // namespace pulse::accel
