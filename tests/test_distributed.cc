/**
 * @file
 * Deep tests of rack-scale distributed traversals (paper section 5):
 * scratchpad integrity across many continuation hops, 4-node routing,
 * loss during forwarding, hierarchical-translation consistency, and
 * per-visit budgets interacting with node crossings.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "core/cluster.h"
#include "ds/bptree.h"
#include "ds/linked_list.h"

namespace pulse::core {
namespace {

using isa::TraversalStatus;

offload::Completion
run_op(Cluster& cluster, offload::Operation op)
{
    offload::Completion result;
    bool done = false;
    op.done = [&](offload::Completion&& completion) {
        result = std::move(completion);
        done = true;
    };
    cluster.offload_engine().submit(std::move(op));
    cluster.queue().run();
    EXPECT_TRUE(done);
    return result;
}

/** A list that visits all nodes round-robin. */
ds::LinkedList
round_robin_list(Cluster& cluster, std::uint64_t length,
                 std::uint32_t nodes)
{
    ds::LinkedList list(cluster.memory(), cluster.allocator());
    for (std::uint64_t v = 0; v < length; v++) {
        list.build({v}, static_cast<NodeId>(v % nodes));
    }
    return list;
}

TEST(Distributed, ScratchpadStateSurvivesEveryHop)
{
    // The walk program accumulates state (remaining counter + last
    // value) in the scratch_pad across 63 cross-node continuations;
    // any lost or stale byte would corrupt the count.
    ClusterConfig config;
    config.num_mem_nodes = 4;
    Cluster cluster(config);
    ds::LinkedList list = round_robin_list(cluster, 64, 4);

    const auto completion = run_op(cluster, list.make_walk(64, {}));
    ASSERT_EQ(completion.status, TraversalStatus::kDone);
    EXPECT_EQ(completion.iterations, 64u);
    std::uint64_t last = 0;
    std::memcpy(&last,
                completion.scratch.data() + ds::LinkedList::kSpLast, 8);
    EXPECT_EQ(last, 63u);
    // All four accelerators took part.
    for (NodeId node = 0; node < 4; node++) {
        EXPECT_GT(cluster.accelerator(node).stats().loads.value(), 0u)
            << "node " << node;
    }
}

TEST(Distributed, FourNodeRoutingIsExact)
{
    ClusterConfig config;
    config.num_mem_nodes = 4;
    Cluster cluster(config);
    ds::LinkedList list = round_robin_list(cluster, 16, 4);
    run_op(cluster, list.make_walk(16, {}));
    // Each node performed exactly its share of the 16 loads.
    for (NodeId node = 0; node < 4; node++) {
        EXPECT_EQ(cluster.accelerator(node).stats().loads.value(), 4u);
    }
    // 15 hops cross nodes (round-robin never stays local).
    std::uint64_t forwards = 0;
    for (NodeId node = 0; node < 4; node++) {
        forwards +=
            cluster.accelerator(node).stats().forwards_sent.value();
    }
    EXPECT_EQ(forwards, 15u);
}

TEST(Distributed, LossDuringForwardingIsRecovered)
{
    ClusterConfig config;
    config.num_mem_nodes = 2;
    // Each walk is ~26 packets end to end (every hop forwards), so
    // per-attempt success is loss^26-ish; 2% loss leaves ~59% per
    // attempt and retransmission recovers essentially everything. The
    // fault plane judges the uplink and then the downlink, so 2% per
    // packet end to end is 1 - sqrt(0.98) per link.
    config.faults.links.loss = 1.0 - std::sqrt(1.0 - 0.02);
    config.offload.retransmit_timeout = micros(400.0);
    Cluster cluster(config);
    ds::LinkedList list = round_robin_list(cluster, 24, 2);

    int successes = 0;
    for (int trial = 0; trial < 20; trial++) {
        const auto completion =
            run_op(cluster, list.make_walk(24, {}));
        if (completion.status == TraversalStatus::kDone) {
            std::uint64_t last = 0;
            std::memcpy(&last,
                        completion.scratch.data() +
                            ds::LinkedList::kSpLast,
                        8);
            EXPECT_EQ(last, 23u);  // retries never corrupt results
            successes++;
        }
    }
    EXPECT_GE(successes, 19);
    EXPECT_GT(cluster.offload_engine().stats().retransmits.value(),
              0u);
}

TEST(Distributed, PerVisitBudgetSpansNodeCrossings)
{
    // A 2-node round-robin list longer than MAX_ITER: continuations
    // from both the iteration cap and node crossings interleave.
    ClusterConfig config;
    config.num_mem_nodes = 2;
    Cluster cluster(config);
    ds::LinkedList list = round_robin_list(cluster, 700, 2);

    const auto completion = run_op(cluster, list.make_find(699, {}));
    ASSERT_EQ(completion.status, TraversalStatus::kDone);
    EXPECT_EQ(completion.iterations, 700u);
    std::uint64_t found = 0;
    std::memcpy(&found,
                completion.scratch.data() + ds::LinkedList::kSpResult,
                8);
    EXPECT_EQ(found, *list.find_reference(699));
}

TEST(Distributed, SwitchTableConsistentWithTcams)
{
    // Hierarchical translation invariant: any VA the switch maps to a
    // node must translate in that node's TCAM, and vice versa.
    ClusterConfig config;
    config.num_mem_nodes = 3;
    Cluster cluster(config);
    Rng rng(4);
    const auto& map = cluster.memory().address_map();
    for (int i = 0; i < 2000; i++) {
        const VirtAddr va =
            mem::AddressMap::kDefaultBase +
            rng.next_below(3ull * config.node_capacity);
        const auto switch_node =
            cluster.network().switch_table().lookup(va);
        const auto map_node = map.node_for(va);
        ASSERT_EQ(switch_node.has_value(), map_node.has_value());
        if (switch_node) {
            EXPECT_EQ(*switch_node, *map_node);
            const auto translated =
                cluster.accelerator(*switch_node)
                    .tcam()
                    .translate(va, mem::Perm::kRead);
            EXPECT_EQ(translated.status,
                      mem::TranslateStatus::kOk);
            EXPECT_EQ(translated.phys, map.offset_in_region(va));
        }
    }
}

TEST(Distributed, PartitionedBPTreeCrossesOnlyAtTheSeam)
{
    // Partitioned placement: an aggregate window inside one partition
    // never crosses; a window spanning the partition boundary crosses
    // exactly once.
    ClusterConfig config;
    config.num_mem_nodes = 2;
    Cluster cluster(config);
    ds::BPTreeConfig tree_config;
    tree_config.inline_values = true;
    tree_config.partitioned = true;
    tree_config.partitions = 2;
    ds::BPTree tree(cluster.memory(), cluster.allocator(),
                    tree_config);
    std::vector<ds::BPTreeEntry> entries;
    for (std::uint64_t i = 1; i <= 2000; i++) {
        entries.push_back({i * 10, i});
    }
    tree.build(entries);

    const auto count_forwards = [&] {
        std::uint64_t forwards = 0;
        for (NodeId node = 0; node < 2; node++) {
            forwards += cluster.accelerator(node)
                            .stats()
                            .forwards_sent.value();
        }
        return forwards;
    };

    // Window fully inside partition 0 (low keys; the root also lives
    // on node 0): zero crossings.
    cluster.reset_stats();
    auto inside = run_op(cluster, tree.make_aggregate(
                                      ds::AggKind::kSum, 2'000,
                                      2'500, {}));
    ASSERT_EQ(inside.status, TraversalStatus::kDone);
    EXPECT_EQ(count_forwards(), 0u);

    // Window fully inside partition 1: exactly one crossing, during
    // the descent from the node-0 root into the node-1 subtree.
    cluster.reset_stats();
    auto far_side = run_op(cluster, tree.make_aggregate(
                                        ds::AggKind::kSum, 15'000,
                                        15'500, {}));
    ASSERT_EQ(far_side.status, TraversalStatus::kDone);
    EXPECT_EQ(count_forwards(), 1u);

    // Window spanning the seam: descends within node 0, crosses once
    // while walking the leaf chain into partition 1.
    cluster.reset_stats();
    auto spanning = run_op(cluster, tree.make_aggregate(
                                        ds::AggKind::kSum, 9'800,
                                        10'300, {}));
    ASSERT_EQ(spanning.status, TraversalStatus::kDone);
    EXPECT_EQ(count_forwards(), 1u);
    // And the result is still exact.
    EXPECT_EQ(
        ds::BPTree::parse_aggregate(spanning, ds::AggKind::kSum).value,
        tree.aggregate_reference(ds::AggKind::kSum, 9'800, 10'300)
            .value);
}

}  // namespace
}  // namespace pulse::core
