/**
 * @file
 * The span-transfer primitives every plane builds on (core/transfer.h):
 * SpanCopier's chunk accounting, retransmit budget and cancellation,
 * and OwnershipAuthority::transfer_ownership keeping the AddressMap,
 * switch overlay and TCAMs in agreement for a migration away, a
 * migration home and a failover span.
 */
#include <gtest/gtest.h>

#include <vector>

#include "core/cluster.h"
#include "core/transfer.h"

namespace pulse::core {
namespace {

constexpr Bytes kSlab = 64 * kKiB;

/** Counters a test copier charges, as a plane's stats would. */
struct Counters
{
    Counter chunks_sent;
    Counter chunks_retransmitted;
    Counter bytes_copied;

    CopyCounters refs()
    {
        return CopyCounters{chunks_sent, chunks_retransmitted,
                            bytes_copied};
    }
};

std::vector<mem::ChannelSet*>
channels_of(Cluster& cluster)
{
    std::vector<mem::ChannelSet*> channels;
    for (NodeId node = 0; node < cluster.memory().num_nodes(); node++) {
        channels.push_back(&cluster.channels(node));
    }
    return channels;
}

std::vector<std::uint8_t>
pattern(Bytes length, unsigned salt)
{
    std::vector<std::uint8_t> bytes(length);
    for (Bytes i = 0; i < length; i++) {
        bytes[i] = static_cast<std::uint8_t>(i * 131 + salt);
    }
    return bytes;
}

/** A 2-node cluster with one written slab on node 0 and backing for
 *  it reserved on node 1. */
struct CopyFixture
{
    explicit CopyFixture(const ClusterConfig& config) : cluster(config)
    {
        va = cluster.allocator().alloc_on(0, kSlab, kSlab);
        data = pattern(kSlab, 7);
        cluster.memory().write(va, data.data(), data.size());
        dst_phys = cluster.allocator().alloc_backing(1, kSlab,
                                                     kBackingAlign);
    }

    CopySpan span() const { return CopySpan{va, kSlab, 0, 1, dst_phys}; }

    std::vector<std::uint8_t> landed()
    {
        std::vector<std::uint8_t> bytes(kSlab);
        cluster.memory().node(1).read(dst_phys, bytes.data(), kSlab);
        return bytes;
    }

    Cluster cluster;
    VirtAddr va = kNullAddr;
    Bytes dst_phys = 0;
    std::vector<std::uint8_t> data;
};

ClusterConfig
two_nodes()
{
    ClusterConfig config;
    config.num_mem_nodes = 2;
    return config;
}

TEST(SpanCopier, CleanLinkSendsEachChunkOnce)
{
    CopyFixture f(two_nodes());
    Counters counters;
    SpanCopier copier(f.cluster.queue(), f.cluster.network(),
                      f.cluster.memory(), channels_of(f.cluster),
                      CopyConfig{}, counters.refs());
    int calls = 0;
    bool copied = false;
    copier.start(f.span(), [&](bool ok) {
        calls++;
        copied = ok;
    });
    EXPECT_TRUE(copier.active());
    f.cluster.queue().run();

    EXPECT_EQ(calls, 1);
    EXPECT_TRUE(copied);
    EXPECT_FALSE(copier.active());
    const std::uint64_t chunks = kSlab / CopyConfig{}.chunk_bytes;
    EXPECT_EQ(counters.chunks_sent.value(), chunks);
    EXPECT_EQ(counters.chunks_retransmitted.value(), 0u);
    EXPECT_EQ(counters.bytes_copied.value(), kSlab);
    EXPECT_EQ(f.landed(), f.data);
}

TEST(SpanCopier, LossyLinkAccountsEveryRetransmit)
{
    ClusterConfig config = two_nodes();
    config.faults.links.loss = 0.3;
    CopyFixture f(config);
    Counters counters;
    CopyConfig copy;
    copy.rto = micros(5.0);
    copy.max_retries = 1000;
    SpanCopier copier(f.cluster.queue(), f.cluster.network(),
                      f.cluster.memory(), channels_of(f.cluster), copy,
                      counters.refs());
    bool copied = false;
    copier.start(f.span(), [&](bool ok) { copied = ok; });
    f.cluster.queue().run();

    ASSERT_TRUE(copied);
    // Every chunk goes out once as a first send; every other send is a
    // retransmit, and each one carries a full chunk again.
    const std::uint64_t chunks = kSlab / copy.chunk_bytes;
    EXPECT_GT(counters.chunks_retransmitted.value(), 0u);
    EXPECT_EQ(counters.chunks_sent.value(),
              chunks + counters.chunks_retransmitted.value());
    EXPECT_EQ(counters.bytes_copied.value(),
              counters.chunks_sent.value() * copy.chunk_bytes);
    EXPECT_EQ(f.landed(), f.data);
}

TEST(SpanCopier, AbortsAfterMaxRetries)
{
    ClusterConfig config = two_nodes();
    config.faults.links.loss = 1.0;  // every chunk and ack dies
    CopyFixture f(config);
    Counters counters;
    CopyConfig copy;
    copy.rto = micros(2.0);
    copy.max_retries = 5;
    SpanCopier copier(f.cluster.queue(), f.cluster.network(),
                      f.cluster.memory(), channels_of(f.cluster), copy,
                      counters.refs());
    int calls = 0;
    bool copied = true;
    copier.start(f.span(), [&](bool ok) {
        calls++;
        copied = ok;
    });
    f.cluster.queue().run();

    EXPECT_EQ(calls, 1);
    EXPECT_FALSE(copied);
    EXPECT_FALSE(copier.active());
    // The window's first sends, then exactly max_retries retransmits:
    // the timer that would have been retry max_retries + 1 aborts.
    EXPECT_EQ(counters.chunks_retransmitted.value(), copy.max_retries);
    EXPECT_EQ(counters.chunks_sent.value(),
              copy.window + copy.max_retries);
    EXPECT_NE(f.landed(), f.data);  // nothing landed
}

TEST(SpanCopier, CancelQuenchesStaleChunksAcksAndTimers)
{
    CopyFixture f(two_nodes());
    Counters counters;
    SpanCopier copier(f.cluster.queue(), f.cluster.network(),
                      f.cluster.memory(), channels_of(f.cluster),
                      CopyConfig{}, counters.refs());
    int first_calls = 0;
    copier.start(f.span(), [&](bool ok) {
        first_calls++;
        EXPECT_FALSE(ok);
    });
    // Let the first chunks get onto the wire, then cancel mid-copy.
    f.cluster.queue().run_until(nanos(500.0));
    ASSERT_TRUE(copier.active());
    copier.cancel();
    EXPECT_EQ(first_calls, 1);
    EXPECT_FALSE(copier.active());
    const std::uint64_t sent_before = counters.chunks_sent.value();
    EXPECT_GT(sent_before, 0u);

    // A new copy starts at once; the cancelled copy's in-flight
    // chunks, acks and RTO timers must not count toward it.
    int second_calls = 0;
    bool copied = false;
    copier.start(f.span(), [&](bool ok) {
        second_calls++;
        copied = ok;
    });
    f.cluster.queue().run();
    EXPECT_EQ(first_calls, 1);
    EXPECT_EQ(second_calls, 1);
    EXPECT_TRUE(copied);
    const std::uint64_t chunks = kSlab / CopyConfig{}.chunk_bytes;
    EXPECT_EQ(counters.chunks_sent.value(), sent_before + chunks);
    EXPECT_EQ(counters.chunks_retransmitted.value(), 0u);
    EXPECT_EQ(f.landed(), f.data);

    // Cancelling an idle copier is a no-op.
    copier.cancel();
    EXPECT_EQ(second_calls, 1);
}

/** Map, switch and TCAMs name the same owner (and phys) for @p va. */
void
expect_agreement(Cluster& cluster, VirtAddr va, NodeId owner, Bytes phys)
{
    const mem::AddressMap& map = cluster.memory().address_map();
    EXPECT_EQ(*map.node_for(va), owner);
    EXPECT_EQ(map.placement_for(va).phys, phys);
    EXPECT_EQ(*cluster.network().switch_table().lookup(va), owner);
    EXPECT_EQ(cluster.network().switch_table().num_overlay_rules(),
              map.remaps().size());
    for (NodeId node = 0; node < cluster.memory().num_nodes(); node++) {
        const mem::TranslateResult t =
            cluster.accelerator(node).tcam().translate(va,
                                                       mem::Perm::kRead);
        if (node == owner) {
            EXPECT_EQ(t.status, mem::TranslateStatus::kOk);
            EXPECT_EQ(t.phys, phys);
        } else {
            EXPECT_EQ(t.status, mem::TranslateStatus::kMiss);
        }
    }
}

TEST(OwnershipAuthority, MigrationAwayAndHomeKeepRoutesInAgreement)
{
    Cluster cluster(two_nodes());
    OwnershipAuthority& ownership = cluster.ownership();
    int cutovers = 0;
    ownership.set_cutover_observer([&] { cutovers++; });
    mem::ClusterAllocator& allocator = cluster.allocator();
    const mem::AddressMap& map = cluster.memory().address_map();
    const VirtAddr va = allocator.alloc_on(0, kSlab, kSlab);
    const Bytes home_phys = map.offset_in_region(va);

    // Away: node 0 -> reserved backing on node 1.
    const Bytes away = allocator.alloc_backing(1, kSlab, kBackingAlign);
    ASSERT_TRUE(ownership.can_transfer(va, kSlab, 0, 1));
    TransferResult result = ownership.transfer_ownership(
        OwnershipTransfer{va, kSlab, 0, 1, away, /*cutover=*/true});
    EXPECT_TRUE(result.remapped);
    EXPECT_EQ(map.remaps().size(), 1u);
    expect_agreement(cluster, va, 1, away);
    EXPECT_EQ(allocator.free_list_bytes(0), kSlab);  // frame retired
    EXPECT_EQ(cutovers, 1);

    // Home: the retired home frame is the first fit, so the overlay
    // dissolves instead of stacking a second redirect.
    const Bytes back = allocator.alloc_backing(0, kSlab, kBackingAlign);
    ASSERT_EQ(back, home_phys);
    ASSERT_TRUE(ownership.can_transfer(va, kSlab, 1, 0));
    result = ownership.transfer_ownership(
        OwnershipTransfer{va, kSlab, 1, 0, back, /*cutover=*/true});
    EXPECT_FALSE(result.remapped);
    EXPECT_TRUE(map.remaps().empty());
    expect_agreement(cluster, va, 0, home_phys);
    EXPECT_EQ(cluster.accelerator(0).tcam().size(), 1u);  // coalesced
    EXPECT_EQ(allocator.free_list_bytes(1), kSlab);
    EXPECT_EQ(cutovers, 2);
}

TEST(OwnershipAuthority, FailoverSpanReroutesWithoutRetiring)
{
    Cluster cluster(two_nodes());
    OwnershipAuthority& ownership = cluster.ownership();
    int cutovers = 0;
    ownership.set_cutover_observer([&] { cutovers++; });
    mem::ClusterAllocator& allocator = cluster.allocator();
    const VirtAddr va = allocator.alloc_on(0, 2 * kSlab, kSlab);
    const Bytes replica = allocator.alloc_backing(1, 2 * kSlab,
                                                  kBackingAlign);

    // Node 0 died: its second slab fails over to the replica.
    const VirtAddr span = va + kSlab;
    ASSERT_TRUE(ownership.can_transfer(span, kSlab, 0, 1));
    const TransferResult result =
        ownership.transfer_ownership(OwnershipTransfer{
            span, kSlab, 0, 1, replica + kSlab, /*cutover=*/false});
    EXPECT_TRUE(result.remapped);
    EXPECT_EQ(result.digest_entries, 0u);
    expect_agreement(cluster, span, 1, replica + kSlab);
    // The untouched first slab still routes home.
    expect_agreement(cluster, va,
                     0, cluster.memory().address_map().offset_in_region(va));
    // A dead source's frames stay reserved, and no cutover is seen.
    EXPECT_EQ(allocator.free_list_bytes(0), 0u);
    EXPECT_EQ(cutovers, 0);
}

TEST(OwnershipAuthority, RefusesTransferWithoutDestinationTcamRoom)
{
    ClusterConfig config = two_nodes();
    config.accel.tcam_entries = 1;  // node region only
    Cluster cluster(config);
    const VirtAddr va = cluster.allocator().alloc_on(0, kSlab, kSlab);
    EXPECT_FALSE(cluster.ownership().can_transfer(va, kSlab, 0, 1));
}

}  // namespace
}  // namespace pulse::core
