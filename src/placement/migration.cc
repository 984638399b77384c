#include "placement/migration.h"

#include <utility>

namespace pulse::placement {

MigrationEngine::MigrationEngine(sim::EventQueue& queue,
                                 net::Network& network,
                                 mem::GlobalMemory& memory,
                                 mem::ClusterAllocator& allocator,
                                 core::OwnershipAuthority& ownership,
                                 std::vector<mem::ChannelSet*> channels,
                                 const core::CopyConfig& copy)
    : memory_(memory), allocator_(allocator), ownership_(ownership),
      copier_(queue, network, memory, std::move(channels), copy,
              core::CopyCounters{stats_.chunks_sent,
                                 stats_.chunks_retransmitted,
                                 stats_.bytes_copied})
{
}

bool
MigrationEngine::start(VirtAddr va_base, Bytes length, NodeId dst,
                       std::function<void(bool)> on_done)
{
    if (copier_.active() || length == 0 || dst >= memory_.num_nodes() ||
        !memory_.address_map().node_for(va_base).has_value()) {
        return false;
    }
    // PLAN: the span must be contiguously placed on one (other) node
    // and fully backed (below the owner's bump frontier), and the
    // cutover's TCAM updates must be guaranteed before anything moves.
    const mem::Placement p =
        memory_.address_map().placement_for(va_base);
    if (p.node == dst || p.contiguous < length ||
        p.phys + length > allocator_.allocated_on(p.node) ||
        !ownership_.can_transfer(va_base, length, p.node, dst)) {
        return false;
    }
    const Bytes dst_phys =
        allocator_.alloc_backing(dst, length, core::kBackingAlign);
    if (dst_phys == mem::ClusterAllocator::kNoBacking) {
        return false;
    }
    stats_.started.increment();

    const core::CopySpan span{va_base, length, p.node, dst, dst_phys};
    copier_.start(span, [this, span, on_done = std::move(on_done)](
                            bool copied) {
        if (copied) {
            cutover(span);
        } else {
            allocator_.free_backing(span.dst, span.dst_phys, span.length);
            stats_.aborted.increment();
        }
        if (on_done) {
            on_done(copied);
        }
    });
    return true;
}

void
MigrationEngine::cutover(const core::CopySpan& span)
{
    const core::TransferResult result =
        ownership_.transfer_ownership(core::OwnershipTransfer{
            span.va_base, span.length, span.src, span.dst, span.dst_phys,
            /*cutover=*/true});
    if (result.remapped) {
        stats_.remaps_installed.increment();
    }
    stats_.replay_entries_handed_off.increment(result.digest_entries);
    stats_.completed.increment();
}

}  // namespace pulse::placement
