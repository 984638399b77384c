/**
 * @file
 * Live slab migration between memory nodes (docs/PLACEMENT.md).
 *
 * One migration at a time runs the protocol
 *
 *   PLAN -> COPY -> DUAL -> CUTOVER -> RETIRE
 *
 * PLAN reserves destination backing from the allocator's free list /
 * bump frontier and pre-checks both TCAMs through the ownership
 * authority, so cutover can never half-fail. COPY streams the slab with
 * the shared SpanCopier (core/transfer.h); an aborted copy frees the
 * reserved backing. CUTOVER is a single atomic event: the copier lands
 * the authoritative bytes, then transfer_ownership flips the AddressMap,
 * switch overlay and TCAMs, hands the source's replay digest to the
 * destination and RETIREs the vacated source frame. DUAL is the window
 * where traversals that loaded before cutover store after it: the
 * source TCAM now misses, and the accelerator forwards the write to the
 * new owner through the placement plane instead of faulting. Overlays
 * persist until a later migration supersedes them.
 */
#ifndef PULSE_PLACEMENT_MIGRATION_H
#define PULSE_PLACEMENT_MIGRATION_H

#include <functional>
#include <vector>

#include "common/stats.h"
#include "core/transfer.h"
#include "mem/allocator.h"
#include "mem/global_memory.h"
#include "mem/memory_channel.h"
#include "net/network.h"
#include "sim/event_queue.h"

namespace pulse::placement {

/** Migration-engine statistics (exported under "placement."). */
struct MigrationStats
{
    Counter started;
    Counter completed;
    Counter aborted;
    Counter bytes_copied;          ///< timed copy-phase traffic
    Counter chunks_sent;
    Counter chunks_retransmitted;  ///< losses/timeouts on copy traffic
    Counter remaps_installed;      ///< cutovers that left an overlay
    Counter replay_entries_handed_off;  ///< dedup state moved at cutover
};

/** Executes one live slab migration at a time. */
class MigrationEngine
{
  public:
    MigrationEngine(sim::EventQueue& queue, net::Network& network,
                    mem::GlobalMemory& memory,
                    mem::ClusterAllocator& allocator,
                    core::OwnershipAuthority& ownership,
                    std::vector<mem::ChannelSet*> channels,
                    const core::CopyConfig& copy);

    /** A migration is currently in its copy phase. */
    bool active() const { return copier_.active(); }

    /**
     * Begin migrating [@p va_base, @p va_base + @p length) to
     * @p dst. Returns false (synchronously, nothing changed) when the
     * span is not contiguously placed on a single other node, is not
     * fully backed, either TCAM would refuse the cutover, or the
     * destination is out of memory. @p on_done fires exactly once with
     * success after cutover or failure after an abort.
     */
    bool start(VirtAddr va_base, Bytes length, NodeId dst,
               std::function<void(bool)> on_done);

    const MigrationStats& stats() const { return stats_; }
    void reset_stats() { stats_ = MigrationStats{}; }

  private:
    void cutover(const core::CopySpan& span);

    mem::GlobalMemory& memory_;
    mem::ClusterAllocator& allocator_;
    core::OwnershipAuthority& ownership_;
    MigrationStats stats_;
    core::SpanCopier copier_;
};

}  // namespace pulse::placement

#endif  // PULSE_PLACEMENT_MIGRATION_H
