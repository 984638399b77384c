/**
 * @file
 * The two mechanisms every change of a span's home is built from;
 * migration, failover and re-replication are policies over them
 * (docs/PLACEMENT.md, docs/REPLICATION.md).
 *
 *   - SpanCopier: the chunked COPY of a span into backing reserved on
 *     another node, through both nodes' DRAM channels and the fabric
 *     (so the fault plane applies), with a selective-repeat window,
 *     per-chunk RTO and an abort after too many retries. The bytes
 *     land in one atomic functional copy once every chunk is acked, so
 *     stores racing the copy can never leak stale data.
 *   - OwnershipAuthority::transfer_ownership: the one place a span's
 *     owner changes. The AddressMap flips first (the authority), the
 *     switch overlay and both TCAMs are derived from it, so the
 *     route-agreement audit always sees the three in lockstep.
 */
#ifndef PULSE_CORE_TRANSFER_H
#define PULSE_CORE_TRANSFER_H

#include <cstdint>
#include <functional>
#include <optional>
#include <utility>
#include <vector>

#include "accel/replay_window.h"
#include "common/stats.h"
#include "common/units.h"
#include "mem/allocator.h"
#include "mem/global_memory.h"
#include "mem/memory_channel.h"
#include "mem/range_tcam.h"
#include "net/network.h"
#include "sim/event_queue.h"

namespace pulse::core {

/** Knobs of the span copy, shared by migration and replication. */
struct CopyConfig
{
    /** Transfer granularity over the network. */
    Bytes chunk_bytes = 16 * kKiB;

    /** Chunks kept in flight (selective-repeat window). */
    std::uint32_t window = 4;

    /** Retransmit timeout for an unacked chunk. Generous: a migration
     *  source is by definition a congested node, so its channel queue
     *  alone can delay a chunk tens of microseconds — a tight RTO
     *  would retransmit every chunk. */
    Time rto = micros(50.0);

    /** Total chunk retransmissions before the copy aborts. */
    std::uint32_t max_retries = 32;
};

/** Copy acks carry a chunk id + checksum: a NIC-header-sized frame. */
inline constexpr Bytes kCopyAckBytes = 64;

/** Reserved backing keeps data-structure node alignment. */
inline constexpr Bytes kBackingAlign = 256;

/** The copy-traffic counters of the plane that owns a copier. */
struct CopyCounters
{
    Counter& chunks_sent;
    Counter& chunks_retransmitted;  ///< losses/timeouts on copy traffic
    Counter& bytes_copied;          ///< timed copy-phase traffic
};

/** One span to copy into reserved backing. */
struct CopySpan
{
    VirtAddr va_base = 0;  ///< read placement-aware when the copy lands
    Bytes length = 0;
    NodeId src = kInvalidNode;  ///< owner whose channels serve the reads
    NodeId dst = kInvalidNode;
    Bytes dst_phys = 0;         ///< backing reserved at @c dst
};

/** Copies one span at a time (see the file comment). */
class SpanCopier
{
  public:
    SpanCopier(sim::EventQueue& queue, net::Network& network,
               mem::GlobalMemory& memory,
               std::vector<mem::ChannelSet*> channels,
               const CopyConfig& config, CopyCounters counters);
    SpanCopier(const SpanCopier&) = delete;
    SpanCopier& operator=(const SpanCopier&) = delete;

    /**
     * Begin copying @p span; no copy may be running. @p on_done fires
     * exactly once: true once the bytes landed at the destination,
     * false after an abort (too many retries) or cancel().
     */
    void start(const CopySpan& span, std::function<void(bool)> on_done);

    /** A copy is running. */
    bool active() const { return active_.has_value(); }

    /** The running copy; requires active(). */
    const CopySpan& span() const { return active_->span; }

    /** Abort the running copy now: on_done(false) fires, and its
     *  in-flight chunks, acks and timers become no-ops. */
    void cancel();

  private:
    struct Active
    {
        CopySpan span;
        std::vector<bool> acked;     // per chunk
        std::size_t next_unsent = 0; // chunk index
        std::size_t acked_count = 0;
        std::uint32_t retries = 0;
        std::function<void(bool)> on_done;
    };

    Bytes chunk_length(std::size_t chunk) const;
    void send_chunk(std::size_t chunk, bool retransmit);
    void on_chunk_delivered(std::uint64_t generation, std::size_t chunk);
    void on_ack(std::uint64_t generation, std::size_t chunk);
    void arm_rto(std::size_t chunk);
    void finish(bool copied);

    sim::EventQueue& queue_;
    net::Network& network_;
    mem::GlobalMemory& memory_;
    std::vector<mem::ChannelSet*> channels_;
    CopyConfig config_;
    CopyCounters counters_;
    std::optional<Active> active_;
    /** Bumped whenever a copy ends; stale timers/acks from a finished
     *  copy check it and become no-ops. */
    std::uint64_t generation_ = 0;
};

/** One change of owner of [va_base, va_base + length). */
struct OwnershipTransfer
{
    VirtAddr va_base = 0;
    Bytes length = 0;
    NodeId from = kInvalidNode;
    NodeId to = kInvalidNode;
    Bytes to_phys = 0;  ///< the span's backing at @c to

    /**
     * A migration cutover: the source is alive and hands over. Its
     * replay digest moves to the destination (a retransmit chasing the
     * span replays instead of re-executing), its vacated frame returns
     * to the allocator, and the cutover observer fires. A failover
     * (false) takes over from a dead source: digest mirroring already
     * covered its window, and its frames stay reserved.
     */
    bool cutover = false;
};

/** What one transfer did. */
struct TransferResult
{
    bool remapped = false;  ///< left an overlay (not a move home)
    std::size_t digest_entries = 0;  ///< replay entries handed over
};

/** The single authority over which node owns a span. */
class OwnershipAuthority
{
  public:
    OwnershipAuthority(mem::GlobalMemory& memory,
                       mem::ClusterAllocator& allocator,
                       net::SwitchTable& switch_table,
                       std::vector<mem::RangeTcam*> tcams,
                       std::vector<accel::ReplayWindow*> replay_windows);

    /**
     * Both TCAM updates of moving the span from @p from to @p to are
     * guaranteed, so a transfer can never half-fail: the source entry
     * is punchable and the destination has a free slot (coalescing may
     * make the slot unnecessary, but the check is conservative).
     */
    bool can_transfer(VirtAddr va_base, Bytes length, NodeId from,
                      NodeId to) const;

    /** Move ownership in the current event; requires can_transfer. */
    TransferResult transfer_ownership(const OwnershipTransfer& transfer);

    /** Fires after every cutover (OwnershipTransfer::cutover). */
    void set_cutover_observer(std::function<void()> fn)
    {
        cutover_observer_ = std::move(fn);
    }

  private:
    mem::GlobalMemory& memory_;
    mem::ClusterAllocator& allocator_;
    net::SwitchTable& switch_table_;
    std::vector<mem::RangeTcam*> tcams_;
    std::vector<accel::ReplayWindow*> replay_windows_;
    std::function<void()> cutover_observer_;
};

}  // namespace pulse::core

#endif  // PULSE_CORE_TRANSFER_H
