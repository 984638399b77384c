/**
 * @file
 * Duplicate-suppression window for the accelerator's network stack.
 *
 * The offload engine retransmits requests it believes lost, so the same
 * (request id, visit) can arrive at an accelerator more than once — via
 * a retransmitted request, a fault-injected duplicate, or a client
 * resend racing a slow response. Re-executing is harmless for read-only
 * traversals but wrong for programs with stores/CAS (a retransmitted
 * increment must not increment twice). The window makes execution
 * exactly-once per visit: the first arrival executes, concurrent
 * duplicates are suppressed, and duplicates of a completed visit get
 * the cached response replayed (which also repairs dropped inter-node
 * forwards, since the cached packet is the forward).
 *
 * A "visit" is (RequestId, iterations_done at arrival): iterations_done
 * grows monotonically along a traversal, so each legitimate revisit of
 * a node by a multi-hop traversal is a distinct key, while byte-for-byte
 * duplicates collide. Entries are evicted FIFO per client once the
 * per-client budget is exceeded, bounding memory like the real
 * accelerator's fixed-size reorder/dedup SRAM.
 */
#ifndef PULSE_ACCEL_REPLAY_WINDOW_H
#define PULSE_ACCEL_REPLAY_WINDOW_H

#include <cstddef>
#include <cstdint>
#include <deque>
#include <unordered_map>
#include <unordered_set>

#include "common/logging.h"
#include "common/pool_allocator.h"
#include "common/types.h"
#include "net/packet.h"

namespace pulse::accel {

/** Bounded exactly-once execution window (one per accelerator). */
class ReplayWindow
{
  public:
    /** One traversal visit: request id + iterations at arrival. */
    struct Key
    {
        RequestId id;
        std::uint64_t visit = 0;

        friend bool operator==(const Key&, const Key&) = default;
    };

    /** Hash for Key (public: the invariant checker keys sets by it). */
    struct KeyHash
    {
        std::size_t
        operator()(const Key& key) const noexcept
        {
            const std::size_t h = std::hash<RequestId>()(key.id);
            // splitmix-style avalanche of the visit into the id hash
            return h ^ (key.visit + 0x9e3779b97f4a7c15ull + (h << 6) +
                        (h >> 2));
        }
    };

    /** What the window knows about an arriving packet's visit. */
    enum class Verdict : std::uint8_t
    {
        kNew,         ///< never seen: execute it (and mark in progress)
        kInProgress,  ///< executing right now: suppress the duplicate
        kCached,      ///< finished: replay the recorded response
    };

    /** @param per_client_entries FIFO budget per client (>= 1). */
    explicit ReplayWindow(std::size_t per_client_entries)
        : capacity_(per_client_entries)
    {
        PULSE_ASSERT(capacity_ >= 1, "replay window needs >= 1 entry");
    }

    /** Classify @p key without modifying the window. */
    Verdict
    classify(const Key& key) const
    {
        const auto it = entries_.find(key);
        if (it == entries_.end()) {
            return Verdict::kNew;
        }
        return it->second.done ? Verdict::kCached
                               : Verdict::kInProgress;
    }

    /** Begin tracking @p key as executing (evicts FIFO if needed). */
    void mark_in_progress(const Key& key);

    /**
     * Drop @p key without recording a response (admission-queue
     * overflow: the packet was never executed, so a retransmit must be
     * allowed to execute later).
     */
    void unmark(const Key& key);

    /** Record the outgoing packet for @p key; later dups replay it. */
    void record_response(const Key& key, net::TraversalPacket response);

    /**
     * Erase @p key entirely, even if completed. Used when a cached
     * response must not be replayed: a zero-progress kNotLocal bounce
     * is a routing decision, not a side effect, and replaying it from
     * the node that now *owns* the data (slab migrated here, or the
     * entry was absorbed at a cutover) would ping-pong the packet
     * between switch and accelerator forever. The caller re-executes
     * the visit under current routes instead.
     */
    void forget(const Key& key);

    /** Cached response for @p key (nullptr unless Verdict::kCached). */
    const net::TraversalPacket* cached_response(const Key& key) const;

    /**
     * Copy every entry of @p donor into this window (migration
     * cutover: the reconfiguration message carries the source's replay
     * digest, so the exactly-once domain moves with the data — a
     * retransmitted request that chases a migrated slab to its new
     * owner replays the cached response instead of re-executing).
     * Entries this window already holds are kept as-is. Donor entries
     * still executing are absorbed as in-progress and marked handed
     * off in @p donor, so the donor's eventual completion (or
     * admission drop) can be mirrored here via import_completion /
     * unmark. Deterministic: clients ascending, FIFO within a client.
     * Returns the number of entries copied.
     */
    std::size_t absorb_from(ReplayWindow& donor);

    /**
     * Complete an absorbed in-progress entry with a response that was
     * produced on another node. No-op unless @p key is held here and
     * still in progress.
     */
    void import_completion(const Key& key,
                           const net::TraversalPacket& response);

    /**
     * True exactly once after @p key was handed off by absorb_from and
     * has not been consumed yet; clears the mark. The executing node
     * calls this when the visit completes or is dropped, to know
     * whether other windows hold an absorbed copy needing an update.
     */
    bool consume_handoff(const Key& key)
    {
        return handed_off_.erase(key) > 0;
    }

    std::size_t size() const { return entries_.size(); }

    /** Heap blocks the entry/order pools had to allocate (bench
     *  attribution: plateaus once the FIFO budget is reached). */
    std::uint64_t
    pool_fresh() const
    {
        std::uint64_t fresh = entries_.get_allocator().state()->fresh();
        for (const auto& [client, order] : order_) {
            fresh += order.get_allocator().state()->fresh();
        }
        return fresh;
    }

    /** Heap blocks recycled from the pools instead of the heap. */
    std::uint64_t
    pool_reused() const
    {
        std::uint64_t reused =
            entries_.get_allocator().state()->reused();
        for (const auto& [client, order] : order_) {
            reused += order.get_allocator().state()->reused();
        }
        return reused;
    }

  private:
    struct Entry
    {
        bool done = false;
        net::TraversalPacket response;
    };

    void evict_for(ClientId client);

    std::size_t capacity_;
    /**
     * Once the FIFO budget is reached, every visit is one insert plus
     * one eviction — pooled node recycling keeps that churn off the
     * heap (each Entry embeds a ~half-KiB cached packet).
     */
    std::unordered_map<Key, Entry, KeyHash, std::equal_to<Key>,
                       PoolAllocator<std::pair<const Key, Entry>>>
        entries_;
    /** Insertion order per client for FIFO eviction. */
    std::unordered_map<ClientId, std::deque<Key, PoolAllocator<Key>>>
        order_;
    /** In-progress visits absorbed elsewhere at a migration cutover;
     *  their completion must be mirrored to the absorbing windows. */
    std::unordered_set<Key, KeyHash> handed_off_;
};

}  // namespace pulse::accel

#endif  // PULSE_ACCEL_REPLAY_WINDOW_H
