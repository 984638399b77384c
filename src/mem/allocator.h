/**
 * @file
 * Disaggregated-memory allocator with the two placement policies the
 * paper evaluates (supplementary Fig. 2).
 *
 * The paper does not innovate on allocation (section 2.2): it uses
 * glibc-style load-balanced allocation across nodes, and additionally
 * evaluates an application-directed *partitioned* policy that keeps
 * logically-adjacent data (e.g. half a B+Tree) on one node. We provide
 * both:
 *   - kUniform: each allocation picks a node uniformly at random.
 *   - kPartitioned: the caller pins each allocation to an explicit node
 *     (data-structure builders derive the node from keys/subtrees).
 *
 * Within a node this is a bump allocator with alignment; the evaluation
 * never frees mid-run (builders populate once, then the workload is
 * read-mostly), matching the paper's setup. The exception is backing
 * store past the bump frontier: live migration reserves a slab's new
 * home and replication reserves each replica with alloc_backing, and
 * the ownership transfer (core/transfer.h) returns a vacated frame
 * with free_backing, so repeated rebalancing reuses addresses instead
 * of leaking the old ranges. The allocator records every live backing
 * reservation, so a vacated home frame returns only its own bytes,
 * never a range reserved for another span (a replica or a slab
 * migrated in), even when a later alloc_on moved the application
 * frontier past that reservation.
 */
#ifndef PULSE_MEM_ALLOCATOR_H
#define PULSE_MEM_ALLOCATOR_H

#include <vector>

#include "common/random.h"
#include "common/serial.h"
#include "mem/address_map.h"

namespace pulse::mem {

/** Placement policy across memory nodes. */
enum class AllocPolicy {
    kUniform,      ///< glibc-like: uniform-random node per allocation
    kPartitioned,  ///< application-directed: caller chooses the node
};

/** Bump allocator over the cluster VA space. */
class ClusterAllocator
{
  public:
    /**
     * Create an allocator over @p map using @p policy. @p seed controls
     * the uniform policy's node choice.
     *
     * @param uniform_chunk_bytes arena granularity of the uniform
     *        policy: allocations fill a slab on one random node before
     *        a new random node is drawn (glibc-arena-like locality).
     *        0 draws a fresh random node per allocation — the fully
     *        "random" policy of the paper's supplementary Fig. 2.
     */
    ClusterAllocator(const AddressMap& map, AllocPolicy policy,
                     std::uint64_t seed = 1,
                     Bytes uniform_chunk_bytes = 0);

    /** Active policy. */
    AllocPolicy policy() const { return policy_; }

    /**
     * Allocate @p size bytes, aligned to @p align. Under kPartitioned
     * this round-robins nodes (callers who care use alloc_on); under
     * kUniform it picks a random node. Returns kNullAddr when every
     * node is exhausted.
     */
    VirtAddr alloc(Bytes size, Bytes align = 8);

    /** Allocate @p size bytes on a specific node. */
    VirtAddr alloc_on(NodeId node, Bytes size, Bytes align = 8);

    /** Bytes allocated so far on @p node (application data plus any
     *  backing store taken from the bump frontier). */
    Bytes allocated_on(NodeId node) const;

    /**
     * Frontier of *application* allocation on @p node: the highest
     * offset reached by alloc/alloc_on, excluding backing-store
     * reservations (alloc_backing). Planes that treat a node's
     * allocation prefix as traversable application data (replication)
     * must use this, not allocated_on — backing store holds byte
     * copies of data homed elsewhere and must never be re-replicated.
     */
    Bytes app_allocated_on(NodeId node) const;

    /** Total bytes allocated. */
    Bytes total_allocated() const;

    /** Remaining capacity on @p node. */
    Bytes free_on(NodeId node) const;

    /**
     * Reserve @p size bytes of node-local backing store on @p node for
     * a migrated slab or a replica. Prefers ranges recycled by free_backing (first
     * fit) and falls back to the bump frontier. Returns the node-local
     * physical offset, or kNullAddr-equivalent failure as
     * @c Bytes(-1) when the node is exhausted.
     */
    static constexpr Bytes kNoBacking = static_cast<Bytes>(-1);
    Bytes alloc_backing(NodeId node, Bytes size, Bytes align = 8);

    /**
     * Return a backing range reserved by alloc_backing (or vacated by
     * migrating a slab off @p node) to the node's free list, merging
     * with adjacent free ranges so the space is reusable at full size.
     * Whatever part of the range was reserved stops being reserved.
     */
    void free_backing(NodeId node, Bytes offset, Bytes size);

    /**
     * Return the allocated bytes of [@p offset, @p offset + @p size) on
     * @p node (those below the bump frontier) that no live backing
     * reservation covers and that are not already free: the retire of
     * a vacated home frame, whose own bytes may interleave with backing
     * reserved for other spans.
     */
    void free_unreserved(NodeId node, Bytes offset, Bytes size);

    /**
     * Drop the reservation of [@p offset, @p offset + @p size) on
     * @p node without freeing it: a span that moved back into its home
     * frame is application data again, not backing.
     */
    void unreserve(NodeId node, Bytes offset, Bytes size);

    /** Total bytes currently sitting in @p node's free list. */
    Bytes free_list_bytes(NodeId node) const;

    /** Checkpoint support (core/checkpoint.h). */
    void save_state(StateWriter& writer) const;
    void load_state(StateReader& reader);

  private:
    /** One byte range of a node's backing store. */
    struct Range
    {
        Bytes offset = 0;
        Bytes size = 0;
    };

    /** Record a live reservation (alloc_backing). */
    void reserve(NodeId node, Bytes offset, Bytes size);

    /** Put a range on the node's free list, merging neighbours. */
    void release(NodeId node, Bytes offset, Bytes size);

    const AddressMap& map_;
    AllocPolicy policy_;
    Rng rng_;
    Bytes chunk_bytes_;
    std::vector<Bytes> bump_;  // next free offset per node
    std::vector<Bytes> app_high_;  // frontier sans backing store
    std::vector<std::vector<Range>> free_lists_;  // sorted by offset
    /** Live alloc_backing reservations per node, sorted by offset. */
    std::vector<std::vector<Range>> reserved_;
    NodeId round_robin_ = 0;
    VirtAddr chunk_next_ = kNullAddr;  // uniform-policy slab cursor
    VirtAddr chunk_end_ = kNullAddr;
};

}  // namespace pulse::mem

#endif  // PULSE_MEM_ALLOCATOR_H
