#include "mem/allocator.h"

#include <algorithm>

#include "common/logging.h"

namespace pulse::mem {
namespace {

Bytes
align_up(Bytes value, Bytes align)
{
    PULSE_ASSERT(align > 0 && (align & (align - 1)) == 0,
                 "alignment must be a power of two");
    return (value + align - 1) & ~(align - 1);
}

}  // namespace

ClusterAllocator::ClusterAllocator(const AddressMap& map,
                                   AllocPolicy policy,
                                   std::uint64_t seed,
                                   Bytes uniform_chunk_bytes)
    : map_(map), policy_(policy), rng_(seed),
      chunk_bytes_(uniform_chunk_bytes), bump_(map.num_nodes(), 0),
      app_high_(map.num_nodes(), 0), free_lists_(map.num_nodes()),
      reserved_(map.num_nodes())
{
}

VirtAddr
ClusterAllocator::alloc(Bytes size, Bytes align)
{
    const std::uint32_t n = map_.num_nodes();

    // Slab-granular uniform placement: fill the current slab, then
    // draw a fresh random node for the next one.
    if (policy_ == AllocPolicy::kUniform && chunk_bytes_ > 0 &&
        size <= chunk_bytes_) {
        const VirtAddr aligned = (chunk_next_ + align - 1) &
                                 ~(static_cast<VirtAddr>(align) - 1);
        if (chunk_next_ != kNullAddr && aligned + size <= chunk_end_) {
            chunk_next_ = aligned + size;
            return aligned;
        }
        for (std::uint32_t i = 0; i < n; i++) {
            const NodeId node = static_cast<NodeId>(
                (rng_.next_below(n) + i) % n);
            const VirtAddr base =
                alloc_on(node, chunk_bytes_, align);
            if (base != kNullAddr) {
                chunk_next_ = base + size;
                chunk_end_ = base + chunk_bytes_;
                return base;
            }
        }
        return kNullAddr;
    }

    NodeId first;
    if (policy_ == AllocPolicy::kUniform) {
        first = static_cast<NodeId>(rng_.next_below(n));
    } else {
        first = round_robin_;
        round_robin_ = (round_robin_ + 1) % n;
    }
    // Fall over to subsequent nodes if the chosen one is full.
    for (std::uint32_t i = 0; i < n; i++) {
        const NodeId node = (first + i) % n;
        const VirtAddr va = alloc_on(node, size, align);
        if (va != kNullAddr) {
            return va;
        }
    }
    return kNullAddr;
}

VirtAddr
ClusterAllocator::alloc_on(NodeId node, Bytes size, Bytes align)
{
    PULSE_ASSERT(node < bump_.size(), "bad node id %u", node);
    PULSE_ASSERT(size > 0, "zero-size allocation");
    const Bytes start = align_up(bump_[node], align);
    if (start + size > map_.region_size()) {
        return kNullAddr;
    }
    bump_[node] = start + size;
    app_high_[node] = bump_[node];
    return map_.region(node).base + start;
}

Bytes
ClusterAllocator::allocated_on(NodeId node) const
{
    PULSE_ASSERT(node < bump_.size(), "bad node id %u", node);
    return bump_[node];
}

Bytes
ClusterAllocator::app_allocated_on(NodeId node) const
{
    PULSE_ASSERT(node < app_high_.size(), "bad node id %u", node);
    return app_high_[node];
}

Bytes
ClusterAllocator::total_allocated() const
{
    Bytes total = 0;
    for (const Bytes b : bump_) {
        total += b;
    }
    return total;
}

Bytes
ClusterAllocator::free_on(NodeId node) const
{
    PULSE_ASSERT(node < bump_.size(), "bad node id %u", node);
    return map_.region_size() - bump_[node];
}

Bytes
ClusterAllocator::alloc_backing(NodeId node, Bytes size, Bytes align)
{
    PULSE_ASSERT(node < bump_.size(), "bad node id %u", node);
    PULSE_ASSERT(size > 0, "zero-size backing allocation");
    // First fit in the recycled ranges.
    auto& holes = free_lists_[node];
    for (auto it = holes.begin(); it != holes.end(); ++it) {
        const Bytes start = align_up(it->offset, align);
        const Bytes waste = start - it->offset;
        if (waste + size > it->size) {
            continue;
        }
        const Bytes tail = it->size - waste - size;
        if (waste == 0 && tail == 0) {
            holes.erase(it);
        } else if (waste == 0) {
            it->offset = start + size;
            it->size = tail;
        } else if (tail == 0) {
            it->size = waste;
        } else {
            const Bytes tail_offset = start + size;
            it->size = waste;
            holes.insert(it + 1, Range{tail_offset, tail});
        }
        reserve(node, start, size);
        return start;
    }
    // Fall back to the bump frontier.
    const Bytes start = align_up(bump_[node], align);
    if (start + size > map_.region_size()) {
        return kNoBacking;
    }
    bump_[node] = start + size;
    reserve(node, start, size);
    return start;
}

void
ClusterAllocator::reserve(NodeId node, Bytes offset, Bytes size)
{
    auto& live = reserved_[node];
    live.insert(std::lower_bound(live.begin(), live.end(), offset,
                                 [](const Range& r, Bytes o) {
                                     return r.offset < o;
                                 }),
                Range{offset, size});
}

void
ClusterAllocator::unreserve(NodeId node, Bytes offset, Bytes size)
{
    PULSE_ASSERT(node < reserved_.size(), "bad node id %u", node);
    auto& live = reserved_[node];
    const Bytes end = offset + size;
    for (std::size_t i = 0; i < live.size() && live[i].offset < end;) {
        const Range r = live[i];
        const Bytes r_end = r.offset + r.size;
        if (r_end <= offset) {
            i++;
            continue;
        }
        // Keep whatever part of the reservation lies outside the range.
        live.erase(live.begin() + i);
        if (r_end > end) {
            live.insert(live.begin() + i, Range{end, r_end - end});
        }
        if (r.offset < offset) {
            live.insert(live.begin() + i,
                        Range{r.offset, offset - r.offset});
            i++;
        }
    }
}

void
ClusterAllocator::free_backing(NodeId node, Bytes offset, Bytes size)
{
    unreserve(node, offset, size);
    release(node, offset, size);
}

void
ClusterAllocator::free_unreserved(NodeId node, Bytes offset, Bytes size)
{
    PULSE_ASSERT(node < bump_.size(), "bad node id %u", node);
    // What inside the range is already spoken for, in offset order
    // (reservations and free ranges never overlap each other); the
    // copies stay valid while release() edits the free list.
    const Bytes end = std::min(offset + size, bump_[node]);
    std::vector<Range> taken;
    for (const auto* ranges : {&reserved_[node], &free_lists_[node]}) {
        for (const Range& r : *ranges) {
            if (r.offset < end && r.offset + r.size > offset) {
                taken.push_back(r);
            }
        }
    }
    std::sort(taken.begin(), taken.end(),
              [](const Range& a, const Range& b) {
                  return a.offset < b.offset;
              });
    Bytes cursor = offset;
    for (const Range& r : taken) {
        if (r.offset > cursor) {
            release(node, cursor, r.offset - cursor);
        }
        cursor = std::max(cursor, r.offset + r.size);
    }
    if (cursor < end) {
        release(node, cursor, end - cursor);
    }
}

void
ClusterAllocator::release(NodeId node, Bytes offset, Bytes size)
{
    PULSE_ASSERT(node < bump_.size(), "bad node id %u", node);
    PULSE_ASSERT(size > 0, "zero-size backing free");
    PULSE_ASSERT(offset + size <= bump_[node],
                 "freeing past the bump frontier");
    auto& holes = free_lists_[node];
    auto pos = std::lower_bound(
        holes.begin(), holes.end(), offset,
        [](const Range& r, Bytes o) { return r.offset < o; });
    PULSE_ASSERT(pos == holes.end() || offset + size <= pos->offset,
                 "double free of backing range");
    PULSE_ASSERT(pos == holes.begin() ||
                     (pos - 1)->offset + (pos - 1)->size <= offset,
                 "double free of backing range");
    // Merge with adjacent holes so repeated migration reuses space at
    // full slab size.
    const bool merge_prev =
        pos != holes.begin() &&
        (pos - 1)->offset + (pos - 1)->size == offset;
    const bool merge_next =
        pos != holes.end() && offset + size == pos->offset;
    if (merge_prev && merge_next) {
        (pos - 1)->size += size + pos->size;
        holes.erase(pos);
    } else if (merge_prev) {
        (pos - 1)->size += size;
    } else if (merge_next) {
        pos->offset = offset;
        pos->size += size;
    } else {
        holes.insert(pos, Range{offset, size});
    }
}

Bytes
ClusterAllocator::free_list_bytes(NodeId node) const
{
    PULSE_ASSERT(node < free_lists_.size(), "bad node id %u", node);
    Bytes total = 0;
    for (const Range& r : free_lists_[node]) {
        total += r.size;
    }
    return total;
}

void
ClusterAllocator::save_state(StateWriter& writer) const
{
    writer.put_tag("ALOC");
    for (const auto& live : reserved_) {
        PULSE_ASSERT(live.empty(), "checkpoint does not cover live "
                                   "backing reservations");
    }
    writer.put_u8(static_cast<std::uint8_t>(policy_));
    std::uint64_t rng_state[4];
    rng_.save_state(rng_state);
    for (const std::uint64_t word : rng_state) {
        writer.put_u64(word);
    }
    writer.put_u64(chunk_bytes_);
    writer.put_u64(bump_.size());
    for (std::size_t i = 0; i < bump_.size(); i++) {
        writer.put_u64(bump_[i]);
        writer.put_u64(app_high_[i]);
        writer.put_u64(free_lists_[i].size());
        for (const Range& range : free_lists_[i]) {
            writer.put_u64(range.offset);
            writer.put_u64(range.size);
        }
    }
    writer.put_u32(round_robin_);
    writer.put_u64(chunk_next_);
    writer.put_u64(chunk_end_);
}

void
ClusterAllocator::load_state(StateReader& reader)
{
    reader.expect_tag("ALOC");
    const auto policy = static_cast<AllocPolicy>(reader.get_u8());
    PULSE_ASSERT(policy == policy_,
                 "checkpoint allocator policy mismatch");
    std::uint64_t rng_state[4];
    for (std::uint64_t& word : rng_state) {
        word = reader.get_u64();
    }
    rng_.restore_state(rng_state);
    chunk_bytes_ = reader.get_u64();
    const std::uint64_t nodes = reader.get_u64();
    PULSE_ASSERT(nodes == bump_.size(),
                 "checkpoint allocator node count mismatch");
    for (std::size_t i = 0; i < bump_.size(); i++) {
        bump_[i] = reader.get_u64();
        app_high_[i] = reader.get_u64();
        free_lists_[i].resize(reader.get_u64());
        for (Range& range : free_lists_[i]) {
            range.offset = reader.get_u64();
            range.size = reader.get_u64();
        }
        reserved_[i].clear();
    }
    round_robin_ = reader.get_u32();
    chunk_next_ = reader.get_u64();
    chunk_end_ = reader.get_u64();
}

}  // namespace pulse::mem
