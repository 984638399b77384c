#include "core/transfer.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"

namespace pulse::core {

SpanCopier::SpanCopier(sim::EventQueue& queue, net::Network& network,
                       mem::GlobalMemory& memory,
                       std::vector<mem::ChannelSet*> channels,
                       const CopyConfig& config, CopyCounters counters)
    : queue_(queue), network_(network), memory_(memory),
      channels_(std::move(channels)), config_(config),
      counters_(counters)
{
    PULSE_ASSERT(config_.chunk_bytes > 0, "zero copy chunk");
    PULSE_ASSERT(config_.window > 0, "zero copy window");
}

Bytes
SpanCopier::chunk_length(std::size_t chunk) const
{
    const Bytes offset = static_cast<Bytes>(chunk) * config_.chunk_bytes;
    return std::min(config_.chunk_bytes, active_->span.length - offset);
}

void
SpanCopier::start(const CopySpan& span, std::function<void(bool)> on_done)
{
    PULSE_ASSERT(!active_, "copy started while another is running");
    PULSE_ASSERT(span.length > 0, "empty copy");
    const std::size_t chunks = static_cast<std::size_t>(
        (span.length + config_.chunk_bytes - 1) / config_.chunk_bytes);
    active_.emplace();
    active_->span = span;
    active_->acked.assign(chunks, false);
    active_->on_done = std::move(on_done);

    // Open the selective-repeat window.
    const std::size_t window =
        std::min<std::size_t>(config_.window, chunks);
    for (std::size_t i = 0; i < window; i++) {
        send_chunk(active_->next_unsent++, /*retransmit=*/false);
    }
}

void
SpanCopier::send_chunk(std::size_t chunk, bool retransmit)
{
    const CopySpan& span = active_->span;
    const Bytes len = chunk_length(chunk);
    counters_.chunks_sent.increment();
    counters_.bytes_copied.increment(len);
    if (retransmit) {
        counters_.chunks_retransmitted.increment();
    }
    // The source DMA engine reads the chunk through the node's DRAM
    // channels (copy traffic contends with traversal loads), then the
    // chunk crosses the fabric as an ordinary message — the fault
    // plane may drop/duplicate/delay it like any other.
    const Time read_done = channels_[span.src]->access(queue_.now(), len);
    const std::uint64_t gen = generation_;
    const NodeId src = span.src;
    const NodeId dst = span.dst;
    queue_.schedule_at(read_done, [this, gen, chunk, src, dst, len] {
        if (generation_ != gen) {
            return;  // the copy ended while the read was in flight
        }
        network_.send_message(net::EndpointAddr::mem_node(src),
                              net::EndpointAddr::mem_node(dst), len,
                              [this, gen, chunk] {
                                  on_chunk_delivered(gen, chunk);
                              });
    });
    arm_rto(chunk);
}

void
SpanCopier::on_chunk_delivered(std::uint64_t generation,
                               std::size_t chunk)
{
    if (generation != generation_ || !active_) {
        return;  // stale chunk of a finished copy
    }
    const CopySpan& span = active_->span;
    // The destination DMA engine writes the chunk into the reserved
    // backing (timed only — the bytes land in one atomic functional
    // copy at finish). Duplicate deliveries re-ack: the previous ack
    // may have been lost.
    channels_[span.dst]->access(queue_.now(), chunk_length(chunk));
    network_.send_message(
        net::EndpointAddr::mem_node(span.dst),
        net::EndpointAddr::mem_node(span.src), kCopyAckBytes,
        [this, generation, chunk] { on_ack(generation, chunk); });
}

void
SpanCopier::on_ack(std::uint64_t generation, std::size_t chunk)
{
    if (generation != generation_ || !active_) {
        return;
    }
    Active& copy = *active_;
    if (copy.acked[chunk]) {
        return;  // duplicate ack
    }
    copy.acked[chunk] = true;
    copy.acked_count++;
    if (copy.acked_count == copy.acked.size()) {
        finish(/*copied=*/true);
        return;
    }
    if (copy.next_unsent < copy.acked.size()) {
        send_chunk(copy.next_unsent++, /*retransmit=*/false);
    }
}

void
SpanCopier::arm_rto(std::size_t chunk)
{
    const std::uint64_t gen = generation_;
    queue_.schedule_after(config_.rto, [this, gen, chunk] {
        if (generation_ != gen || !active_ || active_->acked[chunk]) {
            return;
        }
        if (++active_->retries > config_.max_retries) {
            finish(/*copied=*/false);
            return;
        }
        send_chunk(chunk, /*retransmit=*/true);
    });
}

void
SpanCopier::cancel()
{
    if (active_) {
        finish(/*copied=*/false);
    }
}

void
SpanCopier::finish(bool copied)
{
    const CopySpan span = active_->span;
    std::function<void(bool)> on_done = std::move(active_->on_done);
    active_.reset();
    generation_++;  // quench copy-phase timers and stragglers

    if (copied) {
        // Functional copy in the same event: the placement-aware read
        // pulls the authoritative bytes from the current owner, so
        // every store that landed during the copy phase is included.
        // This bumps the destination's mutation counter, which degrades
        // the golden oracle to weak checks for operations in flight.
        std::vector<std::uint8_t> bytes(span.length);
        memory_.read(span.va_base, bytes.data(), span.length);
        memory_.node(span.dst).write(span.dst_phys, bytes.data(),
                                     span.length);
    }
    if (on_done) {
        on_done(copied);
    }
}

OwnershipAuthority::OwnershipAuthority(
    mem::GlobalMemory& memory, mem::ClusterAllocator& allocator,
    net::SwitchTable& switch_table, std::vector<mem::RangeTcam*> tcams,
    std::vector<accel::ReplayWindow*> replay_windows)
    : memory_(memory), allocator_(allocator),
      switch_table_(switch_table), tcams_(std::move(tcams)),
      replay_windows_(std::move(replay_windows))
{
    PULSE_ASSERT(tcams_.size() == memory_.num_nodes() &&
                     replay_windows_.size() == memory_.num_nodes(),
                 "ownership authority wiring mismatch");
}

bool
OwnershipAuthority::can_transfer(VirtAddr va_base, Bytes length,
                                 NodeId from, NodeId to) const
{
    return tcams_[from]->can_punch(va_base, length) &&
           tcams_[to]->size() < tcams_[to]->capacity();
}

TransferResult
OwnershipAuthority::transfer_ownership(const OwnershipTransfer& t)
{
    mem::AddressMap& map = memory_.mutable_address_map();
    const NodeId home = *map.home_node_for(t.va_base);
    const Bytes home_phys = map.offset_in_region(t.va_base);
    const mem::Placement vacated = map.placement_for(t.va_base);
    PULSE_ASSERT(!t.cutover || (vacated.node == t.from &&
                                vacated.contiguous >= t.length),
                 "cutover source does not own the span");

    // AddressMap first (the authority); the switch overlay and TCAMs
    // are derived from it.
    TransferResult result;
    if (t.to == home && t.to_phys == home_phys) {
        // Moved back into its home frame: the overlay dissolves, and
        // the frame holds application data again rather than backing.
        map.clear_remap(t.va_base, t.length);
        allocator_.unreserve(t.to, t.to_phys, t.length);
    } else {
        const bool remapped = map.install_remap(
            mem::Remap{t.va_base, t.length, t.to, t.to_phys});
        PULSE_ASSERT(remapped, "ownership remap rejected");
        result.remapped = true;
    }
    switch_table_.clear_overlay();
    for (const mem::Remap& r : map.remaps()) {
        switch_table_.add_overlay_rule(
            net::SwitchRule{r.va_base, r.length, r.node});
    }
    const bool punched = tcams_[t.from]->punch(t.va_base, t.length);
    PULSE_ASSERT(punched, "pre-checked source TCAM punch failed");
    const bool installed = tcams_[t.to]->insert_coalesce(mem::RangeEntry{
        t.va_base, t.length, t.to_phys, mem::Perm::kReadWrite});
    PULSE_ASSERT(installed, "pre-checked destination TCAM insert failed");

    if (!t.cutover) {
        return result;
    }
    // The reconfiguration message also carries the source's replay
    // digest: retransmitted requests now route to the destination, so
    // its dedup window must recognise visits the source already
    // executed — otherwise a lost response plus a retransmit chasing
    // the span would re-execute a store/CAS.
    result.digest_entries =
        replay_windows_[t.to]->absorb_from(*replay_windows_[t.from]);

    // RETIRE the vacated frame so a later transfer (possibly back here)
    // reuses it. A frame away from home is one backing reservation. A
    // home frame returns only its own allocated bytes: backing reserved
    // for other spans (replicas, slabs migrated in) may lie inside it,
    // past the application frontier or, when the application allocated
    // again afterwards, below it.
    if (t.from == home && vacated.phys == home_phys) {
        allocator_.free_unreserved(t.from, vacated.phys, t.length);
    } else {
        allocator_.free_backing(t.from, vacated.phys, t.length);
    }

    if (cutover_observer_) {
        cutover_observer_();
    }
    return result;
}

}  // namespace pulse::core
