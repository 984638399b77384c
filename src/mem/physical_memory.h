/**
 * @file
 * Backing store for one memory node's DRAM.
 *
 * Functionally a flat byte array addressed by node-local physical
 * addresses. The whole capacity is one anonymous, 2 MiB-aligned,
 * no-reserve host mapping advised for transparent huge pages: pages
 * the workload never writes read as zero from the kernel's zero page
 * and cost no host memory, and a dependent random load (a simulated
 * pointer hop) costs one host TLB entry per 2 MiB instead of per
 * 4 KiB. A per-1 MiB committed flag records which parts have been
 * written; it defines committed() and what a checkpoint serializes.
 * A destroyed node zeroes its written chunks and hands the mapping to
 * the next node of the same size in the process, so a rebuilt cluster
 * does not pay the page faults again.
 */
#ifndef PULSE_MEM_PHYSICAL_MEMORY_H
#define PULSE_MEM_PHYSICAL_MEMORY_H

#include <cstdint>
#include <vector>

#include "common/serial.h"
#include "common/types.h"
#include "common/units.h"

namespace pulse::mem {

/** Lazily-committed byte store for a single memory node. */
class PhysicalMemory
{
  public:
    /** Create a node memory of @p capacity bytes. */
    explicit PhysicalMemory(Bytes capacity);
    ~PhysicalMemory();

    PhysicalMemory(const PhysicalMemory&) = delete;
    PhysicalMemory& operator=(const PhysicalMemory&) = delete;

    /** Total addressable capacity. */
    Bytes capacity() const { return capacity_; }

    /** Written 1 MiB chunks times the chunk size. */
    Bytes committed() const { return committed_chunks_ * kChunkSize; }

    /** Copy @p len bytes at physical address @p addr into @p out. */
    void read(PhysAddr addr, void* out, Bytes len) const;

    /** Copy @p len bytes from @p in to physical address @p addr. */
    void write(PhysAddr addr, const void* in, Bytes len);

    /**
     * Host cache hint for an upcoming read() of @p len bytes at
     * @p addr: one prefetch per 64-byte line. It changes no simulated
     * state, commits nothing, and does nothing when the span is out of
     * range.
     */
    void prefetch(PhysAddr addr, Bytes len) const;

    /**
     * Number of write() calls since construction. Every mutation of
     * node memory funnels through write(), so the golden oracle uses
     * this to detect whether other writers raced a checked traversal
     * (exact comparison is only sound when none did).
     */
    std::uint64_t mutations() const { return mutations_; }

    /** Convenience typed read of a trivially-copyable value. */
    template <typename T>
    T
    read_as(PhysAddr addr) const
    {
        T value{};
        read(addr, &value, sizeof(T));
        return value;
    }

    /** Convenience typed write of a trivially-copyable value. */
    template <typename T>
    void
    write_as(PhysAddr addr, const T& value)
    {
        write(addr, &value, sizeof(T));
    }

    /**
     * Checkpoint support (core/checkpoint.h): serializes only the
     * committed chunks (index + bytes), so a sparse multi-GiB node
     * costs what the workload actually touched.
     */
    void save_state(StateWriter& writer) const;
    void load_state(StateReader& reader);

  private:
    static constexpr Bytes kChunkSize = 1 * kMiB;

    Bytes capacity_;
    Bytes mapping_size_;            // capacity_ rounded up to 2 MiB
    std::uint8_t* base_ = nullptr;  // 2 MiB-aligned host mapping
    std::uint64_t mutations_ = 0;
    std::uint64_t committed_chunks_ = 0;
    std::vector<bool> chunk_committed_;
};

}  // namespace pulse::mem

#endif  // PULSE_MEM_PHYSICAL_MEMORY_H
