#include "mem/physical_memory.h"

#include <sys/mman.h>

#include <cstring>
#include <mutex>
#include <utility>

#include "common/logging.h"

namespace pulse::mem {

namespace {

// Transparent-huge-page size on x86-64 and arm64 (4 KiB base pages).
constexpr std::uintptr_t kHugePage = 2 * kMiB;

constexpr std::uintptr_t
round_up(std::uintptr_t value, std::uintptr_t align)
{
    return (value + align - 1) & ~(align - 1);
}

/**
 * Released node mappings, every byte zero, kept for the next node of
 * the same size. A cluster rebuilt in one process (benchmark
 * repetitions, sweep cells, test fixtures) then writes into pages
 * that are already resident instead of faulting in and zeroing fresh
 * ones, which dominated set-up time.
 */
struct MappingPool
{
    static constexpr std::size_t kMaxMappings = 16;

    std::mutex mutex;
    std::vector<std::pair<std::uint8_t*, Bytes>> free;  // base, size
};

MappingPool&
mapping_pool()
{
    // Never destroyed: nodes may be released during static teardown.
    static auto* pool = new MappingPool;
    return *pool;
}

/** A 2 MiB-aligned, huge-page-advised, all-zero mapping of @p size. */
std::uint8_t*
acquire_mapping(Bytes size)
{
    MappingPool& pool = mapping_pool();
    {
        std::lock_guard<std::mutex> lock(pool.mutex);
        for (auto it = pool.free.begin(); it != pool.free.end(); ++it) {
            if (it->second == size) {
                std::uint8_t* base = it->first;
                pool.free.erase(it);
                return base;
            }
        }
    }
    // Reserve one huge page of slack, then trim the reservation to a
    // 2 MiB-aligned span so every huge page lies wholly inside it.
    const std::size_t reserve = size + kHugePage;
    void* raw = mmap(nullptr, reserve, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
    PULSE_ASSERT(raw != MAP_FAILED,
                 "cannot reserve %llu bytes of host address space for "
                 "a memory node",
                 static_cast<unsigned long long>(reserve));
    const auto start = reinterpret_cast<std::uintptr_t>(raw);
    const std::uintptr_t aligned = round_up(start, kHugePage);
    if (aligned > start) {
        munmap(raw, aligned - start);
    }
    const std::uintptr_t tail = start + reserve - (aligned + size);
    if (tail > 0) {
        munmap(reinterpret_cast<void*>(aligned + size), tail);
    }
    auto* base = reinterpret_cast<std::uint8_t*>(aligned);
#ifdef MADV_HUGEPAGE
    // Advisory: with THP disabled on the host this fails harmlessly
    // and the node stays on 4 KiB pages.
    madvise(base, size, MADV_HUGEPAGE);
#endif
    return base;
}

/** Return an all-zero mapping to the pool, or unmap it when full. */
void
release_mapping(std::uint8_t* base, Bytes size)
{
    MappingPool& pool = mapping_pool();
    {
        std::lock_guard<std::mutex> lock(pool.mutex);
        if (pool.free.size() < MappingPool::kMaxMappings) {
            pool.free.emplace_back(base, size);
            return;
        }
    }
    munmap(base, size);
}

}  // namespace

PhysicalMemory::PhysicalMemory(Bytes capacity)
    : capacity_(capacity),
      mapping_size_(round_up(capacity, kHugePage)),
      chunk_committed_((capacity + kChunkSize - 1) / kChunkSize, false)
{
    PULSE_ASSERT(capacity > 0, "zero-capacity memory node");
    base_ = acquire_mapping(mapping_size_);
}

PhysicalMemory::~PhysicalMemory()
{
    // Only written chunks can hold non-zero bytes.
    for (std::size_t i = 0; i < chunk_committed_.size(); i++) {
        if (chunk_committed_[i]) {
            std::memset(base_ + i * kChunkSize, 0, kChunkSize);
        }
    }
    release_mapping(base_, mapping_size_);
}

void
PhysicalMemory::read(PhysAddr addr, void* out, Bytes len) const
{
    PULSE_ASSERT(len <= capacity_ && addr <= capacity_ - len,
                 "read past end of memory");
    if (len > 0) {
        // Never-written memory reads 0 (the kernel's zero page).
        std::memcpy(out, base_ + addr, len);
    }
}

void
PhysicalMemory::write(PhysAddr addr, const void* in, Bytes len)
{
    PULSE_ASSERT(len <= capacity_ && addr <= capacity_ - len,
                 "write past end of memory");
    mutations_++;
    if (len == 0) {
        return;
    }
    std::memcpy(base_ + addr, in, len);
    const std::uint64_t last = (addr + len - 1) / kChunkSize;
    for (std::uint64_t chunk = addr / kChunkSize; chunk <= last; chunk++) {
        if (!chunk_committed_[chunk]) {
            chunk_committed_[chunk] = true;
            committed_chunks_++;
        }
    }
}

// Out of line on purpose: GCC deduces that a function whose only
// effect is __builtin_prefetch is pure, and deletes an inlined call to
// it whose (void) result is unused.
void
PhysicalMemory::prefetch(PhysAddr addr, Bytes len) const
{
    if (len == 0 || addr >= capacity_ || len > capacity_ - addr) {
        return;
    }
    const std::uint8_t* start = base_ + addr;
    for (Bytes offset = 0; offset < len; offset += 64) {
        __builtin_prefetch(start + offset);
    }
    __builtin_prefetch(start + len - 1);  // tail line of the span
}

void
PhysicalMemory::save_state(StateWriter& writer) const
{
    writer.put_tag("PMEM");
    writer.put_u64(capacity_);
    writer.put_u64(mutations_);
    writer.put_u64(committed_chunks_);
    for (std::size_t i = 0; i < chunk_committed_.size(); i++) {
        if (chunk_committed_[i]) {
            writer.put_u64(i);
            writer.put_bytes(base_ + i * kChunkSize, kChunkSize);
        }
    }
}

void
PhysicalMemory::load_state(StateReader& reader)
{
    reader.expect_tag("PMEM");
    const Bytes capacity = reader.get_u64();
    PULSE_ASSERT(capacity == capacity_,
                 "checkpoint node capacity mismatch");
    mutations_ = reader.get_u64();
    std::vector<bool> was_committed(chunk_committed_.size(), false);
    was_committed.swap(chunk_committed_);
    committed_chunks_ = 0;
    const std::uint64_t committed_chunks = reader.get_u64();
    for (std::uint64_t c = 0; c < committed_chunks; c++) {
        const std::uint64_t index = reader.get_u64();
        PULSE_ASSERT(index < chunk_committed_.size(),
                     "checkpoint chunk index out of range");
        reader.get_bytes_into(base_ + index * kChunkSize, kChunkSize);
        if (!chunk_committed_[index]) {
            chunk_committed_[index] = true;
            committed_chunks_++;
        }
    }
    // A chunk the current run wrote but the snapshot lacks must read
    // zeros again.
    for (std::size_t i = 0; i < chunk_committed_.size(); i++) {
        if (was_committed[i] && !chunk_committed_[i]) {
            std::memset(base_ + i * kChunkSize, 0, kChunkSize);
        }
    }
}

}  // namespace pulse::mem
