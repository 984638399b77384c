#include "mem/global_memory.h"

#include "common/logging.h"

namespace pulse::mem {

GlobalMemory::GlobalMemory(std::uint32_t num_nodes, Bytes node_capacity)
    : map_(num_nodes, node_capacity)
{
    nodes_.reserve(num_nodes);
    for (std::uint32_t i = 0; i < num_nodes; i++) {
        nodes_.push_back(std::make_unique<PhysicalMemory>(node_capacity));
    }
}

PhysicalMemory&
GlobalMemory::node(NodeId id)
{
    PULSE_ASSERT(id < nodes_.size(), "bad node id %u", id);
    return *nodes_[id];
}

const PhysicalMemory&
GlobalMemory::node(NodeId id) const
{
    PULSE_ASSERT(id < nodes_.size(), "bad node id %u", id);
    return *nodes_[id];
}

void
GlobalMemory::read(VirtAddr va, void* out, Bytes len) const
{
    PULSE_ASSERT(map_.node_for(va).has_value(),
                 "read from unmapped va 0x%llx",
                 static_cast<unsigned long long>(va));
    PULSE_ASSERT(map_.offset_in_region(va) + len <= map_.region_size(),
                 "read straddles node regions");
    auto* dst = static_cast<std::uint8_t*>(out);
    // Migration may have split the span across placements; each
    // segment is contiguous on one node.
    while (len > 0) {
        const Placement p = map_.placement_for(va);
        const Bytes chunk = len < p.contiguous ? len : p.contiguous;
        nodes_[p.node]->read(p.phys, dst, chunk);
        va += chunk;
        dst += chunk;
        len -= chunk;
    }
}

void
GlobalMemory::write(VirtAddr va, const void* in, Bytes len)
{
    PULSE_ASSERT(map_.node_for(va).has_value(),
                 "write to unmapped va 0x%llx",
                 static_cast<unsigned long long>(va));
    PULSE_ASSERT(map_.offset_in_region(va) + len <= map_.region_size(),
                 "write straddles node regions");
    const auto* src = static_cast<const std::uint8_t*>(in);
    while (len > 0) {
        const Placement p = map_.placement_for(va);
        const Bytes chunk = len < p.contiguous ? len : p.contiguous;
        nodes_[p.node]->write(p.phys, src, chunk);
        va += chunk;
        src += chunk;
        len -= chunk;
    }
}

void
GlobalMemory::prefetch(VirtAddr va, Bytes len) const
{
    if (!map_.home_node_for(va).has_value()) {
        return;
    }
    const Placement p = map_.placement_for(va);
    nodes_[p.node]->prefetch(p.phys,
                             len < p.contiguous ? len : p.contiguous);
}

}  // namespace pulse::mem
