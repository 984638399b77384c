/**
 * @file
 * GNU ld --wrap shims that attribute host time to the simulator's
 * layers (see layer_trace.h).
 *
 * Each shim is declared with the layer entry point's mangled name:
 * PERFBENCH_SHIM emits `__real_<sym>` (the original, resolved by the
 * linker) and `__wrap_<sym>` (the shim every cross-TU caller now
 * reaches). CMakeLists.txt scans this file for PERFBENCH_SHIM and adds
 * one -Wl,--wrap=<sym> per entry, so this list is the only place the
 * symbols are named. A member function becomes a free function taking
 * `this` first; a by-value parameter of non-trivially-copyable type is
 * declared as a reference, which is how the Itanium ABI passes it.
 *
 * Only calls between translation units are wrapped. If a refactor
 * renames an entry point the traced binary fails to link; if it moves
 * the callers into the callee's translation unit the counts drop to
 * zero and the benchmark's coverage self-check fails.
 */
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "accel/replay_window.h"
#include "baselines/rpc_runtime.h"
#include "core/cluster.h"
#include "ds/bptree.h"
#include "ds/ds_common.h"
#include "ds/hash_table.h"
#include "isa/analysis.h"
#include "isa/interpreter.h"
#include "layer_trace.h"
#include "mem/address_map.h"
#include "mem/global_memory.h"
#include "mem/memory_channel.h"
#include "mem/physical_memory.h"
#include "mem/range_tcam.h"
#include "net/network.h"
#include "net/switch.h"
#include "offload/offload_engine.h"
#include "placement/placement_plane.h"
#include "replication/replication_plane.h"
#include "sim/event_queue.h"
#include "workloads/workloads.h"

#define PERFBENCH_SHIM(sym, ret, name, params)                     \
    ret real_##name params __asm__("__real_" #sym);                \
    ret wrap_##name params __asm__("__wrap_" #sym);

namespace perfbench {

using namespace pulse;

namespace {

enum Layer {
    kIsa,
    kIsaVerify,
    kSimSchedule,
    kNet,
    kAccelReplay,
    kMem,
    kOffloadSubmit,
    kRpcSubmit,
    kPlacement,
    kReplication,
    kDsBuild,
    kDsFillPattern,
    kAppsTraceGen,
    kCoreClusterCtor,
    kLayerCount
};

struct LayerInfo
{
    const char* metric;
    Phase phase;
};

constexpr LayerInfo kLayers[kLayerCount] = {
    {"isa.self_s", Phase::kSimulate},
    {"isa.verify.self_s", Phase::kSimulate},
    {"sim.schedule.self_s", Phase::kSimulate},
    {"net.self_s", Phase::kSimulate},
    {"accel.replay.self_s", Phase::kSimulate},
    {"mem.self_s", Phase::kSimulate},
    {"offload.submit.self_s", Phase::kSimulate},
    {"baselines.rpc.submit.self_s", Phase::kSimulate},
    {"placement.self_s", Phase::kSimulate},
    {"replication.self_s", Phase::kSimulate},
    {"ds.build_s", Phase::kSetup},
    {"ds.fill_pattern_s", Phase::kSetup},
    {"apps.trace_gen_s", Phase::kSetup},
    {"core.cluster_ctor_s", Phase::kSetup},
};

enum Count {
    kIsaIterations,
    kIsaInstructions,
    kVerifyCalls,
    kScheduleCalls,
    kSendTraversalCalls,
    kSendMessageCalls,
    kRouteCalls,
    kMemReadCalls,
    kMemWriteCalls,
    kMemTranslateCalls,
    kChannelBytes,
    kRecordAccessCalls,
    kMirrorStoreCalls,
    kCountCount
};

constexpr const char* kCountNames[kCountCount] = {
    "isa.iterations",
    "isa.instructions",
    "isa.verify.calls",
    "sim.schedule.calls",
    "net.send_traversal.calls",
    "net.send_message.calls",
    "net.route.calls",
    "mem.read.calls",
    "mem.write.calls",
    "mem.translate.calls",
    "mem.channel.bytes",
    "placement.record_access.calls",
    "replication.mirror_store.calls",
};

/** Deeper than any chain of nested layer calls the simulator makes. */
constexpr int kMaxDepth = 64;

struct Frame
{
    std::int64_t start = 0;
    std::int64_t child = 0;  ///< time covered by nested spans
};

// The benchmark is single-threaded, so the span stack is plain state.
Phase g_phase = Phase::kOff;
std::int64_t g_self_ns[kLayerCount] = {};
std::uint64_t g_count[kCountCount] = {};
Frame g_stack[kMaxDepth];
int g_depth = 0;

std::int64_t
now_ns()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** One timed call into a layer; records only in the layer's phase. */
class Span
{
  public:
    explicit Span(Layer layer)
        : layer_(layer), active_(kLayers[layer].phase == g_phase)
    {
        if (!active_) {
            return;
        }
        if (g_depth == kMaxDepth) {
            std::fprintf(stderr, "perfbench: span stack overflow\n");
            std::abort();
        }
        g_stack[g_depth++] = Frame{now_ns(), 0};
    }

    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

    ~Span()
    {
        if (!active_) {
            return;
        }
        const Frame frame = g_stack[--g_depth];
        const std::int64_t duration = now_ns() - frame.start;
        g_self_ns[layer_] += duration - frame.child;
        if (g_depth > 0) {
            g_stack[g_depth - 1].child += duration;
        }
    }

    void
    count(Count counter, std::uint64_t amount = 1)
    {
        if (active_) {
            g_count[counter] += amount;
        }
    }

  private:
    Layer layer_;
    bool active_;
};

}  // namespace

void
set_phase(Phase phase)
{
    g_phase = phase;
}

void
reset_layers()
{
    for (std::int64_t& ns : g_self_ns) {
        ns = 0;
    }
    for (std::uint64_t& count : g_count) {
        count = 0;
    }
}

std::map<std::string, double>
read_layers(Phase phase)
{
    std::map<std::string, double> out;
    for (int i = 0; i < kLayerCount; i++) {
        if (kLayers[i].phase == phase) {
            out[kLayers[i].metric] =
                static_cast<double>(g_self_ns[i]) * 1e-9;
        }
    }
    if (phase == Phase::kSimulate) {
        for (int i = 0; i < kCountCount; i++) {
            out[kCountNames[i]] = static_cast<double>(g_count[i]);
        }
    }
    return out;
}

// ------------------------------------------------------------------ isa

PERFBENCH_SHIM(_ZN5pulse3isa13run_iterationERKNS0_7ProgramERNS0_9WorkspaceERKSt8functionIFbmmmEE,
               isa::IterationResult, run_iteration,
               (const isa::Program&, isa::Workspace&, const isa::CasFn&))
isa::IterationResult
wrap_run_iteration(const isa::Program& program, isa::Workspace& workspace,
                   const isa::CasFn& cas)
{
    Span span(kIsa);
    isa::IterationResult result =
        real_run_iteration(program, workspace, cas);
    span.count(kIsaIterations);
    span.count(kIsaInstructions, result.instructions_executed);
    return result;
}

PERFBENCH_SHIM(_ZN5pulse3isa7analyzeERKNS0_7ProgramE,
               isa::ProgramAnalysis, analyze, (const isa::Program&))
isa::ProgramAnalysis
wrap_analyze(const isa::Program& program)
{
    Span span(kIsaVerify);
    span.count(kVerifyCalls);
    return real_analyze(program);
}

PERFBENCH_SHIM(_ZNK5pulse3isa7Program6verifyEPNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEE,
               bool, verify, (const isa::Program*, std::string*))
bool
wrap_verify(const isa::Program* self, std::string* error)
{
    Span span(kIsaVerify);
    span.count(kVerifyCalls);
    return real_verify(self, error);
}

// ------------------------------------------------------------------ sim

PERFBENCH_SHIM(_ZN5pulse3sim10EventQueue11schedule_atElNS0_14InlineFunctionILm1088EEE,
               void, schedule_at, (sim::EventQueue*, Time, sim::EventFn&))
void
wrap_schedule_at(sim::EventQueue* self, Time when, sim::EventFn& fn)
{
    Span span(kSimSchedule);
    span.count(kScheduleCalls);
    real_schedule_at(self, when, fn);
}

PERFBENCH_SHIM(_ZN5pulse3sim10EventQueue14schedule_afterElNS0_14InlineFunctionILm1088EEE,
               void, schedule_after, (sim::EventQueue*, Time, sim::EventFn&))
void
wrap_schedule_after(sim::EventQueue* self, Time delay, sim::EventFn& fn)
{
    Span span(kSimSchedule);
    span.count(kScheduleCalls);
    real_schedule_after(self, delay, fn);
}

// ------------------------------------------------------------------ net

PERFBENCH_SHIM(_ZN5pulse3net7Network14send_traversalENS0_12EndpointAddrENS0_15TraversalPacketE,
               void, send_traversal,
               (net::Network*, net::EndpointAddr, net::TraversalPacket))
void
wrap_send_traversal(net::Network* self, net::EndpointAddr from,
                    net::TraversalPacket packet)
{
    Span span(kNet);
    span.count(kSendTraversalCalls);
    real_send_traversal(self, from, packet);
}

PERFBENCH_SHIM(_ZN5pulse3net7Network12send_messageENS0_12EndpointAddrES2_mSt8functionIFvvEE,
               void, send_message,
               (net::Network*, net::EndpointAddr, net::EndpointAddr, Bytes,
                std::function<void()>&))
void
wrap_send_message(net::Network* self, net::EndpointAddr from,
                  net::EndpointAddr to, Bytes size,
                  std::function<void()>& on_delivery)
{
    Span span(kNet);
    span.count(kSendMessageCalls);
    real_send_message(self, from, to, size, on_delivery);
}

PERFBENCH_SHIM(_ZNK5pulse3net11SwitchTable5routeERKNS0_15TraversalPacketE,
               net::RouteDecision, route,
               (const net::SwitchTable*, const net::TraversalPacket&))
net::RouteDecision
wrap_route(const net::SwitchTable* self, const net::TraversalPacket& packet)
{
    Span span(kNet);
    span.count(kRouteCalls);
    return real_route(self, packet);
}

// ---------------------------------------------------------- accel replay

using ReplayKey = accel::ReplayWindow::Key;

PERFBENCH_SHIM(_ZN5pulse5accel12ReplayWindow16mark_in_progressERKNS1_3KeyE,
               void, mark_in_progress,
               (accel::ReplayWindow*, const ReplayKey&))
void
wrap_mark_in_progress(accel::ReplayWindow* self, const ReplayKey& key)
{
    Span span(kAccelReplay);
    real_mark_in_progress(self, key);
}

PERFBENCH_SHIM(_ZN5pulse5accel12ReplayWindow6unmarkERKNS1_3KeyE,
               void, unmark, (accel::ReplayWindow*, const ReplayKey&))
void
wrap_unmark(accel::ReplayWindow* self, const ReplayKey& key)
{
    Span span(kAccelReplay);
    real_unmark(self, key);
}

PERFBENCH_SHIM(_ZN5pulse5accel12ReplayWindow6forgetERKNS1_3KeyE,
               void, forget, (accel::ReplayWindow*, const ReplayKey&))
void
wrap_forget(accel::ReplayWindow* self, const ReplayKey& key)
{
    Span span(kAccelReplay);
    real_forget(self, key);
}

PERFBENCH_SHIM(_ZN5pulse5accel12ReplayWindow15record_responseERKNS1_3KeyENS_3net15TraversalPacketE,
               void, record_response,
               (accel::ReplayWindow*, const ReplayKey&, net::TraversalPacket))
void
wrap_record_response(accel::ReplayWindow* self, const ReplayKey& key,
                     net::TraversalPacket response)
{
    Span span(kAccelReplay);
    real_record_response(self, key, response);
}

PERFBENCH_SHIM(_ZNK5pulse5accel12ReplayWindow15cached_responseERKNS1_3KeyE,
               const net::TraversalPacket*, cached_response,
               (const accel::ReplayWindow*, const ReplayKey&))
const net::TraversalPacket*
wrap_cached_response(const accel::ReplayWindow* self, const ReplayKey& key)
{
    Span span(kAccelReplay);
    return real_cached_response(self, key);
}

// ------------------------------------------------------------------ mem

PERFBENCH_SHIM(_ZNK5pulse3mem14PhysicalMemory4readEmPvm,
               void, phys_read,
               (const mem::PhysicalMemory*, PhysAddr, void*, Bytes))
void
wrap_phys_read(const mem::PhysicalMemory* self, PhysAddr addr, void* out,
               Bytes len)
{
    Span span(kMem);
    span.count(kMemReadCalls);
    real_phys_read(self, addr, out, len);
}

PERFBENCH_SHIM(_ZN5pulse3mem14PhysicalMemory5writeEmPKvm,
               void, phys_write,
               (mem::PhysicalMemory*, PhysAddr, const void*, Bytes))
void
wrap_phys_write(mem::PhysicalMemory* self, PhysAddr addr, const void* in,
                Bytes len)
{
    Span span(kMem);
    span.count(kMemWriteCalls);
    real_phys_write(self, addr, in, len);
}

PERFBENCH_SHIM(_ZNK5pulse3mem12GlobalMemory4readEmPvm,
               void, global_read,
               (const mem::GlobalMemory*, VirtAddr, void*, Bytes))
void
wrap_global_read(const mem::GlobalMemory* self, VirtAddr va, void* out,
                 Bytes len)
{
    Span span(kMem);
    real_global_read(self, va, out, len);
}

PERFBENCH_SHIM(_ZN5pulse3mem12GlobalMemory5writeEmPKvm,
               void, global_write,
               (mem::GlobalMemory*, VirtAddr, const void*, Bytes))
void
wrap_global_write(mem::GlobalMemory* self, VirtAddr va, const void* in,
                  Bytes len)
{
    Span span(kMem);
    real_global_write(self, va, in, len);
}

PERFBENCH_SHIM(_ZNK5pulse3mem9RangeTcam14translate_spanEmmNS0_4PermE,
               mem::TranslateResult, translate_span,
               (const mem::RangeTcam*, VirtAddr, Bytes, mem::Perm))
mem::TranslateResult
wrap_translate_span(const mem::RangeTcam* self, VirtAddr va, Bytes length,
                    mem::Perm need)
{
    Span span(kMem);
    span.count(kMemTranslateCalls);
    return real_translate_span(self, va, length, need);
}

PERFBENCH_SHIM(_ZNK5pulse3mem10AddressMap8node_forEm,
               std::optional<NodeId>, node_for,
               (const mem::AddressMap*, VirtAddr))
std::optional<NodeId>
wrap_node_for(const mem::AddressMap* self, VirtAddr va)
{
    Span span(kMem);
    span.count(kMemTranslateCalls);
    return real_node_for(self, va);
}

PERFBENCH_SHIM(_ZN5pulse3mem10ChannelSet6accessElm,
               Time, channel_access, (mem::ChannelSet*, Time, Bytes))
Time
wrap_channel_access(mem::ChannelSet* self, Time now, Bytes bytes)
{
    Span span(kMem);
    span.count(kChannelBytes, bytes);
    return real_channel_access(self, now, bytes);
}

// -------------------------------------------------- offload / baselines

PERFBENCH_SHIM(_ZN5pulse7offload13OffloadEngine6submitEONS0_9OperationE,
               void, offload_submit,
               (offload::OffloadEngine*, offload::Operation&&))
void
wrap_offload_submit(offload::OffloadEngine* self, offload::Operation&& op)
{
    Span span(kOffloadSubmit);
    real_offload_submit(self, std::move(op));
}

PERFBENCH_SHIM(_ZN5pulse9baselines10RpcRuntime6submitEONS_7offload9OperationE,
               void, rpc_submit,
               (baselines::RpcRuntime*, offload::Operation&&))
void
wrap_rpc_submit(baselines::RpcRuntime* self, offload::Operation&& op)
{
    Span span(kRpcSubmit);
    real_rpc_submit(self, std::move(op));
}

// ------------------------------------------------------------ placement

PERFBENCH_SHIM(_ZN5pulse9placement14PlacementPlane13record_accessEmm,
               void, record_access,
               (placement::PlacementPlane*, VirtAddr, Bytes))
void
wrap_record_access(placement::PlacementPlane* self, VirtAddr va,
                   Bytes bytes)
{
    Span span(kPlacement);
    span.count(kRecordAccessCalls);
    real_record_access(self, va, bytes);
}

PERFBENCH_SHIM(_ZN5pulse9placement14PlacementPlane17try_forward_storeEjmPKvml,
               bool, try_forward_store,
               (placement::PlacementPlane*, NodeId, VirtAddr, const void*,
                Bytes, Time))
bool
wrap_try_forward_store(placement::PlacementPlane* self, NodeId at,
                       VirtAddr va, const void* data, Bytes len, Time now)
{
    Span span(kPlacement);
    return real_try_forward_store(self, at, va, data, len, now);
}

PERFBENCH_SHIM(_ZN5pulse9placement14PlacementPlane17mirror_completionEjRKNS_5accel12ReplayWindow3KeyERKNS_3net15TraversalPacketE,
               void, placement_mirror_completion,
               (placement::PlacementPlane*, NodeId, const ReplayKey&,
                const net::TraversalPacket&))
void
wrap_placement_mirror_completion(placement::PlacementPlane* self,
                                 NodeId from, const ReplayKey& key,
                                 const net::TraversalPacket& response)
{
    Span span(kPlacement);
    real_placement_mirror_completion(self, from, key, response);
}

PERFBENCH_SHIM(_ZN5pulse9placement14PlacementPlane13mirror_unmarkEjRKNS_5accel12ReplayWindow3KeyE,
               void, placement_mirror_unmark,
               (placement::PlacementPlane*, NodeId, const ReplayKey&))
void
wrap_placement_mirror_unmark(placement::PlacementPlane* self, NodeId from,
                             const ReplayKey& key)
{
    Span span(kPlacement);
    real_placement_mirror_unmark(self, from, key);
}

// ---------------------------------------------------------- replication

PERFBENCH_SHIM(_ZN5pulse11replication16ReplicationPlane12mirror_storeEjmPKvml,
               void, mirror_store,
               (replication::ReplicationPlane*, NodeId, VirtAddr,
                const void*, Bytes, Time))
void
wrap_mirror_store(replication::ReplicationPlane* self, NodeId at,
                  VirtAddr va, const void* data, Bytes len, Time now)
{
    Span span(kReplication);
    span.count(kMirrorStoreCalls);
    real_mirror_store(self, at, va, data, len, now);
}

PERFBENCH_SHIM(_ZN5pulse11replication16ReplicationPlane11mirror_markEjRKNS_5accel12ReplayWindow3KeyE,
               void, replication_mirror_mark,
               (replication::ReplicationPlane*, NodeId, const ReplayKey&))
void
wrap_replication_mirror_mark(replication::ReplicationPlane* self,
                             NodeId from, const ReplayKey& key)
{
    Span span(kReplication);
    real_replication_mirror_mark(self, from, key);
}

PERFBENCH_SHIM(_ZN5pulse11replication16ReplicationPlane15mirror_responseEjRKNS_5accel12ReplayWindow3KeyERKNS_3net15TraversalPacketE,
               void, replication_mirror_response,
               (replication::ReplicationPlane*, NodeId, const ReplayKey&,
                const net::TraversalPacket&))
void
wrap_replication_mirror_response(replication::ReplicationPlane* self,
                                 NodeId from, const ReplayKey& key,
                                 const net::TraversalPacket& response)
{
    Span span(kReplication);
    real_replication_mirror_response(self, from, key, response);
}

PERFBENCH_SHIM(_ZN5pulse11replication16ReplicationPlane13mirror_unmarkEjRKNS_5accel12ReplayWindow3KeyE,
               void, replication_mirror_unmark,
               (replication::ReplicationPlane*, NodeId, const ReplayKey&))
void
wrap_replication_mirror_unmark(replication::ReplicationPlane* self,
                               NodeId from, const ReplayKey& key)
{
    Span span(kReplication);
    real_replication_mirror_unmark(self, from, key);
}

// ---------------------------------------------------------------- setup

PERFBENCH_SHIM(_ZN5pulse4core7ClusterC1ERKNS0_13ClusterConfigE,
               void, cluster_ctor,
               (core::Cluster*, const core::ClusterConfig&))
void
wrap_cluster_ctor(core::Cluster* self, const core::ClusterConfig& config)
{
    Span span(kCoreClusterCtor);
    real_cluster_ctor(self, config);
}

PERFBENCH_SHIM(_ZN5pulse2ds9HashTableC1ERNS_3mem12GlobalMemoryERNS2_16ClusterAllocatorERKNS0_15HashTableConfigE,
               void, hash_table_ctor,
               (ds::HashTable*, mem::GlobalMemory&, mem::ClusterAllocator&,
                const ds::HashTableConfig&))
void
wrap_hash_table_ctor(ds::HashTable* self, mem::GlobalMemory& memory,
                     mem::ClusterAllocator& alloc,
                     const ds::HashTableConfig& config)
{
    Span span(kDsBuild);
    real_hash_table_ctor(self, memory, alloc, config);
}

PERFBENCH_SHIM(_ZN5pulse2ds9HashTable6insertEm,
               void, hash_insert, (ds::HashTable*, std::uint64_t))
void
wrap_hash_insert(ds::HashTable* self, std::uint64_t key)
{
    Span span(kDsBuild);
    real_hash_insert(self, key);
}

PERFBENCH_SHIM(_ZN5pulse2ds6BPTree5buildERKSt6vectorINS0_11BPTreeEntryESaIS3_EE,
               void, bptree_build,
               (ds::BPTree*, const std::vector<ds::BPTreeEntry>&))
void
wrap_bptree_build(ds::BPTree* self,
                  const std::vector<ds::BPTreeEntry>& entries)
{
    Span span(kDsBuild);
    real_bptree_build(self, entries);
}

PERFBENCH_SHIM(_ZN5pulse2ds18fill_value_patternEmPhm,
               void, fill_value_pattern,
               (std::uint64_t, std::uint8_t*, Bytes))
void
wrap_fill_value_pattern(std::uint64_t key, std::uint8_t* out, Bytes len)
{
    Span span(kDsFillPattern);
    real_fill_value_pattern(key, out, len);
}

PERFBENCH_SHIM(_ZN5pulse9workloads8PmuTraceC1Emdm,
               void, pmu_trace_ctor,
               (workloads::PmuTrace*, std::uint64_t, double, std::uint64_t))
void
wrap_pmu_trace_ctor(workloads::PmuTrace* self, std::uint64_t samples,
                    double period_ms, std::uint64_t seed)
{
    Span span(kAppsTraceGen);
    real_pmu_trace_ctor(self, samples, period_ms, seed);
}

}  // namespace perfbench
