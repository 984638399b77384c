/**
 * @file
 * Cluster-level checkpoint/restore (see Cluster::save_checkpoint).
 *
 * A checkpoint is a single tagged binary blob (common/serial.h):
 *
 *   "PLSC" magic + format version
 *   config fingerprint        — topology/policy/seed scalars, asserted
 *                               equal on restore so a snapshot can only
 *                               be applied to an identically-built rack
 *   event queue quiesce state — clock + schedule/execute counters
 *   network                   — switch tables, ports, flow accounting
 *   global memory             — committed chunks of every node
 *   allocator                 — bump frontiers, free lists, RNG
 *   per-node channel sets     — busy-until + bandwidth counters
 *   per-node accelerators     — TCAMs, pipeline clocks, counters
 *   per-client offload engines— sequence numbers, RTO, code-send cache
 *
 * Only a *quiesced* cluster can be captured: pending events and
 * in-flight traversals are type-erased closures over live component
 * state and are deliberately not serializable. Quiesce is cheap to
 * reach (drain the queue between driver phases) and is exactly the
 * boundary long scenarios want to fork from.
 */
#include <cstdio>
#include <memory>
#include <vector>

#include "common/logging.h"
#include "common/serial.h"
#include "core/cluster.h"

namespace pulse::core {
namespace {

// Version 2: the network section no longer carries a loss RNG.
constexpr std::uint32_t kCheckpointVersion = 2;

void
put_fingerprint(StateWriter& writer, const ClusterConfig& config)
{
    writer.put_u32(config.num_mem_nodes);
    writer.put_u32(config.num_clients);
    writer.put_u64(config.node_capacity);
    writer.put_u8(static_cast<std::uint8_t>(config.alloc_policy));
    writer.put_u64(config.uniform_chunk_bytes);
    writer.put_u64(config.seed);
    writer.put_u32(config.channels_per_node);
    writer.put_u32(config.accel.num_cores);
    writer.put_u32(config.accel.eta_pipelines);
    writer.put_u32(config.accel.workspaces_per_logic);
    writer.put_u32(config.accel.tcam_entries);
    writer.put_u32(config.accel.replay_window_entries);
    writer.put_bool(config.accel.forward_via_switch);
    writer.put_bool(config.offload.switch_continuation);
    writer.put_u32(config.offload.max_retransmits);
}

void
check_fingerprint(StateReader& reader, const ClusterConfig& config)
{
    PULSE_ASSERT(reader.get_u32() == config.num_mem_nodes &&
                     reader.get_u32() == config.num_clients &&
                     reader.get_u64() == config.node_capacity &&
                     reader.get_u8() ==
                         static_cast<std::uint8_t>(config.alloc_policy) &&
                     reader.get_u64() == config.uniform_chunk_bytes &&
                     reader.get_u64() == config.seed &&
                     reader.get_u32() == config.channels_per_node &&
                     reader.get_u32() == config.accel.num_cores &&
                     reader.get_u32() == config.accel.eta_pipelines &&
                     reader.get_u32() ==
                         config.accel.workspaces_per_logic &&
                     reader.get_u32() == config.accel.tcam_entries &&
                     reader.get_u32() ==
                         config.accel.replay_window_entries &&
                     reader.get_bool() ==
                         config.accel.forward_via_switch &&
                     reader.get_bool() ==
                         config.offload.switch_continuation &&
                     reader.get_u32() == config.offload.max_retransmits,
                 "checkpoint config fingerprint mismatch: snapshot was "
                 "taken on a differently-configured cluster");
}

}  // namespace

std::vector<std::uint8_t>
Cluster::save_checkpoint() const
{
    PULSE_ASSERT(queue_.empty(),
                 "checkpoint requires a quiesced event queue "
                 "(%zu events pending)",
                 queue_.pending());
    PULSE_ASSERT(!fault_plane_ && !checker_ && !placement_plane_ &&
                     !replication_plane_ && !serve_plane_,
                 "checkpoint does not cover the optional planes; build "
                 "the cluster with faults/check/placement/replication/"
                 "serving off");
    PULSE_ASSERT(!tracer_.enabled(),
                 "checkpoint does not cover live trace spans; disable "
                 "tracing first");
    PULSE_ASSERT(memory_->address_map().remaps().empty(),
                 "checkpoint does not cover migration remap overlays");
    for (const auto& engine : offload_) {
        PULSE_ASSERT(engine->inflight() == 0,
                     "checkpoint requires no in-flight traversals");
    }

    StateWriter writer;
    writer.put_tag("PLSC");
    writer.put_u32(kCheckpointVersion);
    put_fingerprint(writer, config_);

    const sim::EventQueue::QuiesceState queue_state =
        queue_.quiesce_state();
    writer.put_i64(queue_state.now);
    writer.put_u64(queue_state.scheduled);
    writer.put_u64(queue_state.executed);

    network_->save_state(writer);
    memory_->save_state(writer);
    allocator_->save_state(writer);
    for (const auto& channels : channels_) {
        channels->save_state(writer);
    }
    for (const auto& accelerator : accelerators_) {
        accelerator->save_state(writer);
    }
    for (const auto& engine : offload_) {
        engine->save_state(writer);
    }
    return writer.take();
}

void
Cluster::restore_checkpoint(const std::vector<std::uint8_t>& bytes)
{
    PULSE_ASSERT(queue_.empty(),
                 "restore requires a quiesced event queue "
                 "(%zu events pending)",
                 queue_.pending());
    PULSE_ASSERT(!fault_plane_ && !checker_ && !placement_plane_ &&
                     !replication_plane_ && !serve_plane_,
                 "restore target must have the optional planes off");
    PULSE_ASSERT(memory_->address_map().remaps().empty(),
                 "restore target must have no migration remaps");

    StateReader reader(bytes);
    reader.expect_tag("PLSC");
    const std::uint32_t version = reader.get_u32();
    PULSE_ASSERT(version == kCheckpointVersion,
                 "unsupported checkpoint version %u", version);
    check_fingerprint(reader, config_);

    sim::EventQueue::QuiesceState queue_state;
    queue_state.now = reader.get_i64();
    queue_state.scheduled = reader.get_u64();
    queue_state.executed = reader.get_u64();
    queue_.restore_quiesce(queue_state);

    network_->load_state(reader);
    memory_->load_state(reader);
    allocator_->load_state(reader);
    for (auto& channels : channels_) {
        channels->load_state(reader);
    }
    for (auto& accelerator : accelerators_) {
        accelerator->load_state(reader);
    }
    for (auto& engine : offload_) {
        engine->load_state(reader);
    }
    PULSE_ASSERT(reader.done(),
                 "trailing bytes after checkpoint restore "
                 "(%zu unread)",
                 reader.remaining());
}

void
Cluster::save_checkpoint_file(const std::string& path) const
{
    const std::vector<std::uint8_t> blob = save_checkpoint();
    std::FILE* file = std::fopen(path.c_str(), "wb");
    PULSE_ASSERT(file != nullptr, "cannot open checkpoint file %s",
                 path.c_str());
    const std::size_t written =
        std::fwrite(blob.data(), 1, blob.size(), file);
    std::fclose(file);
    PULSE_ASSERT(written == blob.size(),
                 "short write to checkpoint file %s", path.c_str());
}

void
Cluster::restore_checkpoint_file(const std::string& path)
{
    std::FILE* file = std::fopen(path.c_str(), "rb");
    PULSE_ASSERT(file != nullptr, "cannot open checkpoint file %s",
                 path.c_str());
    std::fseek(file, 0, SEEK_END);
    const long size = std::ftell(file);
    PULSE_ASSERT(size >= 0, "cannot stat checkpoint file %s",
                 path.c_str());
    std::fseek(file, 0, SEEK_SET);
    std::vector<std::uint8_t> blob(static_cast<std::size_t>(size));
    const std::size_t read = std::fread(blob.data(), 1, blob.size(), file);
    std::fclose(file);
    PULSE_ASSERT(read == blob.size(),
                 "short read from checkpoint file %s", path.c_str());
    restore_checkpoint(blob);
}

}  // namespace pulse::core
