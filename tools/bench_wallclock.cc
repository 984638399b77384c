/**
 * @file
 * bench_wallclock — self-profiling driver for the simulation hot path
 * and the parallel sweep runner. Produces the BENCH_wallclock.json
 * artifact (format documented in EXPERIMENTS.md).
 *
 * Four measurements; the last three go through an instrumented global
 * allocator (every operator new/new[] call is counted):
 *
 * 0. Interpreter microbenchmark: ns per executed instruction of
 *    isa::run_iteration on a fixed program mix — the TSV B+tree
 *    aggregate's leaf-scan iteration and the UPC chained-hash
 *    bucket-walk iteration — each over a pre-filled workspace. Then
 *    the simulated-DRAM row: ns per dependent, random 256-byte
 *    PhysicalMemory::read over a 64 MiB node, and whether the host
 *    backed the node with transparent huge pages.
 *
 * 1. Event-loop microbenchmark: a self-rescheduling event chain on the
 *    production sim::EventQueue (pooled slots + InlineFunction
 *    callbacks). Reports events/sec and allocations/event.
 *
 * 2. End-to-end cell profile: one representative closed-loop
 *    simulation cell, reporting allocations and events for the whole
 *    run (setup + steady state) — the number that bounds how much the
 *    hot path can still be hiding.
 *
 * 3. Sweep scaling: a reduced multi-cell sweep executed serially
 *    (--threads=1) and with the configured worker count, reporting
 *    wall clock for both and the speedup.
 *
 * Options (also honors PULSE_BENCH_THREADS / PULSE_BENCH_OPS_SCALE):
 *   --out=PATH       artifact path (default BENCH_wallclock.json)
 *   --threads=N      worker count for the parallel sweep phase
 *   --ops-scale=X    scale cell op counts (default 0.25 here: this is
 *                    a profiling driver, not a figure reproduction)
 */
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/random.h"
#include "ds/bptree.h"
#include "ds/hash_table.h"
#include "isa/interpreter.h"
#include "mem/allocator.h"
#include "mem/global_memory.h"
#include "mem/physical_memory.h"
#include "sim/event_queue.h"
#include "sweep_runner.h"

// ---------------------------------------------------------------------
// Instrumented global allocator: counts every heap allocation made by
// the process. Relaxed atomics — counters, not synchronization.
// ---------------------------------------------------------------------

namespace {

std::atomic<std::uint64_t> g_allocs{0};
std::atomic<std::uint64_t> g_alloc_bytes{0};

void*
counted_alloc(std::size_t size)
{
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    g_alloc_bytes.fetch_add(size, std::memory_order_relaxed);
    void* ptr = std::malloc(size == 0 ? 1 : size);
    if (ptr == nullptr) {
        throw std::bad_alloc();
    }
    return ptr;
}

}  // namespace

void*
operator new(std::size_t size)
{
    return counted_alloc(size);
}

void*
operator new[](std::size_t size)
{
    return counted_alloc(size);
}

void
operator delete(void* ptr) noexcept
{
    std::free(ptr);
}

void
operator delete[](void* ptr) noexcept
{
    std::free(ptr);
}

void
operator delete(void* ptr, std::size_t) noexcept
{
    std::free(ptr);
}

void
operator delete[](void* ptr, std::size_t) noexcept
{
    std::free(ptr);
}

namespace {

using namespace pulse;
using namespace pulse::bench;

std::uint64_t
allocs_now()
{
    return g_allocs.load(std::memory_order_relaxed);
}

double
seconds_since(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
        .count();
}

// ---------------------------------------------------------------------
// Phase 0 — interpreter ns/instruction on a fixed program mix.
// ---------------------------------------------------------------------

/**
 * Best-of-repeats ns per instruction of run_iteration(@p program) over
 * @p prefilled. The workspace is laid out so every iteration takes the
 * same path and ends in NEXT_ITER; the only state it carries forward
 * (accumulators, cur_ptr) never changes the path.
 */
double
interpreter_ns_per_instruction(const isa::Program& program,
                               const isa::Workspace& prefilled)
{
    constexpr std::uint64_t kInstructions = 10'000'000;
    constexpr int kRepeats = 5;
    double best = 0.0;
    for (int repeat = 0; repeat < kRepeats; repeat++) {
        isa::Workspace workspace = prefilled;
        std::uint64_t executed = 0;
        const auto start = std::chrono::steady_clock::now();
        while (executed < kInstructions) {
            const isa::IterationResult result =
                isa::run_iteration(program, workspace);
            PULSE_ASSERT(result.end == isa::IterEnd::kNextIter,
                         "interpreter mix must stay on its loop path");
            executed += result.instructions_executed;
        }
        const double ns =
            seconds_since(start) * 1e9 / static_cast<double>(executed);
        best = repeat == 0 ? ns : std::min(best, ns);
    }
    return best;
}

void
store_u64(std::vector<std::uint8_t>& bytes, std::uint32_t offset,
          std::uint64_t value)
{
    std::memcpy(bytes.data() + offset, &value, sizeof(value));
}

/** Per-program and mean ns/instruction (the programs run equal
 *  instruction counts, so the mean is the mix's cost). */
struct InterpreterProfile
{
    double bptree_aggregate = 0.0;
    double hash_bucket_walk = 0.0;

    double mean() const { return (bptree_aggregate + hash_bucket_walk) / 2; }
};

InterpreterProfile
profile_interpreter()
{
    // The programs are generated from the data-structure configs the
    // TSV and UPC apps use; nothing is built in the (empty) memory.
    mem::GlobalMemory memory(1, kMiB);
    mem::ClusterAllocator alloc(memory.address_map(),
                                mem::AllocPolicy::kPartitioned);
    ds::BPTreeConfig tree_config;
    tree_config.leaf_slots = 12;
    const ds::BPTree tree(memory, alloc, tree_config);
    ds::HashTableConfig table_config;
    table_config.num_buckets = 1;
    const ds::HashTable table(memory, alloc, table_config);
    constexpr std::uint64_t kNextNode = 0x1000;
    InterpreterProfile profile;

    // Leaf scan: every slot's key is inside [lo, hi], so each slot runs
    // both range compares and the SUM's two adds; the next-leaf pointer
    // is set, so the iteration continues along the sibling chain.
    {
        using T = ds::BPTree;
        const auto program = tree.aggregate_program(ds::AggKind::kSum);
        isa::Workspace workspace;
        workspace.configure(*program);
        store_u64(workspace.scratch, T::kSpPhase, 1);
        store_u64(workspace.scratch, T::kSpKey, 1);
        store_u64(workspace.scratch, T::kSpKey2, 1000);
        for (std::uint32_t i = 0; i < tree_config.leaf_slots; i++) {
            const std::uint32_t slot =
                T::kLeafSlotsOff + i * T::kLeafSlotBytes;
            store_u64(workspace.data, slot, 10 + i);
            store_u64(workspace.data, slot + 8, 100 + i);
        }
        store_u64(workspace.data, T::kLeafNextOff, kNextNode);
        profile.bptree_aggregate =
            interpreter_ns_per_instruction(*program, workspace);
    }

    // Bucket walk: a chain node whose key does not match and whose
    // next pointer is set, so the iteration moves on down the chain.
    {
        using T = ds::HashTable;
        const auto program = table.find_program();
        isa::Workspace workspace;
        workspace.configure(*program);
        store_u64(workspace.scratch, T::kSpPhase, 1);
        store_u64(workspace.scratch, T::kSpKey, 1);
        store_u64(workspace.data, T::kKeyOff, 2);
        store_u64(workspace.data, T::kNextOff, kNextNode);
        profile.hash_bucket_walk =
            interpreter_ns_per_instruction(*program, workspace);
    }
    return profile;
}

// ---------------------------------------------------------------------
// Phase 0b — simulated-DRAM load latency.
// ---------------------------------------------------------------------

/** True when /proc/self/smaps_rollup reports AnonHugePages > 0. */
bool
process_has_huge_pages()
{
    std::FILE* file = std::fopen("/proc/self/smaps_rollup", "r");
    if (file == nullptr) {
        return false;
    }
    char line[256];
    unsigned long long kib = 0;
    while (std::fgets(line, sizeof(line), file) != nullptr) {
        if (std::sscanf(line, "AnonHugePages: %llu kB", &kib) == 1) {
            break;
        }
    }
    std::fclose(file);
    return kib > 0;
}

struct MemoryProfile
{
    double random_load_ns = 0.0;
    bool huge_pages = false;
};

/**
 * Best-of-repeats ns per 256-byte PhysicalMemory::read at a random
 * 256-byte-aligned offset over a fully written 64 MiB node, with no
 * prefetch: the host cost of one simulated pointer hop. Each slot
 * stores the index of the next slot on one random cycle through all
 * slots (Sattolo's shuffle), so every load depends on the one before,
 * as a traversal's do.
 */
MemoryProfile
profile_memory()
{
    constexpr Bytes kNodeBytes = 64 * kMiB;
    constexpr Bytes kLoadBytes = 256;
    constexpr std::uint64_t kSlots = kNodeBytes / kLoadBytes;
    constexpr std::uint64_t kLoads = 1'000'000;
    constexpr int kRepeats = 3;

    std::vector<std::uint64_t> next(kSlots);
    for (std::uint64_t i = 0; i < kSlots; i++) {
        next[i] = i;
    }
    Rng rng(42);
    for (std::uint64_t i = kSlots - 1; i > 0; i--) {
        std::swap(next[i], next[rng.next_below(i)]);
    }
    mem::PhysicalMemory memory(kNodeBytes);
    for (std::uint64_t i = 0; i < kSlots; i++) {
        memory.write_as<std::uint64_t>(i * kLoadBytes, next[i]);
    }

    MemoryProfile profile;
    std::uint8_t load[kLoadBytes] = {};
    std::uint64_t slot = 0;
    for (int repeat = 0; repeat < kRepeats; repeat++) {
        const auto start = std::chrono::steady_clock::now();
        for (std::uint64_t i = 0; i < kLoads; i++) {
            memory.read(slot * kLoadBytes, load, kLoadBytes);
            std::memcpy(&slot, load, sizeof(slot));
        }
        const double ns = seconds_since(start) * 1e9 /
                          static_cast<double>(kLoads);
        profile.random_load_ns =
            repeat == 0 ? ns : std::min(profile.random_load_ns, ns);
    }
    PULSE_ASSERT(slot < kSlots, "pointer chase left the node");
    profile.huge_pages = process_has_huge_pages();
    return profile;
}

// ---------------------------------------------------------------------
// Phase 1 — event-loop microbenchmark.
// ---------------------------------------------------------------------

/** Capture payload comparable to a forwarded TraversalPacket. */
struct Payload
{
    std::uint64_t words[12] = {};
};

struct LoopProfile
{
    double wall_seconds = 0.0;
    std::uint64_t events = 0;
    std::uint64_t allocs = 0;

    double
    events_per_sec() const
    {
        return wall_seconds > 0.0
                   ? static_cast<double>(events) / wall_seconds
                   : 0.0;
    }

    double
    allocs_per_event() const
    {
        return events > 0 ? static_cast<double>(allocs) /
                                static_cast<double>(events)
                          : 0.0;
    }
};

/** Self-rescheduling chains: every event schedules its successor. */
LoopProfile
profile_event_loop(std::uint64_t chains, std::uint64_t total_events)
{
    sim::EventQueue queue;
    std::uint64_t remaining = 0;
    // Recursion through the queue: fn reschedules itself while work
    // remains, carrying a packet-sized payload by value.
    struct Chain
    {
        sim::EventQueue* queue;
        std::uint64_t* remaining;
        void
        fire(const Payload& payload) const
        {
            if (*remaining == 0) {
                return;
            }
            (*remaining)--;
            Payload next = payload;
            next.words[0]++;
            const Chain chain = *this;
            queue->schedule_at(queue->now() + 10, [chain, next] {
                chain.fire(next);
            });
        }
    };
    const Chain chain{&queue, &remaining};
    const auto fire_all = [&] {
        for (std::uint64_t i = 0; i < chains; i++) {
            Payload payload;
            payload.words[1] = i;
            chain.fire(payload);
        }
    };

    // Prewarm: one short pass grows the queue's slot pool and heap
    // capacity to their steady-state size, so the measured pass counts
    // only per-event traffic (the answer must be an exact 0, not "0
    // plus amortized vector doublings").
    remaining = chains * 4;
    fire_all();
    queue.run();

    remaining = total_events;
    fire_all();
    LoopProfile profile;
    const std::uint64_t allocs_before = allocs_now();
    const auto start = std::chrono::steady_clock::now();
    profile.events = queue.run();
    profile.wall_seconds = seconds_since(start);
    profile.allocs = allocs_now() - allocs_before;
    return profile;
}

// ---------------------------------------------------------------------
// Phase 2/3 — end-to-end cell profile and sweep scaling.
// ---------------------------------------------------------------------

/** Reduced sweep: one saturation cell per app on pulse + RPC. */
void
add_sweep_cells(SweepRunner& sweep)
{
    for (const App app : {App::kUpc, App::kTc, App::kTsv15,
                          App::kTsv60}) {
        for (const core::SystemKind system :
             {core::SystemKind::kPulse, core::SystemKind::kRpc}) {
            RunSpec spec = main_spec(app, system, 1);
            spec.concurrency = 256;
            spec.warmup_ops = 256;
            spec.measure_ops = 1024;
            sweep.add_spec(std::string(app_name(app)) + "/" +
                               core::system_name(system),
                           spec);
        }
    }
}

}  // namespace

int
main(int argc, char** argv)
{
    std::string out_path = "BENCH_wallclock.json";
    // This binary profiles; it does not reproduce figures. Default to
    // a quarter of the figure op counts unless told otherwise.
    bench_options().ops_scale = 0.25;
    parse_bench_args(argc, argv);
    for (int i = 1; i < argc; i++) {
        const std::string_view arg(argv[i]);
        constexpr std::string_view kOut = "--out=";
        if (arg.substr(0, kOut.size()) == kOut) {
            out_path = arg.substr(kOut.size());
        } else {
            std::fprintf(stderr, "unknown option %s\n", argv[i]);
            return 2;
        }
    }

    trace::MetricsExporter exporter;

    // Phase 0 — interpreter ns/instruction.
    const InterpreterProfile interpreter = profile_interpreter();
    exporter.set("isa.ns_per_instruction", interpreter.mean());
    exporter.set("isa.bptree_aggregate.ns_per_instruction",
                 interpreter.bptree_aggregate);
    exporter.set("isa.hash_bucket_walk.ns_per_instruction",
                 interpreter.hash_bucket_walk);
    std::printf("interpreter: %.2f ns/instruction (B+tree leaf scan "
                "%.2f, hash bucket walk %.2f)\n",
                interpreter.mean(), interpreter.bptree_aggregate,
                interpreter.hash_bucket_walk);

    // Phase 0b — simulated-DRAM load latency.
    const MemoryProfile memory_profile = profile_memory();
    exporter.set("mem.random_load_ns", memory_profile.random_load_ns);
    exporter.set("mem.huge_pages", memory_profile.huge_pages ? 1.0 : 0.0);
    std::printf("memory: %.1f ns per dependent random 256 B load (%s "
                "huge pages)\n",
                memory_profile.random_load_ns,
                memory_profile.huge_pages ? "with" : "without");

    // Phase 1 — event-loop microbenchmark.
    const std::uint64_t kChains = 64;
    const std::uint64_t kEvents = 2'000'000;
    const LoopProfile loop = profile_event_loop(kChains, kEvents);
    exporter.set("eventloop.events", static_cast<double>(loop.events));
    exporter.set("eventloop.pooled.wall_ms",
                 loop.wall_seconds * 1e3);
    exporter.set("eventloop.pooled.events_per_sec",
                 loop.events_per_sec());
    exporter.set("eventloop.pooled.allocs_per_event",
                 loop.allocs_per_event());
    std::printf("event loop: %.2f Mev/s (%.4f allocs/event)\n",
                loop.events_per_sec() / 1e6,
                loop.allocs_per_event());

    // Phase 2 — end-to-end cell profile (UPC on pulse, saturating).
    // Measured over the *steady-state window* only: the warmup is long
    // enough for every pool to plateau (the replay window's FIFO budget
    // is the slowest, hence 4096 ops), then allocation and event
    // counters are snapshotted at measure start. The breakdown rows
    // attribute the remaining window allocations to their subsystem
    // pools so future regressions name their source.
    {
        RunSpec spec =
            main_spec(App::kUpc, core::SystemKind::kPulse, 1);
        spec.concurrency = 256;
        spec.warmup_ops = 4096;
        spec.measure_ops = 4096;
        const RunSpec scaled = apply_ops_scale(spec);
        Experiment experiment = make_experiment(scaled);
        core::Cluster& cluster = *experiment.cluster;
        sim::EventQueue& queue = cluster.queue();

        const auto packet_fresh = [&cluster] {
            std::uint64_t fresh = 0;
            for (NodeId node = 0;
                 node < cluster.config().num_mem_nodes; node++) {
                fresh += cluster.accelerator(node).packet_pool_fresh();
            }
            for (ClientId client = 0;
                 client < cluster.config().num_clients; client++) {
                fresh += cluster.offload_engine(client).pool_fresh();
            }
            return fresh;
        };
        const auto contexts_created = [&cluster] {
            std::uint64_t created = 0;
            for (NodeId node = 0;
                 node < cluster.config().num_mem_nodes; node++) {
                created += cluster.accelerator(node).contexts_created();
            }
            return created;
        };

        std::uint64_t window_allocs = 0;
        std::uint64_t window_events = 0;
        std::uint64_t window_packet_fresh = 0;
        std::uint64_t window_contexts = 0;
        std::uint64_t window_queue_slots = 0;
        std::uint64_t window_coalesced = 0;
        std::uint64_t window_batches = 0;
        double window_wall = 0.0;
        std::chrono::steady_clock::time_point window_start;

        workloads::DriverConfig driver;
        driver.warmup_ops = scaled.warmup_ops;
        driver.measure_ops = scaled.measure_ops;
        driver.concurrency = scaled.concurrency;
        driver.on_measure_start = [&] {
            cluster.reset_stats();
            window_allocs = allocs_now();
            window_events = queue.events_executed();
            window_packet_fresh = packet_fresh();
            window_contexts = contexts_created();
            window_queue_slots = queue.pool_slots();
            window_coalesced = queue.events_coalesced();
            window_batches = queue.batches_drained();
            window_start = std::chrono::steady_clock::now();
        };

        const std::uint64_t total_allocs_before = allocs_now();
        workloads::run_closed_loop(queue,
                                   cluster.submitter(scaled.system),
                                   experiment.factory, driver);
        window_wall = seconds_since(window_start);

        const std::uint64_t allocs = allocs_now() - window_allocs;
        const std::uint64_t events =
            queue.events_executed() - window_events;
        const std::uint64_t packet_allocs =
            packet_fresh() - window_packet_fresh;
        const std::uint64_t visit_allocs =
            contexts_created() - window_contexts;
        const std::uint64_t queue_allocs =
            queue.pool_slots() - window_queue_slots;
        const std::uint64_t attributed =
            packet_allocs + visit_allocs + queue_allocs;
        const std::uint64_t coalesced =
            queue.events_coalesced() - window_coalesced;
        const std::uint64_t batches =
            queue.batches_drained() - window_batches;
        const double allocs_per_event =
            events > 0 ? static_cast<double>(allocs) /
                             static_cast<double>(events)
                       : 0.0;
        exporter.set("sim.events", static_cast<double>(events));
        exporter.set("sim.allocs", static_cast<double>(allocs));
        exporter.set("sim.allocs_per_event", allocs_per_event);
        exporter.set("sim.wall_ms", window_wall * 1e3);
        exporter.set("sim.events_per_sec",
                     window_wall > 0.0
                         ? static_cast<double>(events) / window_wall
                         : 0.0);
        exporter.set("sim.setup.allocs",
                     static_cast<double>(window_allocs -
                                         total_allocs_before));
        exporter.set("sim.breakdown.packet_pool",
                     static_cast<double>(packet_allocs));
        exporter.set("sim.breakdown.visit_contexts",
                     static_cast<double>(visit_allocs));
        exporter.set("sim.breakdown.queue_slots",
                     static_cast<double>(queue_allocs));
        exporter.set("sim.breakdown.other",
                     static_cast<double>(allocs > attributed
                                             ? allocs - attributed
                                             : 0));
        exporter.set("sim.coalescing.events_coalesced",
                     static_cast<double>(coalesced));
        exporter.set("sim.coalescing.batches_drained",
                     static_cast<double>(batches));
        exporter.set("sim.coalescing.events_per_batch",
                     batches > 0 ? static_cast<double>(coalesced) /
                                       static_cast<double>(batches)
                                 : 0.0);
        std::printf("simulation cell: %" PRIu64 " steady-state events, "
                    "%.4f allocs/event (packet %" PRIu64 ", visit %"
                    PRIu64 ", queue %" PRIu64 ", other %" PRIu64 "), "
                    "%" PRIu64 " coalesced into %" PRIu64 " batches\n",
                    events, allocs_per_event, packet_allocs,
                    visit_allocs, queue_allocs,
                    allocs > attributed ? allocs - attributed : 0,
                    coalesced, batches);

        // Phase 2b — checkpoint/restore cost on the warmed cluster
        // (the queue is drained, so this is a legal quiesce point).
        // Skipped when an optional plane is attached (PULSE_CHECK
        // etc.): those are outside the snapshot by design.
        if (cluster.checker() != nullptr ||
            cluster.fault_plane() != nullptr ||
            cluster.placement_plane() != nullptr ||
            cluster.replication_plane() != nullptr ||
            cluster.tracer().enabled()) {
            std::printf("checkpoint: skipped (optional plane "
                        "attached)\n");
        } else {
        const auto save_start = std::chrono::steady_clock::now();
        const std::vector<std::uint8_t> blob =
            cluster.save_checkpoint();
        const double save_wall = seconds_since(save_start);
        const auto restore_start = std::chrono::steady_clock::now();
        cluster.restore_checkpoint(blob);
        const double restore_wall = seconds_since(restore_start);
        exporter.set("checkpoint.bytes",
                     static_cast<double>(blob.size()));
        exporter.set("checkpoint.save_ms", save_wall * 1e3);
        exporter.set("checkpoint.restore_ms", restore_wall * 1e3);
        std::printf("checkpoint: %.1f KiB, save %.2f ms, restore "
                    "%.2f ms\n",
                    static_cast<double>(blob.size()) / 1024.0,
                    save_wall * 1e3, restore_wall * 1e3);
        }
    }

    // Phase 3 — sweep scaling, serial vs parallel.
    const unsigned parallel_threads = bench_options().threads;
    bench_options().threads = 1;
    double serial_seconds = 0.0;
    {
        SweepRunner sweep("wallclock_serial");
        add_sweep_cells(sweep);
        serial_seconds = sweep.run_all();
    }
    bench_options().threads = parallel_threads;
    double parallel_seconds = 0.0;
    {
        SweepRunner sweep("wallclock_parallel");
        add_sweep_cells(sweep);
        parallel_seconds = sweep.run_all();
    }
    // Honest thread reporting (docs/PERF.md): emit the worker count
    // actually used *and* the hardware concurrency, and flag runs
    // where the speedup is bounded by the machine rather than the
    // runner — a 1.0x "speedup" on a 1-core container is the expected
    // ceiling, not a scaling regression.
    const unsigned hardware_threads =
        std::max(1u, std::thread::hardware_concurrency());
    exporter.set("sweep.cells", 8.0);
    exporter.set("sweep.serial.wall_ms", serial_seconds * 1e3);
    exporter.set("sweep.parallel.wall_ms", parallel_seconds * 1e3);
    exporter.set("sweep.parallel.threads",
                 static_cast<double>(parallel_threads));
    exporter.set("sweep.hardware_concurrency",
                 static_cast<double>(hardware_threads));
    exporter.set("sweep.parallel.oversubscribed",
                 parallel_threads > hardware_threads ? 1.0 : 0.0);
    exporter.set("sweep.speedup",
                 parallel_seconds > 0.0
                     ? serial_seconds / parallel_seconds
                     : 0.0);
    exporter.set("process.peak_rss_kib",
                 static_cast<double>(peak_rss_kib()));
    std::printf("sweep: serial %.2f s, parallel %.2f s on %u "
                "threads (%.2fx, %u hardware thread%s%s)\n",
                serial_seconds, parallel_seconds, parallel_threads,
                parallel_seconds > 0.0
                    ? serial_seconds / parallel_seconds
                    : 0.0,
                hardware_threads, hardware_threads == 1 ? "" : "s",
                parallel_threads > hardware_threads
                    ? "; oversubscribed — speedup bounded by the "
                      "machine, not the runner"
                    : "");

    if (!exporter.write_file(out_path)) {
        std::fprintf(stderr, "failed to write %s\n",
                     out_path.c_str());
        return 1;
    }
    std::printf("wrote %s\n", out_path.c_str());
    return 0;
}
