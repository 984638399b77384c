/**
 * @file
 * Host-time benchmark of the simulator.
 *
 * One process runs one named workload: a closed-loop, figure-style cell
 * (cluster + data structure, then workloads::run_closed_loop). It times
 * the set-up and the simulation separately, repeats the cell until the
 * --seconds budget is spent, and checks the simulated outputs:
 *
 *   - every completion is free of driver errors;
 *   - a seeded sample of completions matches the data structure's host
 *     reference (HashTable::find_reference, BPTree::scan_reference,
 *     BPTree::aggregate_reference), and on update workloads every
 *     updated key reads back its new value after quiesce;
 *   - every repetition yields the same model digest (FNV-1a over all
 *     simulated statistics), which perfbench/run.py compares with the
 *     golden stored for the workload's default seed.
 *
 * The last stdout line is a JSON report that run.py condenses into the
 * benchmark's metrics. Linked with layer_wrap.cc instead of
 * layer_stub.cc, the same program also attributes host time to layers.
 *
 * Usage: pulse_perfbench --workload <name> [--seed N] [--seconds S]
 */
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <unordered_set>
#include <vector>

#include "bench_util.h"
#include "ds/ds_common.h"
#include "layer_trace.h"

extern char** environ;

namespace {

using namespace pulse;
using Clock = std::chrono::steady_clock;

/** Set-up-only builds per run, on top of one per simulated cell, so
 *  set-up time is a median of several builds even on long cells. */
constexpr int kSetupOnlyReps = 4;

/** Completions per repetition checked against the host reference. */
constexpr std::uint64_t kSampledOps = 256;

/** At most this many failure messages are kept; all are counted. */
constexpr std::size_t kMaxFailureMessages = 20;

enum class OpKind : std::uint8_t { kFind, kUpdate, kScan, kAggregate };

/** One generated operation; the program only ever sees these. */
struct OpInput
{
    OpKind kind = OpKind::kFind;
    std::uint64_t a = 0;  ///< key / scan start / window lo
    std::uint64_t b = 0;  ///< scan length / window hi
    ds::AggKind agg = ds::AggKind::kSum;
};

/** A benchmark workload: one figure-style cell (perfbench/design.json
 *  records why each exists and which layers it must exercise). */
struct Workload
{
    const char* name;
    std::uint64_t default_seed;  ///< the seed its golden digest is for
    bench::RunSpec (*cell)();
    double update_fraction;
};

// Warmup is one concurrency's worth of operations; the measured counts
// are sized so that several cells fit one benchmark run.

bench::RunSpec
tsv_agg_cell()
{
    bench::RunSpec spec = bench::main_spec(
        bench::App::kTsv60, core::SystemKind::kPulse, 4);
    spec.concurrency = 2048;
    spec.warmup_ops = 2048;
    spec.measure_ops = 1024;
    return spec;
}

bench::RunSpec
upc_chase_cell()
{
    bench::RunSpec spec =
        bench::main_spec(bench::App::kUpc, core::SystemKind::kPulse, 4);
    spec.concurrency = 2048;
    spec.warmup_ops = 2048;
    spec.measure_ops = 8192;
    return spec;
}

bench::RunSpec
upc_rw_planes_cell()
{
    bench::RunSpec spec =
        bench::main_spec(bench::App::kUpc, core::SystemKind::kPulse, 4);
    spec.concurrency = 512;
    spec.warmup_ops = 512;
    spec.measure_ops = 8192;
    // ablation_migration's layout: hot ranks on the lowest indices,
    // bucket-major chains, so skew lands on migratable slabs.
    spec.scale.zipf_theta = 0.99;
    spec.scale.zipf_scatter = false;
    spec.scale.sequential_buckets = true;
    spec.tweak = [](core::ClusterConfig& config) {
        config.placement.mode = placement::PlacementMode::kElastic;
        config.replication.replication_factor = 2;
    };
    return spec;
}

bench::RunSpec
tc_scan_rpc_cell()
{
    bench::RunSpec spec =
        bench::main_spec(bench::App::kTc, core::SystemKind::kRpc, 4);
    spec.concurrency = 2048;
    spec.warmup_ops = 2048;
    spec.measure_ops = 4096;
    return spec;
}

const std::vector<Workload>&
workload_table()
{
    static const std::vector<Workload> table = {
        {"tsv-agg", 1, tsv_agg_cell, 0.0},
        {"upc-chase", 1, upc_chase_cell, 0.0},
        {"upc-rw-planes", 1, upc_rw_planes_cell, 0.5},
        {"tc-scan-rpc", 1, tc_scan_rpc_cell, 0.0},
    };
    return table;
}

/** SplitMix64 finalizer: independent streams from one workload seed. */
std::uint64_t
derive_seed(std::uint64_t seed, std::uint64_t stream)
{
    std::uint64_t z = seed + 0x9e3779b97f4a7c15ull * (stream + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

/** Seed streams; each repetition samples its checked completions from
 *  its own stream, kSampleStream + repetition. */
enum SeedStream : std::uint64_t {
    kOpStream,
    kClusterStream,
    kUpdateStream,
    kSampleStream,
};

double
seconds_between(Clock::time_point from, Clock::time_point to)
{
    return std::chrono::duration<double>(to - from).count();
}

double
median(std::vector<double> values)
{
    if (values.empty()) {
        return 0.0;
    }
    std::sort(values.begin(), values.end());
    const std::size_t mid = values.size() / 2;
    return values.size() % 2 == 1
               ? values[mid]
               : 0.5 * (values[mid - 1] + values[mid]);
}

std::uint64_t
fnv1a(const std::string& text)
{
    std::uint64_t hash = 0xcbf29ce484222325ull;
    for (const char c : text) {
        hash ^= static_cast<std::uint8_t>(c);
        hash *= 0x100000001b3ull;
    }
    return hash;
}

std::string
json_string(const std::string& text)
{
    std::string out = "\"";
    for (const char c : text) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            out += ' ';
        } else {
            out += c;
        }
    }
    return out + "\"";
}

std::string
json_number(double value)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    return buf;
}

/** Inputs for every operation of one cell, drawn from the seed. */
std::vector<OpInput>
make_inputs(const Workload& workload, const bench::RunSpec& spec,
            const bench::Experiment& experiment, std::uint64_t seed)
{
    const std::uint64_t total = spec.warmup_ops + spec.measure_ops;
    Rng rng(derive_seed(seed, kOpStream));
    std::vector<OpInput> inputs(total);
    switch (spec.app) {
      case bench::App::kUpc: {
        workloads::YcsbC keys(experiment.upc->num_keys(),
                              spec.scale.zipf_theta,
                              spec.scale.zipf_scatter);
        for (OpInput& input : inputs) {
            input.kind = workload.update_fraction > 0.0 &&
                                 rng.next_bool(workload.update_fraction)
                             ? OpKind::kUpdate
                             : OpKind::kFind;
            input.a = workloads::key_of(keys.next_index(rng));
        }
        break;
      }
      case bench::App::kTc: {
        workloads::YcsbE scans(spec.scale.tc_keys);
        for (OpInput& input : inputs) {
            const workloads::YcsbE::Scan scan = scans.next(rng);
            input.kind = OpKind::kScan;
            input.a = workloads::key_of(scan.start_index);
            input.b = scan.length;
        }
        break;
      }
      default: {
        workloads::TsvQueries windows(
            experiment.tsv->trace(), bench::tsv_window_seconds(spec.app));
        for (OpInput& input : inputs) {
            const workloads::TsvQueries::Query query = windows.next(rng);
            input.kind = OpKind::kAggregate;
            input.a = query.lo;
            input.b = query.hi;
            input.agg = query.kind;
        }
        break;
      }
    }
    return inputs;
}

/** The value every update of @p key writes (never any key's original
 *  pattern: keys are multiples of 8 and the salt is odd). */
std::vector<std::uint8_t>
update_value(std::uint64_t key, std::uint64_t salt, Bytes len)
{
    std::vector<std::uint8_t> value(len);
    ds::fill_value_pattern(key ^ salt, value.data(), len);
    return value;
}

offload::Operation
make_op(bench::Experiment& experiment, const OpInput& input,
        std::uint64_t salt)
{
    switch (input.kind) {
      case OpKind::kFind: {
        offload::Operation op =
            experiment.upc->table().make_find(input.a, nullptr);
        // Object identity, as UpcApp sets it for the Cache+RPC baseline.
        op.object_id = input.a;
        op.object_bytes = 256;
        return op;
      }
      case OpKind::kUpdate: {
        ds::HashTable& table = experiment.upc->table();
        return table.make_update(
            input.a,
            update_value(input.a, salt, table.config().value_bytes),
            nullptr);
      }
      case OpKind::kScan:
        return experiment.tc->tree().make_scan(input.a, input.b, nullptr);
      case OpKind::kAggregate:
        return experiment.tsv->tree().make_aggregate(input.agg, input.a,
                                                     input.b, nullptr);
    }
    return {};
}

/** Compare one sampled completion with the host reference. */
std::string
check_completion(bench::Experiment& experiment, const OpInput& input,
                 const offload::Completion& completion, bool key_updated,
                 std::uint64_t salt)
{
    char buf[256];
    switch (input.kind) {
      case OpKind::kFind: {
        const ds::HashTable& table = experiment.upc->table();
        const ds::HashTable::FindResult got = table.parse_find(completion);
        const Bytes len = table.config().value_bytes;
        std::vector<std::uint8_t> original(len);
        ds::fill_value_pattern(input.a, original.data(), len);
        // The whole value must be the build's or, once the key has an
        // update in the stream, the update's.
        const bool ok =
            got.found && table.find_reference(input.a).has_value() &&
            (got.value == original ||
             (key_updated && got.value == update_value(input.a, salt, len)));
        if (!ok) {
            std::snprintf(buf, sizeof(buf),
                          "find(%llu): found=%d value=%llx",
                          static_cast<unsigned long long>(input.a),
                          got.found ? 1 : 0,
                          static_cast<unsigned long long>(got.value_word));
            return buf;
        }
        return "";
      }
      case OpKind::kUpdate:
        if (!ds::HashTable::parse_update(completion)) {
            std::snprintf(buf, sizeof(buf), "update(%llu): key not found",
                          static_cast<unsigned long long>(input.a));
            return buf;
        }
        return "";
      case OpKind::kScan: {
        const ds::BPTree& tree = experiment.tc->tree();
        const ds::BPTree::ScanResult got =
            ds::BPTree::parse_scan(completion);
        const ds::BPTree::ScanResult want =
            tree.scan_reference(input.a, input.b);
        if (got.complete != want.complete || got.count != want.count ||
            got.fold != want.fold || got.last_key != want.last_key) {
            std::snprintf(
                buf, sizeof(buf),
                "scan(%llu, %llu): count %llu vs %llu, fold %llx vs %llx",
                static_cast<unsigned long long>(input.a),
                static_cast<unsigned long long>(input.b),
                static_cast<unsigned long long>(got.count),
                static_cast<unsigned long long>(want.count),
                static_cast<unsigned long long>(got.fold),
                static_cast<unsigned long long>(want.fold));
            return buf;
        }
        return "";
      }
      case OpKind::kAggregate: {
        const ds::BPTree& tree = experiment.tsv->tree();
        const ds::BPTree::AggResult got =
            ds::BPTree::parse_aggregate(completion, input.agg);
        const ds::BPTree::AggResult want =
            tree.aggregate_reference(input.agg, input.a, input.b);
        // MIN/MAX programs do not keep an in-window count.
        const bool counted = input.agg == ds::AggKind::kSum ||
                             input.agg == ds::AggKind::kCount;
        if (got.complete != want.complete || got.value != want.value ||
            (counted && got.count != want.count)) {
            std::snprintf(
                buf, sizeof(buf),
                "aggregate(%d, %llu, %llu): count %llu vs %llu, "
                "value %lld vs %lld",
                static_cast<int>(input.agg),
                static_cast<unsigned long long>(input.a),
                static_cast<unsigned long long>(input.b),
                static_cast<unsigned long long>(got.count),
                static_cast<unsigned long long>(want.count),
                static_cast<long long>(got.value),
                static_cast<long long>(want.value));
            return buf;
        }
        return "";
      }
    }
    return "unknown operation kind";
}

/** What the submit hook keeps of one simulated cell. */
struct Capture
{
    std::vector<bool> sampled;
    std::vector<offload::Completion> kept;
    std::uint64_t errors = 0;
    std::uint64_t next_index = 0;  ///< set by the factory, read by submit
};

/** Failure messages (the first few) and the count of failed ops. */
struct Failures
{
    std::vector<std::string> messages;
    std::uint64_t ops = 0;

    void
    add(std::uint64_t failed_ops, std::string message)
    {
        ops += failed_ops;
        if (messages.size() < kMaxFailureMessages) {
            messages.push_back(std::move(message));
        }
    }
};

/** Simulator counters for the per-layer report (whole simulation). */
void
add_cluster_counts(core::Cluster& cluster, std::uint32_t nodes,
                   std::map<std::string, double>& out)
{
    double requests = 0, loads = 0, stores = 0, forwards = 0;
    for (NodeId node = 0; node < nodes; node++) {
        const accel::AccelStats& stats = cluster.accelerator(node).stats();
        requests += stats.requests_received.value();
        loads += stats.loads.value();
        stores += stats.stores.value();
        forwards += stats.forwards_sent.value();
    }
    out["accel.requests"] = requests;
    out["accel.loads"] = loads;
    out["accel.stores"] = stores;
    out["accel.forwards"] = forwards;
    const offload::OffloadStats& offload =
        cluster.offload_engine().stats();
    out["offload.submitted"] = offload.submitted.value();
    out["offload.continuations"] = offload.continuations.value();
    const baselines::RpcStats& rpc = cluster.rpc().stats();
    out["baselines.rpc.requests"] = rpc.requests.value();
    out["baselines.rpc.node_bounces"] = rpc.node_bounces.value();
    const placement::PlacementPlane* placement = cluster.placement_plane();
    out["placement.migrations"] =
        placement ? placement->migration_stats().completed.value() : 0;
    const replication::ReplicationPlane* replication =
        cluster.replication_plane();
    out["replication.copied_bytes"] =
        replication ? replication->stats().bytes_copied.value() : 0;
    out["sim.events"] =
        static_cast<double>(cluster.queue().events_executed());
}

/** Every simulated statistic of one cell, as sorted one-line JSON. */
std::string
model_snapshot(core::Cluster& cluster,
               const workloads::DriverResult& result)
{
    trace::MetricsExporter model;
    model.set("model.kops", result.throughput / 1e3);
    model.set("model.p99_us", to_micros(result.latency.percentile(0.99)));
    model.set("model.events",
              static_cast<double>(cluster.queue().events_executed()));
    model.set("model.completed", static_cast<double>(result.completed));
    model.set("model.errors", static_cast<double>(result.errors));
    model.add_histogram("model.latency", result.latency);
    cluster.export_metrics(model, "stats.");
    std::string json = model.json();
    std::erase(json, '\n');
    return json;
}

/** Off the clock: sampled completions and update read-back. */
void
check_outputs(bench::Experiment& experiment,
              const std::vector<OpInput>& inputs, const Capture& capture,
              const std::unordered_set<std::uint64_t>& updated_keys,
              std::uint64_t salt, Failures& failures)
{
    if (capture.errors != 0) {
        failures.add(capture.errors,
                     std::to_string(capture.errors) +
                         " operation(s) completed with an error");
    }
    for (std::size_t i = 0; i < inputs.size(); i++) {
        if (!capture.sampled[i]) {
            continue;
        }
        const std::string problem = check_completion(
            experiment, inputs[i], capture.kept[i],
            updated_keys.count(inputs[i].a) != 0, salt);
        if (!problem.empty()) {
            failures.add(1, "op " + std::to_string(i) + ": " + problem);
        }
    }
    for (const std::uint64_t key : updated_keys) {
        const std::optional<std::uint64_t> value =
            experiment.upc->table().find_reference(key);
        if (!value || *value != ds::value_pattern_word(key ^ salt)) {
            failures.add(1, "readback of updated key " +
                                std::to_string(key) +
                                " does not hold the update");
        }
    }
}

std::string
json_array(const std::vector<double>& values)
{
    std::string out = "[";
    for (std::size_t i = 0; i < values.size(); i++) {
        out += i ? "," : "";
        out += json_number(values[i]);
    }
    return out + "]";
}

struct Args
{
    std::string workload;
    std::uint64_t seed = 0;
    bool seed_given = false;
    double seconds = 10.0;
};

[[noreturn]] void
usage(const char* message)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: pulse_perfbench --workload "
                 "<name> [--seed N] [--seconds S]\nworkloads:",
                 message);
    for (const Workload& workload : workload_table()) {
        std::fprintf(stderr, " %s", workload.name);
    }
    std::fprintf(stderr, "\n");
    std::exit(2);
}

Args
parse_args(int argc, char** argv)
{
    Args args;
    for (int i = 1; i < argc; i++) {
        const std::string flag = argv[i];
        if (i + 1 >= argc) {
            usage(("missing value for " + flag).c_str());
        }
        const char* value = argv[++i];
        char* end = nullptr;
        if (flag == "--workload") {
            args.workload = value;
        } else if (flag == "--seed") {
            args.seed = std::strtoull(value, &end, 10);
            args.seed_given = true;
        } else if (flag == "--seconds") {
            args.seconds = std::strtod(value, &end);
            if (!(args.seconds > 0.0)) {
                usage("--seconds must be positive");
            }
        } else {
            usage(("unknown flag " + flag).c_str());
        }
        if (end != nullptr && *end != '\0') {
            usage(("bad number for " + flag).c_str());
        }
    }
    return args;
}

/**
 * The library and the figure harness read PULSE_CHECK, PULSE_PLACEMENT,
 * PULSE_REPLICATION, PULSE_SERVING, PULSE_POOLING, PULSE_BENCH_OPS_SCALE
 * and PULSE_BENCH_THREADS; any of them would silently change the
 * measured program, so every PULSE_* variable is refused.
 */
void
refuse_environment()
{
    bool refused = false;
    for (char** env = environ; *env != nullptr; env++) {
        if (std::strncmp(*env, "PULSE_", 6) == 0) {
            std::fprintf(stderr,
                         "perfbench: refusing to run with %s set; the "
                         "benchmark pins every knob in its own "
                         "ClusterConfig.\n",
                         *env);
            refused = true;
        }
    }
    if (refused) {
        std::exit(2);
    }
}

}  // namespace

int
main(int argc, char** argv)
{
    refuse_environment();
    // glibc raises its mmap threshold each time a large block is freed
    // and trims the heap top, so the first cells of a run page-fault
    // more than later ones. Fixed thresholds make every cell after the
    // first start from the same warm heap.
    mallopt(M_MMAP_THRESHOLD, 32 << 20);
    mallopt(M_TRIM_THRESHOLD, 1 << 30);
    const Args args = parse_args(argc, argv);
    const Workload* found = nullptr;
    for (const Workload& workload : workload_table()) {
        if (args.workload == workload.name) {
            found = &workload;
        }
    }
    if (found == nullptr) {
        usage(("unknown workload '" + args.workload + "'").c_str());
    }
    const Workload& workload = *found;
    const std::uint64_t seed =
        args.seed_given ? args.seed : workload.default_seed;

    bench::RunSpec spec = workload.cell();
    const auto cell_tweak = spec.tweak;
    const std::uint64_t cluster_seed = derive_seed(seed, kClusterStream);
    spec.tweak = [cell_tweak, cluster_seed](core::ClusterConfig& config) {
        // Every plane the environment could enable is pinned here.
        config.check = check::CheckConfig{};
        config.placement = placement::PlacementConfig{};
        config.replication = replication::ReplicationConfig{};
        config.serve = serve::ServeConfig{};
        config.seed = cluster_seed;
        if (cell_tweak) {
            cell_tweak(config);
        }
    };
    const std::uint64_t salt = derive_seed(seed, kUpdateStream) | 1;
    const std::uint64_t total_ops = spec.warmup_ops + spec.measure_ops;

    const Clock::time_point start = Clock::now();
    std::vector<double> setup_s;
    std::vector<double> simulate_s;
    std::vector<double> wall_s;
    std::map<std::string, std::vector<double>> layer_samples;
    Failures failures;
    std::vector<OpInput> inputs;
    std::unordered_set<std::uint64_t> updated_keys;
    std::string model_json;
    long peak_rss_kib = 0;
    std::uint64_t attempted = 0;

    const auto timed_setup = [&](bench::Experiment& experiment) {
        perfbench::reset_layers();
        perfbench::set_phase(perfbench::Phase::kSetup);
        const Clock::time_point t0 = Clock::now();
        experiment = bench::make_experiment(spec);
        const Clock::time_point t1 = Clock::now();
        perfbench::set_phase(perfbench::Phase::kOff);
        for (const auto& [name, value] :
             perfbench::read_layers(perfbench::Phase::kSetup)) {
            layer_samples[name].push_back(value);
        }
        setup_s.push_back(seconds_between(t0, t1));
        return setup_s.back();
    };

    // Repeat the cell while another repetition still fits the budget.
    for (int rep = 0;; rep++) {
        if (rep == 1) {
            for (int i = 0; i < kSetupOnlyReps; i++) {
                bench::Experiment experiment;
                timed_setup(experiment);
            }
        }
        if (rep > 0 && seconds_between(start, Clock::now()) +
                               median(wall_s) >
                           args.seconds) {
            break;
        }
        bench::Experiment experiment;
        const double setup = timed_setup(experiment);
        if (inputs.empty()) {
            inputs = make_inputs(workload, spec, experiment, seed);
            for (const OpInput& input : inputs) {
                if (input.kind == OpKind::kUpdate) {
                    updated_keys.insert(input.a);
                }
            }
        }

        Capture capture;
        capture.sampled.assign(total_ops, false);
        capture.kept.resize(total_ops);
        Rng sample_rng(derive_seed(seed, kSampleStream + rep));
        for (std::uint64_t i = 0; i < kSampledOps; i++) {
            capture.sampled[sample_rng.next_below(total_ops)] = true;
        }
        core::Cluster& cluster = *experiment.cluster;
        const workloads::SubmitFn system = cluster.submitter(spec.system);
        const workloads::OpFactory factory = [&](std::uint64_t index) {
            capture.next_index = index;
            return make_op(experiment, inputs[index], salt);
        };
        const workloads::SubmitFn submit = [&](offload::Operation&& op) {
            const std::uint64_t index = capture.next_index;
            op.done = [done = std::move(op.done), index, &capture](
                          offload::Completion&& completion) {
                if (completion.status != isa::TraversalStatus::kDone ||
                    completion.fault != isa::ExecFault::kNone ||
                    completion.timed_out) {
                    capture.errors++;
                }
                if (capture.sampled[index]) {
                    capture.kept[index] = completion;
                }
                done(std::move(completion));
            };
            system(std::move(op));
        };
        workloads::DriverConfig driver;
        driver.warmup_ops = spec.warmup_ops;
        driver.measure_ops = spec.measure_ops;
        driver.concurrency = spec.concurrency;

        perfbench::reset_layers();
        perfbench::set_phase(perfbench::Phase::kSimulate);
        const Clock::time_point t0 = Clock::now();
        const workloads::DriverResult result = workloads::run_closed_loop(
            cluster.queue(), submit, factory, driver);
        const Clock::time_point t1 = Clock::now();
        perfbench::set_phase(perfbench::Phase::kOff);
        simulate_s.push_back(seconds_between(t0, t1));
        wall_s.push_back(setup + simulate_s.back());

        std::map<std::string, double> layers =
            perfbench::read_layers(perfbench::Phase::kSimulate);
        add_cluster_counts(cluster, spec.nodes, layers);
        for (const auto& [name, value] : layers) {
            layer_samples[name].push_back(value);
        }

        const std::uint64_t failed_before = failures.ops;
        check_outputs(experiment, inputs, capture, updated_keys, salt,
                      failures);
        const std::string rep_model = model_snapshot(cluster, result);
        if (rep == 0) {
            model_json = rep_model;
            // Peak memory of one cell, before later cells can grow the
            // heap through fragmentation.
            rusage usage_info{};
            getrusage(RUSAGE_SELF, &usage_info);
            peak_rss_kib = usage_info.ru_maxrss;
        } else if (rep_model != model_json) {
            failures.add(total_ops - (failures.ops - failed_before),
                         "repetition " + std::to_string(rep) +
                             " simulated different statistics than "
                             "repetition 0 (nondeterminism)");
        }
        attempted += total_ops;
    }

    const std::uint64_t failed = std::min(failures.ops, attempted);
    char digest[32];
    std::snprintf(digest, sizeof(digest), "%016llx",
                  static_cast<unsigned long long>(fnv1a(model_json)));
    std::printf("perfbench %s seed=%llu reps=%zu setup=%.4fs "
                "simulate=%.4fs failed=%llu/%llu digest=%s\n",
                workload.name, static_cast<unsigned long long>(seed),
                simulate_s.size(), median(setup_s), median(simulate_s),
                static_cast<unsigned long long>(failed),
                static_cast<unsigned long long>(attempted), digest);
    for (const std::string& message : failures.messages) {
        std::printf("FAILED: %s\n", message.c_str());
    }

    std::string report = "{\"workload\":" + json_string(workload.name);
    report += ",\"seed\":" + std::to_string(seed);
    report += ",\"default_seed\":" + std::to_string(workload.default_seed);
    report += ",\"ops_per_rep\":" + std::to_string(total_ops);
    report += ",\"setup_s\":" + json_array(setup_s);
    report += ",\"simulate_s\":" + json_array(simulate_s);
    report += ",\"wall_s\":" + json_array(wall_s);
    report += ",\"peak_rss_kib\":" + std::to_string(peak_rss_kib);
    report += ",\"attempted\":" + std::to_string(attempted);
    report += ",\"failed\":" + std::to_string(failed);
    report += ",\"failures\":[";
    for (std::size_t i = 0; i < failures.messages.size(); i++) {
        report += i ? "," : "";
        report += json_string(failures.messages[i]);
    }
    report += "],\"digest\":\"" + std::string(digest) + "\"";
    report += ",\"model\":" + model_json;
    report += ",\"layers\":{";
    const char* separator = "";
    for (const auto& [name, values] : layer_samples) {
        report += separator;
        report += json_string(name) + ":" + json_number(median(values));
        separator = ",";
    }
    report += "}}";
    std::printf("%s\n", report.c_str());
    return failed == 0 ? 0 : 1;
}
