/**
 * @file
 * Ablation — multi-tenant fairness (supplementary section B's
 * future-work extension, implemented in the accelerator's admission
 * queue).
 *
 * Tenant A floods one memory node with long traversals; tenant B
 * issues occasional short lookups. The table reports B's latency under
 * the paper's FIFO admission vs the fair-share (per-client
 * round-robin) policy across flood intensities: isolation bounds the
 * victim's queueing delay at roughly one in-service request, while
 * the flooding tenant's own throughput is unaffected (the node stays
 * saturated either way).
 *
 * The second table is the serving-plane tenant-isolation benchmark
 * (src/serve): a latency-sensitive tenant's open-loop probes run solo,
 * then again while a batch tenant saturates the node with scans under
 * a full QoS contract — WDRR admission weights, a token-bucket quota
 * on the batch tenant and queue-depth caps. The gate: the latency
 * tenant's p99 stays within 2x its solo value, while the batch flood
 * demonstrably hit the quota (throttled > 0) and the shed path
 * (shed > 0). A violated gate fails the binary (CI uses it directly).
 *
 * Cells execute on the parallel sweep runner (--threads /
 * PULSE_BENCH_THREADS); each writes its own pre-sized result slot, so
 * outputs are byte-identical to a serial run.
 */
#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "ds/linked_list.h"
#include "serve/qos.h"
#include "sweep_runner.h"

namespace {

using namespace pulse;
using namespace pulse::bench;

const std::vector<std::uint32_t> kFloods = {4, 16, 64, 256};

struct Point
{
    std::uint32_t flood = 0;
    double fifo_us = 0.0;
    double fair_us = 0.0;
};

std::vector<Point> g_points(kFloods.size());

double
victim_latency(CellContext& ctx, accel::SchedPolicy policy,
               std::uint32_t flood_depth, double* flood_kops)
{
    core::ClusterConfig config;
    core::apply_env(config);
    config.num_clients = 2;
    config.accel.sched_policy = policy;
    config.accel.workspaces_per_logic = 4;
    core::Cluster cluster(config);

    ds::LinkedList list(cluster.memory(), cluster.allocator(), 256);
    std::vector<std::uint64_t> values(1024);
    for (std::size_t i = 0; i < values.size(); i++) {
        values[i] = i;
    }
    list.build(values, 0);

    // Tenant A: a closed loop of flood_depth long walks.
    std::uint64_t flood_done = 0;
    std::function<void()> flood_one = [&] {
        auto op = list.make_walk(600, {});
        op.done = [&](offload::Completion&&) {
            flood_done++;
            if (flood_done < 400) {
                flood_one();
            }
        };
        cluster.submitter(core::SystemKind::kPulse, 0)(std::move(op));
    };
    for (std::uint32_t i = 0; i < flood_depth; i++) {
        flood_one();
    }

    // Tenant B: 50 short lookups spread through the flood.
    Histogram victim;
    std::uint64_t victim_done = 0;
    std::function<void()> probe_one = [&] {
        auto op = list.make_walk(4, {});
        op.done = [&](offload::Completion&& completion) {
            victim.add(completion.latency);
            victim_done++;
            if (victim_done < 50) {
                cluster.queue().schedule_after(micros(50.0),
                                               probe_one);
            }
        };
        cluster.submitter(core::SystemKind::kPulse, 1)(std::move(op));
    };
    cluster.queue().schedule_after(micros(20.0), probe_one);

    const Time start = cluster.queue().now();
    ctx.add_events(cluster.queue().run());
    if (flood_kops != nullptr) {
        *flood_kops =
            static_cast<double>(flood_done) /
            to_seconds(cluster.queue().now() - start) / 1e3;
    }
    return to_micros(victim.mean());
}

void
fairness_cell(CellContext& ctx, std::uint32_t flood_depth, Point& out)
{
    out.flood = flood_depth;
    out.fifo_us = victim_latency(ctx, accel::SchedPolicy::kFifo,
                                 flood_depth, nullptr);
    out.fair_us = victim_latency(ctx, accel::SchedPolicy::kFairShare,
                                 flood_depth, nullptr);
}

// ------------------------------------- serving-plane tenant isolation

struct IsolationResult
{
    double solo_p99_us = 0.0;
    double combined_p99_us = 0.0;
    std::uint64_t admitted = 0;
    std::uint64_t throttled = 0;
    std::uint64_t shed = 0;
    double batch_kops = 0.0;
};

IsolationResult g_isolation;

/** The serving contract under test: a latency-sensitive probe tenant
 *  with a heavy WDRR weight, a quota-capped batch tenant. */
core::ClusterConfig
isolation_config()
{
    core::ClusterConfig config;
    core::apply_env(config);
    config.num_clients = 2;
    config.accel.sched_policy = accel::SchedPolicy::kWeightedDrr;
    config.accel.workspaces_per_logic = 4;
    config.serve.on = true;
    config.serve.latency_queue_cap = 64;
    config.serve.batch_queue_cap = 128;
    config.serve.throttle_park_cap = 8;
    config.serve.tenants.push_back(
        {.id = 0,
         .slo = serve::SloClass::kLatencySensitive,
         .weight = 8});
    config.serve.tenants.push_back(
        {.id = 1,
         .slo = serve::SloClass::kBatch,
         .weight = 1,
         .quota_ops_per_s = 1e5,
         .quota_burst = 8.0});
    return config;
}

/**
 * Run the latency tenant's open-loop probes, optionally under the
 * batch tenant's saturating scan flood, and report the probe latency
 * distribution plus the QoS admission ledger.
 */
double
isolation_run(CellContext& ctx, bool with_batch_flood,
              IsolationResult* out)
{
    core::Cluster cluster(isolation_config());
    ds::LinkedList list(cluster.memory(), cluster.allocator(), 256);
    std::vector<std::uint64_t> values(1024);
    for (std::size_t i = 0; i < values.size(); i++) {
        values[i] = i;
    }
    list.build(values, 0);

    // Batch tenant: a closed loop of scans, issued far over its quota
    // so the token bucket throttles and (past the park cap) sheds.
    std::uint64_t batch_issued = 0;
    std::uint64_t batch_done = 0;
    constexpr std::uint64_t kBatchBudget = 2000;
    std::function<void()> batch_one = [&] {
        batch_issued++;
        auto op = list.make_walk(128, {});
        op.tenant = 1;
        op.done = [&](offload::Completion&& completion) {
            if (!completion.timed_out) {
                batch_done++;
            }
            if (batch_issued < kBatchBudget) {
                batch_one();
            }
        };
        cluster.submitter(core::SystemKind::kPulse, 1)(std::move(op));
    };
    if (with_batch_flood) {
        for (int i = 0; i < 32; i++) {
            batch_one();
        }
    }

    // Latency tenant: 200 open-loop probes, one every 25 us — arrival
    // times fixed by the clock, not by completions, so queueing shows
    // up as latency instead of a slowed-down generator.
    Histogram probe_latency;
    constexpr int kProbes = 200;
    for (int i = 0; i < kProbes; i++) {
        cluster.queue().schedule_at(
            micros(20.0) + i * micros(25.0), [&, i] {
                auto op = list.make_walk(8, {});
                op.tenant = 0;
                op.done = [&](offload::Completion&& completion) {
                    probe_latency.add(completion.latency);
                };
                cluster.submitter(core::SystemKind::kPulse,
                                  0)(std::move(op));
            });
    }

    const Time start = cluster.queue().now();
    ctx.add_events(cluster.queue().run());

    if (out != nullptr) {
        const auto& counters =
            cluster.serve_plane()->tenant_counters().at(1);
        out->admitted = counters.admitted;
        out->throttled = counters.throttled;
        out->shed = counters.shed;
        out->batch_kops =
            static_cast<double>(batch_done) /
            to_seconds(cluster.queue().now() - start) / 1e3;
    }
    return to_micros(probe_latency.percentile(0.99));
}

void
isolation_cell(CellContext& ctx, IsolationResult& out)
{
    out.solo_p99_us = isolation_run(ctx, false, nullptr);
    out.combined_p99_us = isolation_run(ctx, true, &out);
}

void
register_benchmarks()
{
    for (std::size_t i = 0; i < kFloods.size(); i++) {
        benchmark::RegisterBenchmark(
            ("fairness/flood_" + std::to_string(kFloods[i])).c_str(),
            [i](benchmark::State& state) {
                for (auto _ : state) {
                }
                state.counters["fifo_us"] = g_points[i].fifo_us;
                state.counters["fair_us"] = g_points[i].fair_us;
            })
            ->Iterations(1)
            ->Unit(benchmark::kMillisecond);
    }
}

}  // namespace

int
main(int argc, char** argv)
{
    parse_bench_args(argc, argv);
    benchmark::Initialize(&argc, argv);
    SweepRunner sweep("ablation_fairness");
    for (std::size_t i = 0; i < kFloods.size(); i++) {
        const std::uint32_t flood = kFloods[i];
        sweep.add("flood_" + std::to_string(flood),
                  [flood, i](CellContext& ctx) {
                      fairness_cell(ctx, flood, g_points[i]);
                  });
    }
    sweep.add("isolation", [](CellContext& ctx) {
        isolation_cell(ctx, g_isolation);
    });
    sweep.run_all();
    register_benchmarks();
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();

    Table table("Ablation: multi-tenant isolation — victim lookup "
                "latency (us) vs flood depth");
    table.set_header(
        {"flood_ops", "FIFO", "fair-share", "FIFO/fair"});
    for (const auto& point : g_points) {
        table.add_row({std::to_string(point.flood),
                       fmt(point.fifo_us), fmt(point.fair_us),
                       fmt(point.fifo_us / point.fair_us, "%.1f")});
    }
    table.print();

    const double ratio =
        g_isolation.solo_p99_us > 0.0
            ? g_isolation.combined_p99_us / g_isolation.solo_p99_us
            : 0.0;
    Table isolation("Serving plane: latency-tenant p99 (us) solo vs "
                    "under a quota-capped batch scan flood");
    isolation.set_header({"solo_p99", "combined_p99", "ratio",
                          "batch_kops", "throttled", "shed"});
    isolation.add_row({fmt(g_isolation.solo_p99_us),
                       fmt(g_isolation.combined_p99_us),
                       fmt(ratio, "%.2f"),
                       fmt(g_isolation.batch_kops),
                       std::to_string(g_isolation.throttled),
                       std::to_string(g_isolation.shed)});
    isolation.print();

    auto& metrics = MetricsSink::instance().exporter();
    for (const auto& point : g_points) {
        const std::string prefix =
            "fairness.flood" + std::to_string(point.flood) + ".";
        metrics.set(prefix + "fifo_us", point.fifo_us);
        metrics.set(prefix + "fair_us", point.fair_us);
    }
    metrics.set("fairness.isolation.solo_p99_us",
                g_isolation.solo_p99_us);
    metrics.set("fairness.isolation.combined_p99_us",
                g_isolation.combined_p99_us);
    metrics.set("fairness.isolation.ratio", ratio);
    metrics.set("fairness.isolation.batch_kops",
                g_isolation.batch_kops);
    metrics.set("fairness.isolation.admitted",
                static_cast<double>(g_isolation.admitted));
    metrics.set("fairness.isolation.throttled",
                static_cast<double>(g_isolation.throttled));
    metrics.set("fairness.isolation.shed",
                static_cast<double>(g_isolation.shed));
    MetricsSink::instance().flush();

    // The tenant-isolation gate (CI: serving-plane job). The batch
    // flood must really have been overload (throttled and shed both
    // nonzero) and the latency tenant must have been isolated from it.
    if (g_isolation.throttled == 0 || g_isolation.shed == 0 ||
        ratio > 2.0) {
        std::fprintf(stderr,
                     "tenant-isolation gate FAILED: p99 ratio %.2f "
                     "(limit 2.0), throttled %llu, shed %llu\n",
                     ratio,
                     static_cast<unsigned long long>(
                         g_isolation.throttled),
                     static_cast<unsigned long long>(g_isolation.shed));
        return 1;
    }
    return 0;
}
