/**
 * @file
 * Supplementary Fig. 1 — Sensitivity to traversal length and core
 * count.
 *
 * (a) End-to-end pulse latency for linked-list walks of increasing
 *     length: must scale linearly with the number of nodes traversed.
 * (b) Memory bandwidth achieved vs accelerator core count on a
 *     low-eta linked-list workload: two cores saturate the node's
 *     25 GB/s; with the vendor memory-interconnect IP removed
 *     (dedicated channel per core) the board reaches ~34 GB/s.
 *
 * Cells execute on the parallel sweep runner (--threads /
 * PULSE_BENCH_THREADS); each writes its own pre-sized result slot, so
 * outputs are byte-identical to a serial run.
 */
#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "ds/linked_list.h"
#include "sweep_runner.h"

namespace {

using namespace pulse;
using namespace pulse::bench;

const std::vector<std::uint64_t> kHops = {8,  16,  32,  64,
                                          128, 256, 512};
const std::vector<std::uint32_t> kCores = {1, 2, 3, 4};

struct LengthPoint
{
    std::uint64_t hops = 0;
    double mean_us = 0.0;
};

struct CorePoint
{
    std::uint32_t cores = 0;
    bool interconnect = true;
    double gbps = 0.0;
};

std::vector<LengthPoint> g_lengths(kHops.size());
std::vector<CorePoint> g_cores(kCores.size() * 2);

/** Build a big-node list so walks stress the memory pipeline. */
std::unique_ptr<ds::LinkedList>
build_list(core::Cluster& cluster, std::uint64_t nodes)
{
    auto list = std::make_unique<ds::LinkedList>(
        cluster.memory(), cluster.allocator(), /*node_bytes=*/256);
    std::vector<std::uint64_t> values;
    values.reserve(nodes);
    for (std::uint64_t i = 0; i < nodes; i++) {
        values.push_back(i + 1);
    }
    list->build(values, 0);
    return list;
}

void
traversal_length(CellContext& ctx, std::uint64_t hops,
                 LengthPoint& out)
{
    core::ClusterConfig config;
    core::apply_env(config);
    core::Cluster cluster(config);
    auto list = build_list(cluster, hops + 8);

    workloads::DriverConfig driver;
    driver.warmup_ops = 10;
    driver.measure_ops = 150;
    driver.concurrency = 1;
    const workloads::DriverResult result = run_closed_loop(
        cluster.queue(), cluster.submitter(core::SystemKind::kPulse),
        [&](std::uint64_t) { return list->make_walk(hops, {}); },
        driver);
    ctx.add_events(cluster.queue().events_executed());
    out = {hops, to_micros(result.latency.mean())};
}

void
core_count(CellContext& ctx, std::uint32_t cores, bool interconnect,
           CorePoint& out)
{
    core::ClusterConfig config;
    core::apply_env(config);
    config.accel.num_cores = cores;
    config.accel.workspaces_per_logic = 16;
    core::Cluster cluster(config);
    cluster.channels(0).set_interconnect_enabled(interconnect);
    auto list = build_list(cluster, 4096);

    Rng rng(5);
    workloads::DriverConfig driver;
    driver.concurrency = 256;
    driver.warmup_ops = 256;
    driver.measure_ops = 1500;
    driver.on_measure_start = [&cluster] { cluster.reset_stats(); };
    const workloads::DriverResult result = run_closed_loop(
        cluster.queue(), cluster.submitter(core::SystemKind::kPulse),
        [&](std::uint64_t) {
            // Short walks from the head keep requests flowing.
            return list->make_walk(24 + rng.next_below(16), {});
        },
        driver);
    ctx.add_events(cluster.queue().events_executed());
    out = {cores, interconnect,
           cluster.memory_bandwidth(result.measure_time) / 1e9};
}

void
add_cells(SweepRunner& sweep)
{
    for (std::size_t i = 0; i < kHops.size(); i++) {
        const std::uint64_t hops = kHops[i];
        sweep.add("length_" + std::to_string(hops),
                  [hops, i](CellContext& ctx) {
                      traversal_length(ctx, hops, g_lengths[i]);
                  });
    }
    for (std::size_t i = 0; i < kCores.size(); i++) {
        for (const bool interconnect : {true, false}) {
            const std::uint32_t cores = kCores[i];
            const std::size_t slot = i * 2 + (interconnect ? 0 : 1);
            sweep.add("cores_" + std::to_string(cores) +
                          (interconnect ? "" : "_no_interconnect"),
                      [cores, interconnect, slot](CellContext& ctx) {
                          core_count(ctx, cores, interconnect,
                                     g_cores[slot]);
                      });
        }
    }
}

void
register_benchmarks()
{
    for (std::size_t i = 0; i < kHops.size(); i++) {
        const std::uint64_t hops = kHops[i];
        benchmark::RegisterBenchmark(
            ("suppfig1a/length_" + std::to_string(hops)).c_str(),
            [i](benchmark::State& state) {
                for (auto _ : state) {
                }
                state.counters["mean_us"] = g_lengths[i].mean_us;
            })
            ->Iterations(1)
            ->Unit(benchmark::kMillisecond);
    }
    for (std::size_t i = 0; i < kCores.size(); i++) {
        for (const bool interconnect : {true, false}) {
            const std::uint32_t cores = kCores[i];
            const std::size_t slot = i * 2 + (interconnect ? 0 : 1);
            benchmark::RegisterBenchmark(
                ("suppfig1b/cores_" + std::to_string(cores) +
                 (interconnect ? "" : "_no_interconnect"))
                    .c_str(),
                [slot](benchmark::State& state) {
                    for (auto _ : state) {
                    }
                    state.counters["mem_gbps"] = g_cores[slot].gbps;
                })
                ->Iterations(1)
                ->Unit(benchmark::kMillisecond);
        }
    }
}

}  // namespace

int
main(int argc, char** argv)
{
    parse_bench_args(argc, argv);
    benchmark::Initialize(&argc, argv);
    SweepRunner sweep("suppfig1");
    add_cells(sweep);
    sweep.run_all();
    register_benchmarks();
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();

    Table lengths("Supp Fig 1a: latency vs traversal length "
                  "(linear scaling expected)");
    lengths.set_header({"hops", "mean_us", "us_per_hop"});
    for (const auto& point : g_lengths) {
        lengths.add_row(
            {std::to_string(point.hops), fmt(point.mean_us, "%.1f"),
             fmt(point.mean_us / static_cast<double>(point.hops),
                 "%.3f")});
    }
    lengths.print();

    Table cores("Supp Fig 1b: memory bandwidth vs cores "
                "(paper: 2 cores saturate 25 GB/s; 34 GB/s w/o "
                "interconnect)");
    cores.set_header({"cores", "with_IC_GB/s", "no_IC_GB/s"});
    for (const std::uint32_t count : kCores) {
        std::string with_ic = "-";
        std::string without_ic = "-";
        for (const auto& point : g_cores) {
            if (point.cores == count) {
                (point.interconnect ? with_ic : without_ic) =
                    fmt(point.gbps);
            }
        }
        cores.add_row({std::to_string(count), with_ic, without_ic});
    }
    cores.print();

    auto& metrics = MetricsSink::instance().exporter();
    for (const auto& point : g_lengths) {
        metrics.set("suppfig1a.hops" + std::to_string(point.hops) +
                        ".mean_us",
                    point.mean_us);
    }
    for (const auto& point : g_cores) {
        metrics.set("suppfig1b.cores" + std::to_string(point.cores) +
                        (point.interconnect ? ".with_ic"
                                            : ".no_ic") +
                        ".mem_gbps",
                    point.gbps);
    }
    MetricsSink::instance().flush();
    return 0;
}
