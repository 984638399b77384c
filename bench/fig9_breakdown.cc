/**
 * @file
 * Fig. 9 — Latency breakdown for pulse accelerator components
 * (section 7.2), on the hash-table data structure.
 *
 * Paper numbers: network stack ~430 ns per packet direction,
 * scheduler dispatch ~4 ns, memory pipeline ~120 ns per iteration
 * (translation + protection + aggregated load), logic pipeline ~7 ns
 * per iteration for the hash-table program; response path symmetric.
 *
 * The single cell executes on the sweep runner so its wall-clock and
 * events/sec self-profile land in the shared wallclock artifact.
 */
#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "fig9_cell.h"
#include "sweep_runner.h"

namespace {

using namespace pulse;
using namespace pulse::bench;

Fig9Breakdown g_result;

void
breakdown_cell(CellContext& ctx)
{
    core::ClusterConfig config;
    core::apply_env(config);
    core::Cluster cluster(config);
    g_result = run_fig9_cell(cluster);
    ctx.add_events(cluster.queue().events_executed());
}

void
register_benchmarks()
{
    benchmark::RegisterBenchmark(
        "fig9/hash_table_breakdown",
        [](benchmark::State& state) {
            for (auto _ : state) {
            }
            state.counters["net_stack_ns"] = g_result.net_stack_ns;
            state.counters["scheduler_ns"] = g_result.scheduler_ns;
            state.counters["mem_per_iter_ns"] =
                g_result.mem_per_iter_ns;
            state.counters["logic_per_iter_ns"] =
                g_result.logic_per_iter_ns;
        })
        ->Iterations(1)
        ->Unit(benchmark::kMillisecond);
}

}  // namespace

int
main(int argc, char** argv)
{
    parse_bench_args(argc, argv);
    benchmark::Initialize(&argc, argv);
    SweepRunner sweep("fig9");
    sweep.add("hash_table_breakdown", breakdown_cell);
    sweep.run_all();
    register_benchmarks();
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();

    Table table("Fig 9: pulse accelerator latency breakdown "
                "(hash-table find)");
    table.set_header({"component", "measured", "paper"});
    table.add_row({"net stack/pkt",
                   fmt(g_result.net_stack_ns, "%.0f ns"), "~430 ns"});
    table.add_row({"scheduler",
                   fmt(g_result.scheduler_ns, "%.0f ns"), "~4 ns"});
    table.add_row({"mem pipe/iter",
                   fmt(g_result.mem_per_iter_ns, "%.0f ns"),
                   "~120 ns"});
    table.add_row({"logic/iter",
                   fmt(g_result.logic_per_iter_ns, "%.1f ns"),
                   "~7 ns"});
    table.add_row({"iters/req", fmt(g_result.iters, "%.1f"), "-"});
    table.add_row({"accel total",
                   fmt(g_result.total_accel_us, "%.1f us"), "-"});
    table.add_row({"end-to-end",
                   fmt(g_result.end_to_end_us, "%.1f us"), "-"});
    table.print();

    auto& metrics = MetricsSink::instance().exporter();
    metrics.set("fig9.net_stack_ns", g_result.net_stack_ns);
    metrics.set("fig9.scheduler_ns", g_result.scheduler_ns);
    metrics.set("fig9.mem_per_iter_ns", g_result.mem_per_iter_ns);
    metrics.set("fig9.logic_per_iter_ns", g_result.logic_per_iter_ns);
    metrics.set("fig9.iters_per_req", g_result.iters);
    metrics.set("fig9.accel_total_us", g_result.total_accel_us);
    metrics.set("fig9.end_to_end_us", g_result.end_to_end_us);
    MetricsSink::instance().flush();
    return 0;
}
