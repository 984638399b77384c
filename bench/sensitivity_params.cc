/**
 * @file
 * Parameter-sensitivity study (the supplementary material defers
 * "some additional results on ADPDM's performance sensitivity to
 * system parameters"; this bench fills in the three the design makes
 * interesting).
 *
 * (a) Network propagation: pulse pays one round trip per request, the
 *     Cache-based baseline one per miss — so pulse's advantage grows
 *     linearly with network latency.
 * (b) MAX_ITER: smaller per-request budgets force more client
 *     continuations for long traversals; latency degrades in steps of
 *     one round trip per continuation.
 *
 * Cells execute on the parallel sweep runner (--threads /
 * PULSE_BENCH_THREADS); each writes its own pre-sized result slot, so
 * outputs are byte-identical to a serial run.
 */
#include <benchmark/benchmark.h>

#include <cstring>

#include "bench_util.h"
#include "ds/bptree.h"
#include "ds/linked_list.h"
#include "sweep_runner.h"

namespace {

using namespace pulse;
using namespace pulse::bench;

const std::vector<double> kProps = {0.5, 1.0, 2.0, 4.0, 8.0};
const std::vector<std::uint32_t> kCaps = {32, 64, 128, 256, 512};

struct PropPoint
{
    double prop_us = 0.0;
    double pulse_us = 0.0;
    double cache_us = 0.0;
};

struct IterPoint
{
    std::uint32_t max_iters = 0;
    double mean_us = 0.0;
    double continuations = 0.0;
};

std::vector<PropPoint> g_prop(kProps.size());
std::vector<IterPoint> g_iters(kCaps.size());

void
propagation_cell(CellContext& ctx, double prop_us, PropPoint& out)
{
    out.prop_us = prop_us;
    RunSpec spec = main_spec(App::kUpc, core::SystemKind::kPulse, 1);
    spec.concurrency = 1;
    spec.warmup_ops = 20;
    spec.measure_ops = 150;
    spec.tweak = [prop_us](core::ClusterConfig& config) {
        config.network.link_propagation = micros(prop_us);
    };
    out.pulse_us = ctx.run_spec(spec).mean_us;

    RunSpec cache = spec;
    cache.system = core::SystemKind::kCache;
    cache.measure_ops = 60;
    out.cache_us = ctx.run_spec(cache).mean_us;
}

void
max_iter_cell(CellContext& ctx, std::uint32_t max_iters,
              IterPoint& out)
{
    out.max_iters = max_iters;
    core::ClusterConfig config;
    core::apply_env(config);
    core::Cluster cluster(config);
    ds::LinkedList list(cluster.memory(), cluster.allocator());
    std::vector<std::uint64_t> values(480);
    for (std::size_t i = 0; i < values.size(); i++) {
        values[i] = i;
    }
    list.build(values, 0);

    // Rebuild the walk program with the requested budget.
    isa::ProgramBuilder b;
    b.load(16)
        .move(isa::sp(8), isa::dat(0))
        .sub(isa::sp(0), isa::sp(0), isa::imm(1))
        .compare(isa::sp(0), isa::imm(0))
        .jump_eq("done")
        .compare(isa::imm(0), isa::dat(8))
        .jump_eq("done")
        .move(isa::cur(), isa::dat(8))
        .next_iter()
        .label("done")
        .ret();
    b.max_iters(max_iters);
    auto program = std::make_shared<const isa::Program>(b.build());

    Histogram latency;
    std::uint64_t continuations = 0;
    const int ops = 100;
    int done = 0;
    for (int i = 0; i < ops; i++) {
        offload::Operation op;
        op.program = program;
        op.start_ptr = list.head();
        op.init_scratch.assign(16, 0);
        const std::uint64_t hops = 480;
        std::memcpy(op.init_scratch.data(), &hops, 8);
        op.done = [&](offload::Completion&& completion) {
            latency.add(completion.latency);
            continuations += completion.continuations;
            done++;
        };
        cluster.submitter(core::SystemKind::kPulse)(std::move(op));
        cluster.queue().run();
    }
    ctx.add_events(cluster.queue().events_executed());
    out.mean_us = to_micros(latency.mean());
    out.continuations = static_cast<double>(continuations) / done;
}

void
add_cells(SweepRunner& sweep)
{
    for (std::size_t i = 0; i < kProps.size(); i++) {
        const double prop = kProps[i];
        sweep.add("propagation_" + fmt(prop, "%.1fus"),
                  [prop, i](CellContext& ctx) {
                      propagation_cell(ctx, prop, g_prop[i]);
                  });
    }
    for (std::size_t i = 0; i < kCaps.size(); i++) {
        const std::uint32_t cap = kCaps[i];
        sweep.add("max_iter_" + std::to_string(cap),
                  [cap, i](CellContext& ctx) {
                      max_iter_cell(ctx, cap, g_iters[i]);
                  });
    }
}

void
register_benchmarks()
{
    for (std::size_t i = 0; i < kProps.size(); i++) {
        benchmark::RegisterBenchmark(
            ("sensitivity/propagation_" + fmt(kProps[i], "%.1fus"))
                .c_str(),
            [i](benchmark::State& state) {
                for (auto _ : state) {
                }
                state.counters["pulse_us"] = g_prop[i].pulse_us;
                state.counters["cache_us"] = g_prop[i].cache_us;
            })
            ->Iterations(1)
            ->Unit(benchmark::kMillisecond);
    }
    for (std::size_t i = 0; i < kCaps.size(); i++) {
        benchmark::RegisterBenchmark(
            ("sensitivity/max_iter_" + std::to_string(kCaps[i]))
                .c_str(),
            [i](benchmark::State& state) {
                for (auto _ : state) {
                }
                state.counters["mean_us"] = g_iters[i].mean_us;
                state.counters["continuations"] =
                    g_iters[i].continuations;
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
    SweepRunner sweep("sensitivity");
    add_cells(sweep);
    sweep.run_all();
    register_benchmarks();
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();

    Table prop("Sensitivity: one-way link propagation vs UPC latency "
               "(pulse pays ~2 hops/request; Cache ~2 per miss)");
    prop.set_header({"prop_us", "pulse_us", "Cache_us", "Cache/pulse"});
    for (const auto& point : g_prop) {
        prop.add_row({fmt(point.prop_us), fmt(point.pulse_us),
                      fmt(point.cache_us),
                      fmt(point.cache_us / point.pulse_us)});
    }
    prop.print();

    Table iters("Sensitivity: MAX_ITER vs 480-hop walk latency "
                "(each continuation adds a round trip)");
    iters.set_header({"max_iter", "mean_us", "continuations/op"});
    for (const auto& point : g_iters) {
        iters.add_row({std::to_string(point.max_iters),
                       fmt(point.mean_us),
                       fmt(point.continuations)});
    }
    iters.print();
    MetricsSink::instance().flush();
    return 0;
}
