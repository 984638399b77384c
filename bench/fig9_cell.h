/**
 * @file
 * The Fig. 9 latency-breakdown cell, shared by bench/fig9_breakdown
 * (which reports it) and tools/trace_report (which cross-checks its
 * trace against it), so the two can never run different workloads.
 */
#ifndef PULSE_BENCH_FIG9_CELL_H
#define PULSE_BENCH_FIG9_CELL_H

#include <cstdint>
#include <vector>

#include "common/random.h"
#include "common/units.h"
#include "core/cluster.h"
#include "ds/hash_table.h"
#include "workloads/driver.h"
#include "workloads/workloads.h"

namespace pulse::bench {

/** Counter-derived per-component latencies of the measured finds. */
struct Fig9Breakdown
{
    double net_stack_ns = 0.0;       ///< per packet direction
    double scheduler_ns = 0.0;       ///< per request
    double mem_per_iter_ns = 0.0;    ///< per aggregated load
    double logic_per_iter_ns = 0.0;  ///< per iteration
    double iters = 0.0;              ///< iterations per request
    double total_accel_us = 0.0;     ///< all four, per request
    double end_to_end_us = 0.0;      ///< mean client latency
};

/**
 * Run the cell on a fresh single-node @p cluster: a 512-bucket hash
 * table of 50k keys, then 20 warm-up and 400 measured finds at
 * concurrency 1 with keys drawn from Rng(17). Node 0's accelerator
 * counters, reset at the start of the measured phase, give the
 * breakdown; @p result, if given, receives the driver's result.
 */
inline Fig9Breakdown
run_fig9_cell(core::Cluster& cluster,
              workloads::DriverResult* result = nullptr)
{
    ds::HashTableConfig ht;
    ht.num_buckets = 512;
    ds::HashTable table(cluster.memory(), cluster.allocator(), ht);
    std::vector<std::uint64_t> keys;
    for (std::uint64_t i = 0; i < 50'000; i++) {
        keys.push_back(workloads::key_of(i));
    }
    table.insert_many(keys);

    Rng rng(17);
    workloads::DriverConfig driver;
    driver.warmup_ops = 20;
    driver.measure_ops = 400;
    driver.concurrency = 1;
    driver.on_measure_start = [&cluster] { cluster.reset_stats(); };
    const workloads::DriverResult run = run_closed_loop(
        cluster.queue(), cluster.submitter(core::SystemKind::kPulse),
        [&](std::uint64_t) {
            return table.make_find(keys[rng.next_below(keys.size())],
                                   nullptr);
        },
        driver);

    const auto& stats = cluster.accelerator(0).stats();
    const double requests =
        static_cast<double>(stats.requests_received.value());
    const double iters = static_cast<double>(stats.iterations.value());
    const double loads = static_cast<double>(stats.loads.value());
    Fig9Breakdown out;
    out.net_stack_ns = stats.net_stack_time.sum() / (2.0 * requests) / 1e3;
    out.scheduler_ns = stats.scheduler_time.sum() / requests / 1e3;
    out.mem_per_iter_ns = stats.mem_pipeline_time.sum() / loads / 1e3;
    out.logic_per_iter_ns = stats.logic_pipeline_time.sum() / iters / 1e3;
    out.iters = iters / requests;
    out.total_accel_us =
        (stats.net_stack_time.sum() + stats.scheduler_time.sum() +
         stats.mem_pipeline_time.sum() +
         stats.logic_pipeline_time.sum()) /
        requests / 1e6;
    out.end_to_end_us = to_micros(run.latency.mean());
    if (result != nullptr) {
        *result = run;
    }
    return out;
}

}  // namespace pulse::bench

#endif  // PULSE_BENCH_FIG9_CELL_H
