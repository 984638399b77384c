/**
 * @file
 * trace_report — per-component latency decomposition from spans.
 *
 * Runs the Fig. 9 workload (hash-table find, single node, closed loop)
 * with per-request tracing enabled, aggregates the recorded spans into
 * the paper's latency breakdown, and cross-checks every component
 * against the accelerator's built-in busy-time accounting (the numbers
 * bench/fig9_breakdown reports). The two decompositions are computed
 * from independent mechanisms — counters summed on the hot path vs
 * typed span events in the trace ring — so agreement validates both.
 *
 * Exit status is non-zero when any component disagrees by more than
 * --max-delta percent (default 5), making the binary a CI check.
 *
 * Options:
 *   --trace-out PATH    write the raw span CSV (deterministic: two
 *                       identically-seeded runs are byte-identical)
 *   --metrics-out PATH  write a unified metrics snapshot (.json / CSV)
 *   --max-delta PCT     cross-check tolerance in percent (default 5)
 */
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "core/cluster.h"
#include "fig9_cell.h"
#include "replication/replication_plane.h"
#include "trace/metrics_exporter.h"
#include "trace/trace.h"
#include "workloads/driver.h"

namespace {

using namespace pulse;

/** One cross-checked component row. */
struct Row
{
    const char* name;
    double stats_ns;
    double trace_ns;

    double
    delta_pct() const
    {
        if (stats_ns == 0.0) {
            return trace_ns == 0.0 ? 0.0 : 100.0;
        }
        return (trace_ns - stats_ns) / stats_ns * 100.0;
    }
};

bool
write_text(const std::string& path, const std::string& text)
{
    std::ofstream out(path, std::ios::binary);
    if (!out) {
        return false;
    }
    out << text;
    return out.good();
}

}  // namespace

int
main(int argc, char** argv)
{
    std::string trace_out;
    std::string metrics_out;
    double max_delta_pct = 5.0;
    for (int i = 1; i < argc; i++) {
        const std::string arg = argv[i];
        if (arg == "--trace-out" && i + 1 < argc) {
            trace_out = argv[++i];
        } else if (arg == "--metrics-out" && i + 1 < argc) {
            metrics_out = argv[++i];
        } else if (arg == "--max-delta" && i + 1 < argc) {
            max_delta_pct = std::atof(argv[++i]);
        } else {
            std::fprintf(stderr,
                         "usage: %s [--trace-out PATH] "
                         "[--metrics-out PATH] [--max-delta PCT]\n",
                         argv[0]);
            return 2;
        }
    }

    // The exact fig9_breakdown cell, with tracing switched on. The
    // plane variables are honoured like everywhere else, so the health
    // sections below reflect opted-in planes.
    core::ClusterConfig config;
    core::apply_env(config);
    config.trace.enabled = true;
    core::Cluster cluster(config);
    workloads::DriverResult result;
    const bench::Fig9Breakdown counters =
        bench::run_fig9_cell(cluster, &result);

    // Trace-derived decomposition.
    const std::vector<trace::SpanEvent> events =
        cluster.tracer().events();
    const trace::Breakdown breakdown =
        trace::aggregate_breakdown(events);

    const Row rows[] = {
        {"net stack/pkt", counters.net_stack_ns,
         breakdown.net_stack_ns_per_pkt()},
        {"scheduler", counters.scheduler_ns, breakdown.scheduler_ns()},
        {"mem pipe/load", counters.mem_per_iter_ns,
         breakdown.mem_pipeline_ns_per_load()},
        {"logic/iter", counters.logic_per_iter_ns,
         breakdown.logic_ns_per_iter()},
    };

    std::printf("=== trace_report: Fig. 9 latency breakdown "
                "(hash-table find, %" PRIu64 " ops) ===\n",
                result.completed);
    std::printf("%-14s %12s %12s %9s\n", "component", "stats_ns",
                "trace_ns", "delta_%");
    bool ok = true;
    for (const Row& row : rows) {
        std::printf("%-14s %12.2f %12.2f %9.3f\n", row.name,
                    row.stats_ns, row.trace_ns, row.delta_pct());
        if (std::fabs(row.delta_pct()) > max_delta_pct) {
            ok = false;
        }
    }
    std::printf("iters/req %.1f; spans recorded %llu, dropped %llu\n",
                counters.iters,
                static_cast<unsigned long long>(
                    cluster.tracer().recorded()),
                static_cast<unsigned long long>(
                    cluster.tracer().dropped()));

    // Per-memory-node load skew (max/mean of request counts): the
    // signal the elastic placement plane acts on. Trivially 1.00 on
    // this single-node workload; bench/ablation_migration and fig8
    // report the multi-node values.
    const std::vector<std::uint64_t> node_ops =
        cluster.node_request_counts();
    std::printf("node load imbalance %.2f (requests:",
                cluster.node_load_imbalance());
    for (const std::uint64_t ops : node_ops) {
        std::printf(" %llu", static_cast<unsigned long long>(ops));
    }
    std::printf(")\n");

    // Fault-tolerance health (only when PULSE_REPLICATION opted the
    // plane in): per-node detector state plus the failover and
    // redundancy-repair ledger.
    if (const replication::ReplicationPlane* plane =
            cluster.replication_plane()) {
        const auto& rstats = plane->stats();
        std::printf("replication k=%u: %llu replicas live, "
                    "%llu failovers, %llu spans rerouted, "
                    "%llu spans lost, %llu rereplications, "
                    "backlog %llu B\n",
                    plane->config().replication_factor,
                    static_cast<unsigned long long>(
                        rstats.replicas_established.value()),
                    static_cast<unsigned long long>(
                        rstats.failovers_executed.value()),
                    static_cast<unsigned long long>(
                        rstats.failover_spans_rerouted.value()),
                    static_cast<unsigned long long>(
                        rstats.failover_spans_lost.value()),
                    static_cast<unsigned long long>(
                        rstats.rereplications.value()),
                    static_cast<unsigned long long>(
                        plane->rereplication_backlog_bytes()));
        std::printf("detector:");
        for (NodeId node = 0;
             node < cluster.memory().num_nodes(); node++) {
            std::printf(" node%u=%s(%.2f)", node,
                        plane->is_dead(node) ? "DEAD" : "live",
                        plane->suspicion(node));
        }
        std::printf(" (probes %llu, acks %llu)\n",
                    static_cast<unsigned long long>(
                        rstats.heartbeats_sent.value()),
                    static_cast<unsigned long long>(
                        rstats.heartbeat_acks.value()));
    }

    // Serving-plane admission ledger (only when PULSE_SERVING opted
    // the QoS plane in): aggregate counters plus the per-tenant view —
    // contract, what was admitted, what waited for quota, what was
    // shed with a typed rejection.
    if (const serve::QosController* plane = cluster.serve_plane()) {
        const auto& sstats = plane->stats();
        std::printf("serving: %llu admitted, %llu throttled, "
                    "%llu shed, %zu parked\n",
                    static_cast<unsigned long long>(
                        sstats.admitted.value()),
                    static_cast<unsigned long long>(
                        sstats.quota_throttled.value()),
                    static_cast<unsigned long long>(
                        sstats.shed.value()),
                    plane->parked());
        std::printf("%-8s %-8s %6s %12s %10s %10s %8s\n", "tenant",
                    "class", "weight", "quota_op_s", "admitted",
                    "throttled", "shed");
        for (const auto& [tenant, counters] :
             plane->tenant_counters()) {
            const serve::TenantQos qos = plane->config().qos_of(tenant);
            std::printf("%-8u %-8s %6u %12.0f %10llu %10llu %8llu\n",
                        tenant, serve::slo_class_name(qos.slo),
                        qos.weight, qos.quota_ops_per_s,
                        static_cast<unsigned long long>(
                            counters.admitted),
                        static_cast<unsigned long long>(
                            counters.throttled),
                        static_cast<unsigned long long>(
                            counters.shed));
        }
    }

    if (!trace_out.empty() &&
        !write_text(trace_out, cluster.tracer().to_csv())) {
        std::fprintf(stderr, "cannot write %s\n", trace_out.c_str());
        return 2;
    }
    if (!metrics_out.empty()) {
        trace::MetricsExporter exporter;
        cluster.export_metrics(exporter, "");
        exporter.set("trace_report.net_stack_ns",
                     breakdown.net_stack_ns_per_pkt());
        exporter.set("trace_report.scheduler_ns",
                     breakdown.scheduler_ns());
        exporter.set("trace_report.mem_per_load_ns",
                     breakdown.mem_pipeline_ns_per_load());
        exporter.set("trace_report.logic_per_iter_ns",
                     breakdown.logic_ns_per_iter());
        exporter.set("trace_report.node_imbalance",
                     cluster.node_load_imbalance());
        exporter.add_histogram("trace_report.latency",
                               result.latency);
        if (!exporter.write_file(metrics_out)) {
            std::fprintf(stderr, "cannot write %s\n",
                         metrics_out.c_str());
            return 2;
        }
    }

    if (!ok) {
        std::fprintf(stderr,
                     "cross-check FAILED: trace-derived breakdown "
                     "disagrees with counter accounting by more than "
                     "%.1f%%\n",
                     max_delta_pct);
        return 1;
    }
    return 0;
}
