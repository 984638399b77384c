/**
 * @file
 * Configuration for the multi-tenant serving plane (src/serve).
 *
 * The serving plane models what sits between a production client fleet
 * and the accelerators: per-tenant QoS admission control at the memory
 * nodes (token-bucket traversal quotas, weighted-deficit-round-robin
 * scheduling, SLO classes with per-class queue-depth caps and load
 * shedding) plus the client-fleet generator (src/serve/fleet.h).
 *
 * Gating follows the PR 5/6 pattern exactly: with the plane off (the
 * default) no QosController is constructed, accelerators keep a null
 * serving pointer, no stats keys are registered, and runs stay
 * bit-identical to a build without the subsystem. PULSE_SERVING
 * switches it on with default contracts (core::apply_env,
 * docs/SERVING.md); benches that need specific contracts (the
 * tenant-isolation ablation) configure them programmatically.
 */
#ifndef PULSE_SERVE_SERVE_CONFIG_H
#define PULSE_SERVE_SERVE_CONFIG_H

#include <cstdint>
#include <vector>

#include "common/units.h"

namespace pulse::serve {

/** Tenant identity as carried by TraversalPacket::tenant. */
using TenantId = std::uint32_t;

/**
 * SLO class of a tenant's traffic. Latency-sensitive tenants get the
 * small, tightly-capped queue (shed early, keep tail latency bounded);
 * batch tenants get the deep queue (absorb bursts, tolerate waiting).
 */
enum class SloClass : std::uint8_t {
    kLatencySensitive,
    kBatch,
};

/** Human-readable class name (bench tables, trace_report). */
inline const char*
slo_class_name(SloClass slo)
{
    switch (slo) {
      case SloClass::kLatencySensitive: return "latency";
      case SloClass::kBatch: return "batch";
    }
    return "?";
}

/** Per-tenant QoS contract. */
struct TenantQos
{
    TenantId id = 0;

    SloClass slo = SloClass::kLatencySensitive;

    /**
     * Weighted-deficit-round-robin weight: queued requests of a tenant
     * with weight w are served w times as often as a weight-1 tenant's
     * under contention. Clamped to >= 1.
     */
    std::uint32_t weight = 1;

    /**
     * Token-bucket traversal quota in new traversals per second; 0 (the
     * default) means unlimited. Only *fresh* root requests are charged:
     * continuations and fork children of an admitted traversal
     * represent work already in the system and always pass (admit at
     * entry, never kill mid-flight).
     */
    double quota_ops_per_s = 0.0;

    /** Token-bucket burst capacity in traversals. */
    double quota_burst = 16.0;
};

/** Serving-plane knobs (part of ClusterConfig). */
struct ServeConfig
{
    /** Master switch: off constructs nothing (see file comment). */
    bool on = false;

    /**
     * QoS contracts by tenant. A tenant id that appears in traffic but
     * not here falls back to the default contract (latency class,
     * weight 1, no quota). Duplicated ids: first entry wins.
     */
    std::vector<TenantQos> tenants;

    /**
     * Per-node queue-depth cap for latency-sensitive tenants' queued
     * requests. Beyond it the request is shed with a typed kRejected
     * response instead of queueing — bounded queueing delay is the SLO.
     */
    std::uint32_t latency_queue_cap = 256;

    /** Per-node queue-depth cap for batch tenants' queued requests. */
    std::uint32_t batch_queue_cap = 4096;

    /**
     * Throttled (over-quota) requests parked per tenant per node;
     * beyond it over-quota requests are shed instead of parked.
     */
    std::uint32_t throttle_park_cap = 1024;

    bool enabled() const { return on; }

    /** The contract for @p tenant (default contract if unknown). */
    TenantQos
    qos_of(TenantId tenant) const
    {
        for (const TenantQos& qos : tenants) {
            if (qos.id == tenant) {
                return qos;
            }
        }
        return TenantQos{tenant};
    }
};

}  // namespace pulse::serve

#endif  // PULSE_SERVE_SERVE_CONFIG_H
