/**
 * @file
 * Configuration for the correctness-tooling subsystem (src/check).
 *
 * Three independently-enableable layers (docs/TESTING.md):
 *   - the golden oracle: every offloaded traversal is re-executed
 *     against GlobalMemory through an *independent* reference
 *     interpreter with all latency/fault/scheduling models bypassed,
 *     and the per-op results are diffed;
 *   - the invariant registry: cheap always-on assertions wired into
 *     EventQueue / Network / Accelerator / ReplayWindow, with
 *     structured violation diagnostics;
 *   - quiesce checks: leak/conservation/route-agreement verification
 *     once a run has drained.
 *
 * A default CheckConfig is fully off and costs nothing: the cluster
 * constructs no checker, wraps no submitter, and draws no randomness,
 * so checker-off runs stay bit-identical to a build without src/check.
 * PULSE_CHECK selects the layers (core::apply_env).
 */
#ifndef PULSE_CHECK_CHECK_CONFIG_H
#define PULSE_CHECK_CHECK_CONFIG_H

#include <cstddef>

namespace pulse::check {

/** Which correctness layers a cluster should run. */
struct CheckConfig
{
    /** Re-execute every submitted pulse op through the oracle. */
    bool oracle = false;

    /** Wire structural invariants into sim/net/accel components. */
    bool invariants = false;

    /**
     * Panic on the first mismatch/violation instead of collecting
     * diagnostics. A sweep that completes under fail_fast therefore
     * *proves* zero mismatches and zero violations.
     */
    bool fail_fast = false;

    /** Keep at most this many structured diagnostics (FIFO). */
    std::size_t max_diagnostics = 64;

    bool enabled() const { return oracle || invariants; }
};

}  // namespace pulse::check

#endif  // PULSE_CHECK_CHECK_CONFIG_H
