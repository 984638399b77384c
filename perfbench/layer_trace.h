/**
 * @file
 * Per-layer host-time attribution for the traced benchmark binary.
 *
 * The traced binary links layer_wrap.cc, whose GNU ld --wrap shims time
 * every cross-translation-unit call into a layer's public entry points
 * (src/ is never edited). The untimed binary links layer_stub.cc, where
 * every function below is a no-op, so end-to-end runs carry no
 * instrumentation at all.
 *
 * A span's self time is its duration minus the time its nested wrapped
 * spans cover. Layers belong to one phase: setup layers (cluster
 * construction, data-structure build) record only while the phase is
 * kSetup and simulate layers only while it is kSimulate; outside its
 * phase a shim calls straight through, so e.g. memory writes made by a
 * data-structure build count toward ds.build_s.
 */
#ifndef PULSE_PERFBENCH_LAYER_TRACE_H
#define PULSE_PERFBENCH_LAYER_TRACE_H

#include <map>
#include <string>

namespace perfbench {

enum class Phase { kOff, kSetup, kSimulate };

/** Select which layers record from now on. */
void set_phase(Phase phase);

/** Zero every self time and count. */
void reset_layers();

/**
 * Snapshot of the layers of @p phase: their self times in seconds
 * ("isa.self_s", "ds.build_s", ...) and, for kSimulate, the wrapper
 * counts ("isa.iterations", "net.route.calls", ...). Empty when
 * untraced.
 */
std::map<std::string, double> read_layers(Phase phase);

}  // namespace perfbench

#endif  // PULSE_PERFBENCH_LAYER_TRACE_H
