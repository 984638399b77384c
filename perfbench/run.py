#!/usr/bin/env python3
"""Host-time benchmark of the pulse simulator.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds perfbench/ (and the simulator library it links) in .bench_build/
with CMake, then runs one workload in a fresh process:

  --trace 0  runs the untraced binary and reports the end-to-end metrics
             (wall_s, setup_s, sim_ops_per_s, peak_rss_mib);
  --trace 1  runs the untraced binary for half the budget and the
             --wrap-traced binary for the other half, and reports the
             per-layer metrics plus the tracing overhead.

Correctness: every run fails if an operation errs, a sampled completion
disagrees with the host reference, a repetition's simulated statistics
differ from the first's, or (at the workload's default seed) the model
digest differs from perfbench/golden.json; the statistics that moved are
named. A traced run also fails its coverage self-check when a layer that
perfbench/design.json says the workload exercises reads zero, or one it
says stays idle does not. The last stdout line is the JSON result.

--update-golden rewrites the workload's golden entry from this run (use
only for a change that is meant to move the simulated figures).
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
GOLDEN = os.path.join(HERE, "golden.json")
DESIGN = os.path.join(HERE, "design.json")
BENCHMARK = os.path.join(ROOT, "BENCHMARK.json")


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def median(values):
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return 0.5 * (ordered[mid - 1] + ordered[mid])


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("simulator sources (src/) not found next to perfbench/")
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"] + generator)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    for step in steps:
        result = subprocess.run(step, stdout=subprocess.PIPE,
                                stderr=subprocess.STDOUT, text=True)
        if result.returncode != 0:
            sys.stderr.write(result.stdout[-4000:])
            fail("build step failed: " + " ".join(step))


def run_binary(name, workload, seed, seconds):
    """Run one benchmark process; return its JSON report."""
    command = [os.path.join(BUILD_DIR, name), "--workload", workload,
               "--seed", str(seed), "--seconds", repr(seconds)]
    result = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                            timeout=170)
    lines = result.stdout.strip().splitlines()
    for line in lines[:-1]:
        print(line)
    if not lines or not lines[-1].startswith("{"):
        fail("%s exited %d without a report" % (name, result.returncode))
    return json.loads(lines[-1])


def check_golden(report, update, problems):
    """Compare the model digest with the stored golden, when it applies."""
    goldens = {}
    if os.path.isfile(GOLDEN):
        with open(GOLDEN) as handle:
            goldens = json.load(handle)
    workload = report["workload"]
    if update:
        if report["seed"] != report["default_seed"]:
            fail("--update-golden needs the workload's default seed %d"
                 % report["default_seed"])
        goldens[workload] = {"seed": report["seed"],
                             "digest": report["digest"],
                             "model": report["model"]}
        with open(GOLDEN, "w") as handle:
            json.dump(goldens, handle, indent=1, sort_keys=True)
            handle.write("\n")
        return
    golden = goldens.get(workload)
    if golden is None:
        problems.append("no golden digest stored for " + workload)
        return
    if golden["seed"] != report["default_seed"]:
        problems.append("golden seed %d is not the default seed %d"
                        % (golden["seed"], report["default_seed"]))
        return
    if report["seed"] != golden["seed"] or \
            report["digest"] == golden["digest"]:
        return
    moved = sorted(name for name in set(golden["model"]) | set(report["model"])
                   if golden["model"].get(name) != report["model"].get(name))
    for name in moved[:20]:
        problems.append("simulated statistic %s moved: golden %r, now %r"
                        % (name, golden["model"].get(name),
                           report["model"].get(name)))
    problems.append("model digest %s differs from golden %s (%d statistics "
                    "moved)" % (report["digest"], golden["digest"],
                                len(moved)))


def end_to_end_metrics(report):
    simulate = median(report["simulate_s"])
    return {
        "wall_s": median(report["wall_s"]),
        "setup_s": median(report["setup_s"]),
        "sim_ops_per_s": report["ops_per_rep"] / simulate,
        "peak_rss_mib": report["peak_rss_kib"] / 1024.0,
    }


def per_layer_metrics(untraced, traced, design, problems):
    layers = dict(traced["layers"])
    simulate = median(untraced["simulate_s"])
    traced_simulate = median(traced["simulate_s"])
    # Self times of simulate-phase layers end in ".self_s"; the rest of
    # the traced simulate time is queue dispatch and in-TU code.
    attributed = sum(value for name, value in layers.items()
                     if name.endswith(".self_s"))
    layers["unattributed_s"] = traced_simulate - attributed
    layers["isa.share"] = layers["isa.self_s"] / traced_simulate
    layers["isa.ns_per_instruction"] = (
        layers["isa.self_s"] * 1e9 / layers["isa.instructions"]
        if layers["isa.instructions"] else 0.0)
    layers["sim.events_per_s"] = layers["sim.events"] / simulate
    layers["trace.overhead_frac"] = traced_simulate / simulate - 1.0
    if traced["digest"] != untraced["digest"]:
        problems.append("traced and untraced runs simulated different "
                        "statistics (%s vs %s)"
                        % (traced["digest"], untraced["digest"]))
    declared = design["workloads"][traced["workload"]]
    for name in declared["exercises"]:
        if not layers.get(name, 0) > 0:
            problems.append("coverage: %s is zero but %s must exercise it"
                            % (name, traced["workload"]))
    for name in declared["idle"]:
        if layers.get(name, 0) != 0:
            problems.append("coverage: %s is %r but must stay zero on %s"
                            % (name, layers.get(name), traced["workload"]))
    return layers


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--update-golden", action="store_true")
    args = parser.parse_args()
    if args.seconds <= 0:
        fail("--seconds must be positive")

    with open(BENCHMARK) as handle:
        benchmark = json.load(handle)
    with open(DESIGN) as handle:
        design = json.load(handle)
    if args.workload not in design["workloads"]:
        fail("unknown workload " + args.workload)
    build()

    problems = []
    if args.trace == 0:
        report = run_binary("pulse_perfbench", args.workload, args.seed,
                            args.seconds)
        values = end_to_end_metrics(report)
        declared = benchmark["end_to_end"]
        reports = [report]
    else:
        untraced = run_binary("pulse_perfbench", args.workload, args.seed,
                              args.seconds / 2)
        traced = run_binary("pulse_perfbench_traced", args.workload,
                            args.seed, args.seconds / 2)
        values = per_layer_metrics(untraced, traced, design, problems)
        declared = benchmark["per_layer"]
        reports = [untraced, traced]

    # Per-operation failures are counted by the benchmark process; a
    # moved model, a traced/untraced split or a coverage gap voids the
    # whole run.
    attempted = sum(report["attempted"] for report in reports)
    failed = sum(report["failed"] for report in reports)
    check_golden(reports[0], args.update_golden, problems)
    if problems:
        failed = attempted
    for problem in problems:
        print("FAILED: " + problem)
    # failed_frac must be 0, so it travels as attempted/failed rather
    # than as a metric (every metric must be non-zero).
    print("failed_frac %.6g (%d of %d operations), host cores %d"
          % (failed / attempted, failed, attempted, os.cpu_count() or 0))

    metrics = {}
    for metric in declared:
        if metric["name"] not in values:
            fail("metric %s was not measured" % metric["name"])
        metrics[metric["name"]] = {"value": values[metric["name"]],
                                   "unit": metric["unit"]}
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
