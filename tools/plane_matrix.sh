#!/usr/bin/env bash
# Plane-combination matrix: every bench binary in BUILD_DIR/bench under
# elastic placement, k2 replication and serving (each alone, each pair,
# all three), with PULSE_CHECK=invariants at a tenth of the op counts.
#
#   tools/plane_matrix.sh [BUILD_DIR] [--known-defects]
#
# The migration ablation under k2 executes a visit twice, a known defect
# (ROADMAP.md). Its cells run only with --known-defects, which runs
# nothing else. Exits non-zero if any cell fails.
set -u
build=${1:-build} mode=${2:-}
cells=0 failed=0
for bench in "$build"/bench/*; do
    [[ -f "$bench" && -x "$bench" ]] || continue
    name=$(basename "$bench")
    for planes in "PULSE_PLACEMENT=elastic" "PULSE_REPLICATION=k2" \
        "PULSE_SERVING=on" "PULSE_PLACEMENT=elastic PULSE_REPLICATION=k2" \
        "PULSE_PLACEMENT=elastic PULSE_SERVING=on" \
        "PULSE_REPLICATION=k2 PULSE_SERVING=on" \
        "PULSE_PLACEMENT=elastic PULSE_REPLICATION=k2 PULSE_SERVING=on"; do
        defect=
        [[ $name == ablation_migration && $planes == *k2* ]] &&
            defect=--known-defects
        [[ "$defect" == "$mode" ]] || continue
        cells=$((cells + 1))
        # $planes is unquoted on purpose: it is a list of assignments.
        if out=$(env PULSE_CHECK=invariants PULSE_BENCH_OPS_SCALE=0.1 \
            $planes "$bench" 2>&1); then
            echo "PASS $name [$planes]"
        else
            failed=$((failed + 1))
            echo "FAIL $name [$planes]"
            tail -n 5 <<< "$out" | sed 's/^/    /'
        fi
    done
done
echo "plane matrix: $((cells - failed))/$cells cells pass"
[[ $cells -gt 0 && $failed -eq 0 ]]
