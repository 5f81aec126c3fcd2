#!/usr/bin/env bash
# Regenerates every paper table/figure (see EXPERIMENTS.md).
#
# All figure benches live in one binary, build/bench/emerald_bench;
# this script enumerates them with --list and runs each with
# --run <name> (aux scenarios like soc_point, the sweep unit, are
# skipped — emerald_sweep drives those; docs/sweeps.md). The
# micro_kernels google-benchmark binary still runs separately.
#
# Usage: run_benches.sh [--stats-out <dir>]
#   --stats-out <dir>   also write one machine-readable JSON results
#                       file per bench into <dir> (see
#                       docs/observability.md for the schema).
#
# Exits nonzero if any bench fails, listing the failures at the end;
# the remaining benches still run so one bad bench does not hide the
# results of the others.
set -euo pipefail

SCRIPT_DIR=$(cd -- "$(dirname -- "$0")" && pwd)
OUTPUT="$SCRIPT_DIR/bench_output.txt"
BENCH="$SCRIPT_DIR/build/bench/emerald_bench"

STATS_DIR=""
case "${1-}" in
--stats-out=*) STATS_DIR="${1#*=}" ;;
--stats-out) STATS_DIR="${2-}" ;;
"") ;;
*)
    echo "usage: $0 [--stats-out <dir>]" >&2
    exit 2
    ;;
esac

if [ ! -x "$BENCH" ]; then
    echo "run_benches.sh: $BENCH not built (cmake --build build)" >&2
    exit 2
fi

if [ -n "$STATS_DIR" ]; then
    mkdir -p "$STATS_DIR"
fi

: > "$OUTPUT"
failed=()
while IFS=$'\t' read -r name kind _desc; do
    [ "$kind" = "figure" ] || continue
    args=(--run "$name")
    if [ -n "$STATS_DIR" ]; then
        args+=("--stats-out=$STATS_DIR/$name.json")
    fi
    # `if ! cmd` keeps set -e from killing the loop on a bench failure.
    if ! "$BENCH" "${args[@]}" 2>&1 | tee -a "$OUTPUT"; then
        echo "BENCH_FAILED: $name" | tee -a "$OUTPUT" >&2
        failed+=("$name")
    fi
done < <("$BENCH" --list)

# micro_kernels is a google-benchmark binary; it does not take the
# emerald Config flags and is not in the scenario registry.
MICRO="$SCRIPT_DIR/build/bench/micro_kernels"
if [ -x "$MICRO" ]; then
    if ! "$MICRO" 2>&1 | tee -a "$OUTPUT"; then
        echo "BENCH_FAILED: micro_kernels" | tee -a "$OUTPUT" >&2
        failed+=("micro_kernels")
    fi
fi

if [ "${#failed[@]}" -gt 0 ]; then
    echo "FAILED_BENCHES: ${failed[*]}" | tee -a "$OUTPUT" >&2
    exit 1
fi
echo "ALL_BENCHES_DONE" >> "$OUTPUT"
