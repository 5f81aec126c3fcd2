#!/usr/bin/env python3
"""Trace-replay gate: the replayed figure must keep the
execution-driven shape, measurably faster.

Both inputs are --stats-out JSON files written by a bench
(BenchResults format: {"bench": ..., "results": {...}, "sim": {...}},
read by check_restore.py's shared loader). The exec run executed
shaders end to end (typically while writing a traffic trace with
--capture-trace); the replay run re-drove the memory system from
that trace with --replay-trace (docs/scheduling.md). Replay is a
timing approximation — the recorded traffic does not adapt to the
swept memory configuration — so unlike check_restore.py this gate
compares the figure's normalized results (`*_norm` keys, the
bars-normalized-to-BAS shape) within an absolute tolerance rather
than demanding bit equality. It also requires the replay to be
measurably faster (summed `*.wall_ms`): a replay that is no faster
than execution has lost its reason to exist.

Exit status: 0 when every norm is within tolerance and the speedup
clears the floor, 1 otherwise.

Usage: check_replay.py exec.json replay.json [--tolerance 0.25]
       [--min-speedup 1.2]
"""

import argparse
import sys

from check_restore import load_results

NORM_SUFFIX = "_norm"
WALL_SUFFIX = ".wall_ms"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("exec_json",
                        help="stats-out JSON of the execution-driven "
                             "run")
    parser.add_argument("replay_json",
                        help="stats-out JSON of the replayed run")
    parser.add_argument("--tolerance", type=float, default=0.25,
                        help="max absolute delta per *_norm result "
                             "(default 0.25; quick-run deltas measure "
                             "under 0.08)")
    parser.add_argument("--min-speedup", type=float, default=1.2,
                        help="required exec/replay wall-time ratio "
                             "(default 1.2; measured >30x)")
    args = parser.parse_args(argv)

    exe = load_results(args.exec_json)
    rep = load_results(args.replay_json)

    exe_norms = {k: v for k, v in exe.items()
                 if k.endswith(NORM_SUFFIX)}
    rep_norms = {k: v for k, v in rep.items()
                 if k.endswith(NORM_SUFFIX)}

    if not exe_norms:
        sys.exit("check_replay: no *_norm results in the exec run — "
                 "is this a figure bench's --stats-out JSON?")

    failures = 0
    worst = 0.0
    for key in sorted(exe_norms):
        if key not in rep_norms:
            print(f"FAIL {key}: missing from the replay run")
            failures += 1
            continue
        delta = abs(exe_norms[key] - rep_norms[key])
        worst = max(worst, delta)
        if delta > args.tolerance:
            print(f"FAIL {key}: exec {exe_norms[key]:.3f} vs replay "
                  f"{rep_norms[key]:.3f} (|delta| {delta:.3f} > "
                  f"{args.tolerance:g}) — the replayed shape drifted")
            failures += 1
        else:
            print(f"OK   {key}: exec {exe_norms[key]:.3f} vs replay "
                  f"{rep_norms[key]:.3f} (|delta| {delta:.3f})")

    for key in sorted(set(rep_norms) - set(exe_norms)):
        print(f"FAIL {key}: present only in the replay run")
        failures += 1

    exe_wall = sum(v for k, v in exe.items()
                   if k.endswith(WALL_SUFFIX))
    rep_wall = sum(v for k, v in rep.items()
                   if k.endswith(WALL_SUFFIX))
    if exe_wall <= 0 or rep_wall <= 0:
        print("FAIL speedup: missing *.wall_ms results in one of the "
              "runs")
        failures += 1
    else:
        speedup = exe_wall / rep_wall
        if speedup < args.min_speedup:
            print(f"FAIL speedup: exec {exe_wall:.0f} ms vs replay "
                  f"{rep_wall:.0f} ms ({speedup:.2f}x < "
                  f"{args.min_speedup:g}x) — replay is not earning "
                  "its keep")
            failures += 1
        else:
            print(f"OK   speedup: exec {exe_wall:.0f} ms vs replay "
                  f"{rep_wall:.0f} ms ({speedup:.2f}x)")

    if failures:
        print(f"check_replay: {failures} check(s) failed",
              file=sys.stderr)
        return 1
    print(f"check_replay: {len(exe_norms)} norm(s) within "
          f"{args.tolerance:g} (worst {worst:.3f}), replay "
          f"{exe_wall / rep_wall:.1f}x faster")
    return 0


if __name__ == "__main__":
    sys.exit(main())
