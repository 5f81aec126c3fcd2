#!/usr/bin/env python3
"""Restore-determinism gate: compare event-stream hashes between a
cold bench run and a warm (checkpoint-restored) rerun.

Both inputs are --stats-out JSON files written by a bench
(BenchResults format: {"bench": ..., "results": {...}, "sim": {...}}).
The cold run executed end to end while writing a mid-run checkpoint;
the warm run restored that checkpoint and executed only the suffix.
Because the restored determinism verifier resumes the cold run's hash
stream (docs/checkpointing.md), every `<case>.event_hash` result (or
the bare `event_hash` of a single-point scenario) must match bit for
bit — any divergence means the restored state was not equivalent to
the cold run's at the checkpoint boundary.

The loader and the hash comparison are shared with check_replay.py
and check_resilience.py: one run-A-vs-run-B comparator.

Exit status: 0 when every hash matches, 1 otherwise.

Usage: check_restore.py cold.json warm.json
"""

import argparse
import json
import os
import sys

HASH_SUFFIX = ".event_hash"
WALL_SUFFIX = ".wall_ms"
# The running tool's name, for diagnostics from the shared helpers.
PROG = os.path.splitext(os.path.basename(sys.argv[0]))[0]


def load_results(path):
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as err:
        sys.exit(f"{PROG}: cannot read '{path}': {err}")
    results = doc.get("results")
    if not isinstance(results, dict):
        sys.exit(f"{PROG}: '{path}' has no results object — "
                 "was the bench run with --stats-out?")
    return results


def hash_keys(results):
    """Hash-carrying result keys: `<case>.event_hash` from the grid
    benches, or a bare `event_hash` from single-point scenarios."""
    return {k: v for k, v in results.items()
            if k == "event_hash" or k.endswith(HASH_SUFFIX)}


def case_of(key):
    return key[: -len(HASH_SUFFIX)] if key.endswith(HASH_SUFFIX) \
        else "(run)"


def compare_hashes(cold, other, other_name, diverged):
    """Compare every event hash of the @cold results against @other
    (the `other_name` run), printing one OK/FAIL line per case.
    Returns (failures, cases compared)."""
    cold_hashes = hash_keys(cold)
    other_hashes = hash_keys(other)
    if not cold_hashes:
        sys.exit(f"{PROG}: no *.event_hash results in the cold run — "
                 "pass --check-determinism to the bench")

    failures = 0
    for key in sorted(cold_hashes):
        case = case_of(key)
        if key not in other_hashes:
            print(f"FAIL {case}: missing from the {other_name} run")
            failures += 1
            continue
        ch, oh = cold_hashes[key], other_hashes[key]
        if ch == 0 or oh == 0:
            print(f"FAIL {case}: hash is zero (determinism check "
                  "was off in one of the runs)")
            failures += 1
        elif ch != oh:
            print(f"FAIL {case}: cold hash {ch:.0f} != {other_name} "
                  f"hash {oh:.0f} — {diverged}")
            failures += 1
        else:
            speed = ""
            cw = cold.get(case + WALL_SUFFIX)
            ow = other.get(case + WALL_SUFFIX)
            if cw and ow:
                speed = (f" (wall {cw:.0f} ms cold -> {ow:.0f} ms "
                         f"{other_name}, {cw / ow:.2f}x)")
            print(f"OK   {case}: hash {ch:.0f}{speed}")

    for key in sorted(set(other_hashes) - set(cold_hashes)):
        print(f"FAIL {case_of(key)}: present only in the {other_name} "
              "run")
        failures += 1
    return failures, len(cold_hashes)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("cold", help="stats-out JSON of the cold run")
    parser.add_argument("warm", help="stats-out JSON of the warm run")
    args = parser.parse_args(argv)

    failures, cases = compare_hashes(
        load_results(args.cold), load_results(args.warm), "warm",
        "the restored run diverged")
    if failures:
        print(f"check_restore: {failures} case(s) diverged",
              file=sys.stderr)
        return 1
    print(f"check_restore: {cases} case(s) reproduced the cold event "
          "stream exactly")
    return 0


if __name__ == "__main__":
    sys.exit(main())
