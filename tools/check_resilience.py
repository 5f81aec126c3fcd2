#!/usr/bin/env python3
"""Supervised-recovery gate: a run that crashed and recovered from a
checkpoint must be indistinguishable from one that never crashed.

Inputs are two --stats-out JSON files (BenchResults format) plus the
run supervisor's summary:

  cold        the reference run, executed end to end undisturbed;
  recovered   the supervised run: its first attempt was killed
              mid-flight (or hung) and a retry resumed from the
              newest rotated checkpoint;
  supervisor.json
              written by the supervisor (docs/resilience.md); used to
              prove a recovery actually happened — a kill that landed
              after the run finished would pass the hash check
              without exercising recovery at all.

Checks:
  1. supervisor.json reports success with >= 2 attempts and at least
     one classified failure (pass --allow-cold-recovery to accept a
     recovery that restarted cold because no rotation existed yet);
  2. every `<case>.event_hash` matches the cold run bit for bit —
     the restored determinism verifier resumes the cold hash stream,
     so any divergence means recovery corrupted state. The comparison
     is check_restore.py's.

Exit status: 0 when recovery is proven equivalent, 1 otherwise.

Usage: check_resilience.py cold.json recovered.json supervisor.json
"""

import argparse
import json
import sys

from check_restore import compare_hashes, load_results


def load_json(path, what):
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as err:
        sys.exit(f"check_resilience: cannot read {what} '{path}': "
                 f"{err}")


def check_supervisor(path, allow_cold):
    doc = load_json(path, "supervisor summary")
    failures = 0
    if not doc.get("succeeded"):
        print("FAIL supervisor: run did not succeed "
              f"(gave_up={doc.get('gave_up')})")
        failures += 1
    attempts = doc.get("attempts", 0)
    if attempts < 2:
        print(f"FAIL supervisor: {attempts} attempt(s) — no failure "
              "was injected, recovery was not exercised")
        failures += 1
    recs = doc.get("failures", [])
    if not recs:
        print("FAIL supervisor: no classified failures on record")
        failures += 1
    for rec in recs:
        cls = rec.get("class", "?")
        tick = rec.get("recovered_from_tick", 0)
        origin = f"checkpoint tick {tick}" if tick else "cold start"
        print(f"info supervisor: attempt {rec.get('attempt')} "
              f"failed as '{cls}' ({rec.get('detail', '')}); "
              f"next attempt from {origin}")
    warm = any(rec.get("recovered_from_tick", 0) > 0 for rec in recs)
    if not warm and not allow_cold:
        print("FAIL supervisor: every retry was a cold restart — "
              "no checkpoint recovery was exercised (pass "
              "--allow-cold-recovery if that is expected)")
        failures += 1
    return failures


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("cold", help="stats-out JSON of the cold run")
    parser.add_argument("recovered",
                        help="stats-out JSON of the supervised run")
    parser.add_argument("supervisor",
                        help="supervisor.json of the supervised run")
    parser.add_argument("--allow-cold-recovery", action="store_true",
                        help="accept recovery without a checkpoint")
    args = parser.parse_args(argv)

    failures = check_supervisor(args.supervisor,
                                args.allow_cold_recovery)

    hash_failures, cases = compare_hashes(
        load_results(args.cold), load_results(args.recovered),
        "recovered", "recovery diverged")
    failures += hash_failures

    if failures:
        print(f"check_resilience: {failures} check(s) failed",
              file=sys.stderr)
        return 1
    print(f"check_resilience: recovery verified — {cases} case(s) "
          "bit-identical to the cold run")
    return 0


if __name__ == "__main__":
    sys.exit(main())
