#!/usr/bin/env python3
"""Emerald benchmark: host time, set-up time, simulation speed and memory.

Run from the repository root:

    python3 perfbench/run.py --workload soc_highload --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --self-test

The first call configures and builds perfbench_driver (the simulator
libraries plus perfbench/driver.cc) under .bench_build/perfbench. Each
call then runs one workload in one driver process, on one simulation
thread, and prints a human-readable report followed by one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer
metrics from a run under the simulator's event profiler. See
perfbench/README.md for what each workload and metric is for.
"""

import argparse
import hashlib
import json
import os
import re
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
DRIVER = BUILD / "perfbench_driver"

# Held-out inputs, chosen by negative seeds (README.md, "Seeds").
HELD_OUT_MODELS = ("M1-chair", "M3-mask")
HELD_OUT_SCENES = ("W1-sibenik", "W6-teapot")


def compose(workload, seed):
    """The rig specs and driver settings one (workload, seed) runs.

    Seeds >= 0 give the default composition, with the rig order rotated
    by the seed (rigs are independent, so results must not depend on
    it). Negative seeds swap in held-out case-study inputs.
    """
    held_out = seed < 0
    pick = (-seed - 1) % 2 if held_out else 0
    if workload == "soc_highload":
        model = HELD_OUT_MODELS[pick] if held_out else "M2-cube"
        rigs = ["soc/%s/%s" % (model, c) for c in ("BAS", "DCB", "DTB", "HMC")]
        # The --quick length (1 warm-up + 2 profiled frames) at a quarter
        # of the figure benches' pixels keeps each rig short enough to
        # repeat ~20 times in one run (README.md, "Steadiness").
        extra = {"frames": 3, "fb": "128x96"}
    elif workload == "gpu_dfsl":
        scenes = [HELD_OUT_SCENES[pick]] if held_out else ["W3-cube", "W5-suzanne-alpha"]
        rigs = ["gpu/%s/%d" % (s, wt) for s in scenes for wt in (1, 6)]
        extra = {"frames": 3}
    elif workload == "mem_replay_npu":
        model = HELD_OUT_MODELS[pick] if held_out else "M2-cube"
        rigs = ["replay/%s/%s" % (model, c) for c in ("BAS", "DCB")]
        extra = {"frames": 5, "capture": model}
    else:
        raise SystemExit("unknown workload %r" % workload)
    if not held_out:
        k = seed % len(rigs)
        rigs = rigs[k:] + rigs[:k]
    return rigs, extra


def build():
    """Configure and bring perfbench_driver up to date (a no-op when it is)."""
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (["cmake", "-S", str(HERE), "-B", str(BUILD),
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                ["cmake", "--build", str(BUILD), "--target", "perfbench_driver",
                 "-j", jobs]):
        r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                           text=True)
        if r.returncode != 0:
            sys.stderr.write(r.stdout)
            raise SystemExit("build failed: %s" % " ".join(cmd))


def driver(args):
    """Run the driver; returns (returncode, parsed JSON records, stderr)."""
    r = subprocess.run([str(DRIVER)] + args, stdout=subprocess.PIPE,
                       stderr=subprocess.PIPE, text=True)
    records = [json.loads(line) for line in r.stdout.splitlines()
               if line.startswith("{")]
    return r.returncode, records, r.stderr


def run_workload(workload, seed, seconds, traced, smoke=False):
    """Capture (if needed) and run one workload; returns driver records."""
    rigs, extra = compose(workload, seed)
    frames = 2 if smoke else extra["frames"]
    if workload == "gpu_dfsl" and smoke:
        frames = 1
    args = ["--rigs=" + ",".join(rigs), "--seconds=%g" % seconds,
            "--traced=%d" % traced, "--frames=%d" % frames,
            "--fb=" + extra.get("fb", "256x192"),
            "--setup-reps=%d" % (1 if smoke else 10),
            "--spans=%s" % (BUILD / ("spans-%s-trace%d.json" % (workload, traced)))]
    if "capture" in extra:
        # Captured once per invocation, in its own process, so neither
        # its time nor its memory lands in the measured run.
        trace_dir = BUILD / "trace" / extra["capture"]
        rc, _, err = driver(["--capture=%s" % trace_dir,
                             "--model=" + extra["capture"],
                             "--frames=%d" % frames])
        if rc != 0:
            sys.stderr.write(err)
            raise SystemExit("trace capture failed")
        args.append("--replay-trace=%s" % trace_dir)
    rc, records, err = driver(args)
    return rc, records, err, rigs


# ----------------------------------------------------------------------
# Aggregation


def med(xs):
    return statistics.median(xs) if xs else 0.0


def ratio(a, b):
    return a / b if b else 0.0


def total(stats, pattern):
    rx = re.compile(pattern)
    return sum(v for k, v in stats.items() if rx.fullmatch(k))


def hit_rate(stats, cache):
    h = total(stats, r"%s\.hits" % cache)
    return ratio(h, h + total(stats, r"%s\.misses" % cache))


def mean_latency_ns(stats, client):
    # DRAM latency distributions are in ticks (1 tick = 1 ps).
    t = total(stats, r"dram\.ch\d+\.read_lat_%s\.total" % client)
    return ratio(t, total(stats, r"dram\.ch\d+\.read_lat_%s\.count" % client)) / 1e3


def best(records, values):
    """Host time of a rig's timed pieces at the quietest moment of a run.

    values(record) lists one rig run's pieces (frames, or the whole run).
    Neighbour load on a shared host slows every piece by a common factor
    that drifts by up to 2x (README.md, "Steadiness"). Each piece's
    median gives the pieces' proportions; the smallest ratio of any
    sample to its piece's median gives the quietest level seen. Pooling
    that ratio over all pieces needs one quiet moment per run, not one
    per piece.
    """
    samples = {}
    for r in records:
        for i, v in enumerate(values(r)):
            samples.setdefault((r["label"], i), []).append(v)
    medians = {k: statistics.median(v) for k, v in samples.items()}
    quiet = min((x / medians[k] for k, v in samples.items() if medians[k] > 0
                 for x in v), default=0.0)
    return quiet * sum(medians.values())


def wall(records):
    return best(records, lambda r: r["slices_s"])


class Run:
    """The records of one driver invocation, grouped and checked."""

    def __init__(self, records, rigs):
        self.rigs = rigs
        self.rig_records = [r for r in records if r["kind"] == "rig"]
        self.attempted = len(self.rig_records)
        self.failures = []
        reference = {}
        for r in self.rig_records:
            first = reference.setdefault(r["label"], r["fp"])
            if r["error"]:
                self.failures.append("%s unit %d: %s" % (r["label"], r["unit"], r["error"]))
            elif r["fp"] != first:
                self.failures.append("%s unit %d: results fingerprint %s != %s"
                                     % (r["label"], r["unit"], r["fp"], first))
            elif r["events"] <= 0 or r["sim_ns"] <= 0:
                self.failures.append("%s unit %d: simulated nothing" % (r["label"], r["unit"]))
        if set(reference) != set(rigs):
            self.failures.append("rigs never run: %s" % sorted(set(rigs) - set(reference)))
        self.trace_hash = next((r["trace_hash"] for r in records if r["kind"] == "trace"), "")
        self.fingerprint = hashlib.sha256(json.dumps(
            [sorted(reference.items()), self.trace_hash]).encode()).hexdigest()[:16]
        self.plain = [r for r in self.rig_records if not r["traced"]]
        self.traced = [r for r in self.rig_records if r["traced"]]
        # Construction is timed in every untraced rig run and in the
        # driver's set-up-only repetitions.
        self.setups = [r for r in records if r["kind"] == "setup"] + self.plain
        self.trace_load = [r["seconds"] for r in records if r["kind"] == "trace_load"]
        self.peak_rss_kb = next((r["kb"] for r in records if r["kind"] == "peak_rss"), 0)

    def end_to_end(self):
        wall_s = wall(self.plain)
        sim_ns = sum({r["label"]: r["sim_ns"] for r in self.plain}.values())
        return {
            "wall_s": (wall_s, "s"),
            "setup_s": (best(self.setups, lambda r: [r["setup_s"]]), "s"),
            "sim_ns_per_s": (ratio(sim_ns, wall_s), "ns/s"),
            "peak_rss_mb": (self.peak_rss_kb / 1024.0, "MB"),
        }

    def per_layer(self):
        """Counts from the first traced run of each rig, host times as in best()."""
        # Full stats trees come with the first run of each rig in each
        # mode; equal fingerprints make every other run's counts equal.
        first = [r for r in self.traced if r["stats"]]
        stats, prof = {}, {}
        for r in first:
            for k, v in r["stats"].items():
                stats[k] = stats.get(k, 0.0) + v
            for k, v in r["profile"].items():
                prof[k] = prof.get(k, 0.0) + v

        def host_s(pattern):
            rx = re.compile(r"(%s)\.wallNs" % pattern)
            return best(self.traced, lambda r: [sum(
                v for k, v in r["profile"].items() if rx.fullmatch(k))]) / 1e9

        def events(pattern):
            return total(prof, r"(%s)\.numProcessed" % pattern)

        kernel_s = best(self.traced, lambda r: [r["run_s"] - sum(
            v for k, v in r["profile"].items() if k.endswith(".wallNs")) / 1e9])
        untraced_wall = wall(self.plain)
        sim_events = sum(r["events"] for r in first)
        core_events = events("gfx")
        tiles = total(stats, r"gfx\.raster_tiles")
        hiz = total(stats, r"gfx\.hiz_rejects")
        warp_instrs = total(stats, r"gpu\.sc\d+\.warp_instrs")
        cycles_active = total(stats, r"gpu\.sc\d+\.cycles_active")
        gpu_host = host_s("gpu")
        caches = [k[:-len(".rejects")] for k in stats
                  if k.endswith(".rejects") and k[:-len(".rejects")] + ".hits" in stats]
        rejects = sum(stats[c + ".rejects"] for c in caches)
        accesses = sum(stats[c + ".hits"] + stats[c + ".misses"] for c in caches)
        links = [k[:-len(".packets")] for k in stats
                 if k.endswith(".packets") and k[:-len(".packets")] + ".retries" in stats]
        packets = sum(stats[l + ".packets"] for l in links)
        retries = sum(stats[l + ".retries"] for l in links)
        row_hits = total(stats, r"dram\.ch\d+\.row_hits")
        row_all = row_hits + total(stats, r"dram\.ch\d+\.row_(conflicts|closed_misses)")
        soc_rigs = [r for r in first if r["gpu_frame_ms"] > 0]
        return {
            "sim.events": (sim_events, "count"),
            "sim.events_per_s": (ratio(sim_events, untraced_wall), "1/s"),
            "sim.kernel_s": (kernel_s, "s"),
            "sim.pool.heap_allocs": (total(stats, r"sim\.pool\.heap_allocs"), "count"),
            "sim.trace_overhead": (ratio(wall(self.traced), untraced_wall), "ratio"),
            "core.host_s": (host_s("gfx"), "s"),
            "core.events": (core_events, "count"),
            "core.raster_tiles": (tiles, "count"),
            "core.hiz_rejects": (hiz, "count"),
            "core.fragments": (total(stats, r"gfx\.fragments"), "count"),
            "core.frag_warps": (total(stats, r"gfx\.frag_warps"), "count"),
            "core.tc_flushes": (total(stats, r"gfx\.tc_flushes"), "count"),
            "core.events_per_tile": (ratio(core_events, tiles + hiz), "ratio"),
            "gpu.host_s": (gpu_host, "s"),
            "gpu.events": (events("gpu"), "count"),
            "gpu.warp_instrs": (warp_instrs, "count"),
            "gpu.cycles_active": (cycles_active, "count"),
            "gpu.stall_no_ready_warp": (total(stats, r"gpu\.sc\d+\.stall_no_ready_warp"), "count"),
            "gpu.lsu_stalls": (total(stats, r"gpu\.sc\d+\.lsu_stalls"), "count"),
            "gpu.ns_per_warp_instr": (ratio(gpu_host * 1e9, warp_instrs), "ns"),
            "gpu.ipc": (ratio(warp_instrs, cycles_active), "ratio"),
            "cache.l1d.hit_rate": (hit_rate(stats, r"gpu\.sc\d+\.l1d"), "ratio"),
            "cache.l1t.hit_rate": (hit_rate(stats, r"gpu\.sc\d+\.l1t"), "ratio"),
            "cache.l2.hit_rate": (hit_rate(stats, r"gpu\.l2"), "ratio"),
            "cache.rejects": (rejects, "count"),
            "cache.rejects_per_access": (ratio(rejects, accesses), "ratio"),
            "noc.packets": (packets, "count"),
            "noc.retries": (retries, "count"),
            "noc.retry_ratio": (ratio(retries, packets), "ratio"),
            "mem.dram.host_s": (host_s("dram"), "s"),
            "mem.dash.host_s": (host_s("dash"), "s"),
            "mem.dram.events": (events("dram"), "count"),
            "mem.dash.events": (events("dash"), "count"),
            "mem.row_hit_rate": (ratio(row_hits, row_all), "ratio"),
            "mem.bytes_read": (total(stats, r"dram\.ch\d+\.bytes_read"), "B"),
            "mem.bytes_written": (total(stats, r"dram\.ch\d+\.bytes_written"), "B"),
            "mem.read_lat_gpu_ns": (mean_latency_ns(stats, "gpu"), "ns"),
            "mem.read_lat_display_ns": (mean_latency_ns(stats, "display"), "ns"),
            "mem.read_lat_npu_ns": (mean_latency_ns(stats, "npu"), "ns"),
            "mem.trace_load_s": (min(self.trace_load, default=0.0), "s"),
            "soc.cpu.host_s": (host_s(r"cpu\d+"), "s"),
            "soc.display.host_s": (host_s("display"), "s"),
            "soc.replay.host_s": (host_s("replay"), "s"),
            "soc.display.underruns": (total(stats, r"display\.underruns"), "count"),
            "soc.display.frames_aborted": (total(stats, r"display\.frames_aborted"), "count"),
            "soc.gpu_frame_ms": (med([r["gpu_frame_ms"] for r in soc_rigs]), "ms"),
            "soc.total_frame_ms": (med([r["total_frame_ms"] for r in soc_rigs]), "ms"),
            "npu.host_s": (host_s(r"npu(\.\w+)?"), "s"),
            "npu.dma.bytes_written": (total(stats, r"npu\.dma\.bytes_written"), "B"),
            "npu.dma.transfers": (total(stats, r"npu\.dma\.transfers"), "count"),
            "npu.cam.deadline_misses": (total(stats, r"npu\.cam\.deadline_misses"), "count"),
            "scenes.build_s": (best(self.setups, lambda r: [r["scene_s"]]), "s"),
        }

    def layer_shares(self, m):
        """Host self time per layer in the traced run, largest first."""
        layers = {
            "core": m["core.host_s"][0],
            "gpu": m["gpu.host_s"][0],
            "mem": m["mem.dram.host_s"][0] + m["mem.dash.host_s"][0],
            "soc": m["soc.cpu.host_s"][0] + m["soc.display.host_s"][0]
                   + m["soc.replay.host_s"][0],
            "npu": m["npu.host_s"][0],
            "sim": m["sim.kernel_s"][0],
        }
        whole = sum(layers.values()) or 1.0
        return sorted(((v / whole, k, v) for k, v in layers.items()), reverse=True)


def report(workload, seed, run, metrics, traced):
    print("workload %s seed %d: %d rig runs, %d failed"
          % (workload, seed, run.attempted, len(run.failures)))
    print("rigs: %s" % ", ".join(run.rigs))
    print("fingerprint %s %s" % (workload, run.fingerprint))
    for f in run.failures:
        print("FAILED: " + f)
    if traced:
        print("layer shares of traced host time (ranked, not asserted):")
        for share, name, secs in run.layer_shares(metrics):
            print("  %-5s %6.1f%%  %.4f s" % (name, share * 100, secs))
    for name, (value, unit) in metrics.items():
        print("  %-26s %16.6g %s" % (name, value, unit))


def measure(workload, seed, seconds, traced):
    rc, records, err, rigs = run_workload(workload, seed, seconds, traced)
    run = Run(records, rigs)
    if rc != 0:
        # The driver died (fatal, crash): the rig in flight failed and no
        # metric can be trusted.
        sys.stderr.write(err)
        print(json.dumps({"correct": False, "attempted": run.attempted + 1,
                          "failed": len(run.failures) + 1, "metrics": {}}))
        return 1
    sys.stderr.write(err)
    values = run.per_layer() if traced else run.end_to_end()
    report(workload, seed, run, values, traced)
    print(json.dumps({
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in values.items()},
    }))
    return 0


def self_test():
    """Smoke every workload: metric names and units, repeatability."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for w in (x["name"] for x in spec["workloads"]):
        runs = []
        for traced in (0, 1, 1):
            rc, records, err, rigs = run_workload(w, 0, 0, traced, smoke=True)
            if rc != 0:
                sys.stderr.write(err)
                problems.append("%s: driver exited %d" % (w, rc))
                break
            run = Run(records, rigs)
            problems += ["%s: %s" % (w, f) for f in run.failures]
            runs.append((traced, run, run.per_layer() if traced else run.end_to_end()))
        if len(runs) < 3:
            continue
        for traced, _, values in runs:
            wanted = spec["per_layer" if traced else "end_to_end"]
            for m in wanted:
                if m["name"] not in values:
                    problems.append("%s: metric %s missing" % (w, m["name"]))
                elif values[m["name"]][1] != m["unit"]:
                    problems.append("%s: metric %s has unit %s, not %s"
                                    % (w, m["name"], values[m["name"]][1], m["unit"]))
        fps = {run.fingerprint for _, run, _ in runs}
        if len(fps) != 1:
            problems.append("%s: fingerprints differ across smoke runs: %s" % (w, sorted(fps)))
        counts = [{k: v for k, (v, u) in values.items() if u in ("count", "B")}
                  for traced, _, values in runs if traced]
        if counts[0] != counts[1]:
            diff = sorted(k for k in counts[0] if counts[0][k] != counts[1].get(k))
            problems.append("%s: per-layer counts differ: %s" % (w, diff))
        print("self-test %s: fingerprint %s" % (w, runs[0][1].fingerprint))
    for p in problems:
        print("SELF-TEST FAILED: " + p)
    print("self-test %s" % ("failed" if problems else "passed"))
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=("soc_highload", "gpu_dfsl", "mem_replay_npu"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    a = ap.parse_args()
    build()
    if a.self_test:
        return self_test()
    if not a.workload:
        ap.error("--workload is required")
    return measure(a.workload, a.seed, a.seconds, a.trace)


if __name__ == "__main__":
    sys.exit(main())
