#!/usr/bin/env python3
"""Repository benchmark: builds perfbench_driver from source and runs one
workload, or all of them.

One run (the form commit-to-commit comparisons use), from the repository root:

    python3 perfbench/run.py --workload hot_oltp --seed 1 --seconds 10 --trace 0

prints every measured metric by name with its unit, then, as the last line
of stdout, one JSON object:

    {"correct": true, "attempted": N, "failed": N, "metrics": {name: {"value": v, "unit": u}}}

holding the end-to-end metrics (--trace 0) or the per-layer metrics
(--trace 1). A failed correctness check prints "correct": false with no
metrics and exits 1.

Everything at once (all workloads, untraced and traced; rewrites
BENCHMARK.json from the tables below):

    python3 perfbench/run.py --all [--seed 1] [--seconds 10]

The build goes to $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench).
See perfbench/README.md for what the workloads and metrics mean.
"""

import argparse
import fcntl
import json
import math
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC_CMAKE = os.path.join(HERE, "..", "src", "CMakeLists.txt")
RUN_SECONDS = 10
DRIVER_TIMEOUT_S = 170

WORKLOADS = [
    ("hot_oltp",
     "real threads, open loop at 3k txn/s on 768 hot items: per-transaction "
     "fixed costs (mailbox handoffs, executor, 2PC, lock queues, deadlock "
     "sweeps) dominate"),
    ("scan_large",
     "real threads, open loop at 1.5k txn/s on 393k items in 12 partitions: "
     "long scans at old versions over a table far larger than L2, with GC "
     "sweeps and checkpoint clones beside them"),
    ("des_hot",
     "the hot_oltp mix on the deterministic simulator with history "
     "recording and both serializability oracles: engine CPU cost with no "
     "scheduler noise"),
]

# (name, unit, better, bound). Bounds are shares of the parent's median.
# Only figures that hold still between runs on a shared VM are gated (plus
# the required set-up time); latency, CPU cost and staleness follow the
# host and are reported in PER_LAYER (README.md has the measured spreads).
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("commit_per_s", "1/s", "higher", 0.1),
    ("peak_rss_mb", "MB", "lower", 0.1),
]

# (name, unit, better, what it should move: end-to-end metric on workload).
PER_LAYER = [
    # End-to-end figures too unsteady to gate on a shared VM, or 0 when
    # healthy (see README.md); taken from the traced run's untraced phase.
    ("update_iqm_us", "us", "lower", "end-to-end, ungated"),
    ("query_iqm_us", "us", "lower", "end-to-end, ungated"),
    ("cpu_us_per_commit", "us", "lower", "end-to-end, ungated"),
    ("staleness_p50_ms", "ms", "lower", "end-to-end, ungated"),
    ("update_p99_us", "us", "lower", "end-to-end, ungated"),
    ("query_p99_us", "us", "lower", "end-to-end, ungated"),
    ("failed_share", "ratio", "lower", "end-to-end, ungated (0 when healthy)"),
    ("max_rate_in_slo_per_s", "1/s", "higher",
     "end-to-end capacity, ungated; 0 when no rate meets the SLO"),
    ("ramp.collapses", "count", "lower",
     "ramp steps that hit the backlog bound; max_rate_in_slo_per_s"),
    ("runtime.closures_per_commit", "per_commit", "lower",
     "cpu_us_per_commit, update_iqm_us on hot_oltp"),
    ("runtime.msgs_per_commit", "per_commit", "lower",
     "cpu_us_per_commit, update_iqm_us on hot_oltp"),
    ("runtime.node_busy_max", "ratio", "lower",
     "max_rate_in_slo_per_s on hot_oltp; update_p99_us on scan_large"),
    ("runtime.service_busy", "ratio", "lower",
     "max_rate_in_slo_per_s, failed_share on hot_oltp"),
    ("runtime.world_stop_p99_us", "us", "lower", "update_p99_us on hot_oltp"),
    ("sim.events_per_commit", "per_commit", "lower",
     "commit_per_s on des_hot"),
    ("sim.events_per_s", "1/s", "higher", "commit_per_s on des_hot"),
    ("sim.msgs_per_commit", "per_commit", "lower", "commit_per_s on des_hot"),
    ("engine.submit_p50_ns", "ns", "lower",
     "driver.late_p99_us, update_iqm_us on hot_oltp"),
    ("engine.twopc_mean_us", "us", "lower", "update_iqm_us on hot_oltp"),
    ("engine.twopc_p99_us", "us", "lower", "update_p99_us on hot_oltp"),
    ("engine.commit_apply_mean_us", "us", "lower",
     "update_iqm_us on hot_oltp"),
    ("engine.aborts_per_1k", "per_1k_commits", "lower",
     "failed_share on hot_oltp"),
    ("lock.acquires_per_commit", "per_commit", "lower",
     "cpu_us_per_commit on hot_oltp"),
    ("lock.wait_ratio", "ratio", "lower",
     "update_p99_us, max_rate_in_slo_per_s on hot_oltp"),
    ("lock.wait_mean_us", "us", "lower",
     "update_p99_us, max_rate_in_slo_per_s on hot_oltp"),
    ("lock.deadlocks_per_1k", "per_1k_commits", "lower",
     "failed_share on hot_oltp"),
    ("storage.read_p50_ns", "ns", "lower",
     "query_iqm_us, cpu_us_per_commit on scan_large"),
    ("storage.gc_sweep_ms", "ms", "lower", "update_p99_us on scan_large"),
    ("storage.versions_per_item", "ratio", "lower",
     "peak_rss_mb on scan_large"),
    ("storage.max_live_versions", "count", "lower",
     "correctness: must be <= 3"),
    ("log.checkpoint_clone_ms", "ms", "lower",
     "update_p99_us, query_p99_us on scan_large"),
    ("log.records_per_commit", "per_commit", "lower", "cpu_us_per_commit"),
    ("ava3.advancements_per_s", "1/s", "higher",
     "staleness_p50_ms on scan_large"),
    ("ava3.advance_p50_us", "us", "lower", "staleness_p50_ms on scan_large"),
    ("ava3.phase2_p99_us", "us", "lower", "staleness_p50_ms on scan_large"),
    ("ava3.mtf_per_1k", "per_1k_commits", "lower",
     "cpu_us_per_commit on hot_oltp"),
    ("ava3.latch_ops_per_commit", "per_commit", "lower",
     "cpu_us_per_commit on hot_oltp"),
    ("ava3.background_busy", "ratio", "lower", "update_p99_us on scan_large"),
    ("cluster.partition_ops_skew", "ratio", "lower",
     "update_p99_us on scan_large"),
    ("workload.gen_p50_ns", "ns", "lower",
     "driver.late_p99_us: validity of every open-loop figure"),
    ("driver.late_p99_us", "us", "lower",
     "validity of every open-loop figure (0 on des_hot)"),
    ("host.sleep_late_p99_us", "us", "lower",
     "host jitter floor under every wall-clock p99"),
    ("host.steal_share", "ratio", "lower",
     "CPU the hypervisor took from this VM; wall-clock noise"),
    ("verify.oracle_s", "s", "lower", "cost of the correctness gate"),
    ("stage.queue_mean_us", "us", "lower", "update_iqm_us, query_iqm_us"),
    ("stage.exec_mean_us", "us", "lower", "update_iqm_us, query_iqm_us"),
    ("stage.lock_wait_mean_us", "us", "lower", "update_iqm_us"),
    ("stage.twopc_mean_us", "us", "lower", "update_iqm_us"),
    ("stage.commit_apply_mean_us", "us", "lower", "update_iqm_us"),
    ("stage.latency_mean_us", "us", "lower",
     "sum of the stage means: the traced run's mean latency"),
    ("stage.attributed_share", "ratio", "higher",
     "share of committed txns the stage split covers"),
    ("trace.overhead_ratio", "ratio", "lower",
     "traced / untraced cpu_us_per_commit"),
    ("trace.dropped", "count", "lower", "trace events lost to ring overflow"),
]

# Printed by every run that measures them, but kept out of the result
# line: each reads the same on every run of some workload (a median on an
# atom of the simulator's latency model, or 0 by construction).
PRINTED_ONLY = [
    ("update_p50_us", "us", "150 on des_hot for every seed"),
    ("query_p50_us", "us", "285 on des_hot for every seed"),
    ("engine.twopc_p50_us", "us", "most updates are single-node: 0-2"),
    ("engine.commit_apply_p50_us", "us", "the loopback latency on des_hot"),
    ("lock.wait_p99_us", "us", "0 when under 1% of updates wait"),
    ("stage.queue_p50_us", "us", "the loopback latency on des_hot"),
    ("stage.exec_p50_us", "us", ""),
    ("stage.lock_wait_p50_us", "us", "0: most transactions never wait"),
    ("stage.twopc_p50_us", "us", "0-2: most updates are single-node"),
    ("stage.commit_apply_p50_us", "us", "the loopback latency on des_hot"),
    ("stage.callback_p50_us", "us", "0 by construction, see README.md"),
    ("stage.callback_mean_us", "us", "0 by construction, see README.md"),
    ("ramp.collapse_s", "s", "absent when no ramp step collapses"),
    ("sim.commits_per_wall_s", "1/s", "des_hot untraced: simulator speed"),
]

def manifest():
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": x}
                       for n, u, b, x in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b}
                      for n, u, b, _ in PER_LAYER],
    }


def build_dir():
    root = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.abspath(os.path.join(root, "perfbench"))


def build():
    """Configures and builds the driver; returns its path."""
    if not os.path.exists(SRC_CMAKE):
        sys.exit("perfbench: the repository sources (src/) are missing; "
                 "run from the root of a full checkout")
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
            cmd = ["cmake", "-S", HERE, "-B", out,
                   "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            subprocess.run(cmd, check=True, stdout=sys.stderr)
        jobs = str(min(4, os.cpu_count() or 1))
        subprocess.run(["cmake", "--build", out, "-j", jobs], check=True,
                       stdout=sys.stderr)
    return os.path.join(out, "perfbench_driver")


def run_driver(binary, workload, seed, seconds, trace):
    """Runs one workload; returns the driver's result object (or None)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--out-dir", build_dir()]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {workload} exceeded {DRIVER_TIMEOUT_S} s",
              file=sys.stderr)
        return None
    lines = proc.stdout.rstrip().splitlines()
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        print(f"perfbench: {workload} printed no result "
              f"(exit {proc.returncode})", file=sys.stderr)
        return None
    if proc.returncode != 0 or not result.get("correct"):
        for err in result.get("errors", []):
            print(f"perfbench: check failed: {err}", file=sys.stderr)
        result["correct"] = False
    return result


def check_metrics(result, table):
    """Every metric of `table` must be present and finite."""
    ok = True
    for name, *_ in table:
        v = result["metrics"].get(name)
        if v is None or not math.isfinite(v):
            print(f"perfbench: metric {name} missing or not finite",
                  file=sys.stderr)
            ok = False
    return ok


def print_metrics(result):
    units = {n: u for n, u, *_ in END_TO_END + PER_LAYER + PRINTED_ONLY}
    for name, value in sorted(result["metrics"].items()):
        print(f"  {name:32s} {value:16.6g} {units.get(name, '')}")
    for name, value in sorted(result.get("info", {}).items()):
        print(f"  ({name} {value:g})")


def one_run(args):
    table = PER_LAYER if args.trace else END_TO_END
    result = run_driver(build(), args.workload, args.seed, args.seconds,
                        args.trace)
    if result is None:
        return 1
    print(f"{args.workload} seed {args.seed} "
          f"{'traced' if args.trace else 'untraced'}: "
          f"{result['attempted']} submitted, {result['failed']} failed")
    print_metrics(result)
    correct = result["correct"] and check_metrics(result, table)
    out = {"correct": correct,
           "attempted": max(1, int(result["attempted"])),
           "failed": int(result["failed"]),
           "metrics": {}}
    if correct:
        out["metrics"] = {n: {"value": result["metrics"][n], "unit": u}
                          for n, u, *_ in table}
    print(json.dumps(out))
    return 0 if correct else 1


def run_all(args):
    binary = build()
    failed = False
    for workload, why in WORKLOADS:
        for trace in (False, True):
            print(f"== {workload} ({'traced' if trace else 'untraced'}): "
                  f"{why}")
            start = time.time()
            result = run_driver(binary, workload, args.seed, args.seconds,
                                trace)
            if result is None or not result["correct"]:
                failed = True
                continue
            table = PER_LAYER if trace else END_TO_END
            failed |= not check_metrics(result, table)
            print_metrics(result)
            print(f"  ({time.time() - start:.1f} s)")
    print("== layer -> end-to-end map")
    for name, unit, better, moves in PER_LAYER:
        print(f"  {name:32s} ({unit}, {better} is better) -> {moves}")
    path = os.path.join(HERE, "..", "BENCHMARK.json")
    with open(path, "w") as f:
        json.dump(manifest(), f, indent=2)
        f.write("\n")
    print(f"wrote {os.path.relpath(path)}")
    return 1 if failed else 0


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=[w for w, _ in WORKLOADS])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=RUN_SECONDS)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--all", action="store_true",
                   help="run every workload untraced and traced")
    args = p.parse_args()
    if args.all:
        return run_all(args)
    if not args.workload:
        p.error("--workload or --all is required")
    return one_run(args)


if __name__ == "__main__":
    sys.exit(main())
