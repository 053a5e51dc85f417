#!/usr/bin/env python3
"""Host-performance benchmark of the DAOS simulator.

Run from the repository root:

    python3 perfbench/run.py --workload dfs_fpp_bulk --seed 61793 --seconds 35 --trace 0

Builds the `perfbench` worker (release, offline) into $CARGO_TARGET_DIR
(default `.bench_build`), then starts one worker process per run of the
workload, one after another, until `--seconds` have passed. A process per
run keeps caches, the checksum memo included, cold in every run, as they
are for users, and makes `peak_rss_mib` one workload's peak.

With `--trace 0` it prints the end-to-end metrics: medians over the runs,
except `setup_s`, the fastest of all the set-ups the runs timed.
With `--trace 1` one traced worker reads every layer's counters and times
the layers' public functions on the workload's shapes; untraced runs fill
the rest of the time and give the tracing overhead.

Every run passes the output gate in `src/gate.rs` or counts as failed.
The last line of stdout is one JSON object; the exit code is 0 only if
every run passed.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
# The worker resolves the seed `default` to the workload's recorded seed.
WORKLOADS = ["dfs_fpp_bulk", "hdf5_shared_small", "overload_s1"]
# A worker runs one workload once; the slowest takes about 8 s.
WORKER_TIMEOUT_S = 120

END_TO_END_UNITS = {
    "run_s": "s",
    "write_s": "s",
    "read_s": "s",
    "setup_s": "s",
    "sim_ops_per_host_s": "1/s",
    "peak_rss_mib": "MiB",
}
PER_LAYER_UNITS = {
    "traced.run_s": "s",
    "trace.overhead_pct": "%",
    "vos.csum_ns_per_mib": "ns/MiB",
    "vos.extent_insert_ns": "ns",
    "vos.extent_read_ns": "ns",
    "sim.tasks": "count",
    "sim.host_ns_per_task": "ns",
    "sim.spawn_ns": "ns",
    "sim.timer_ns": "ns",
    "sim.pipe_transfer_ns": "ns",
    "fabric.rpcs": "count",
    "fabric.host_ns_per_rpc": "ns",
    "fabric.tx_bytes": "B",
    "dfuse.requests": "count",
    "hdf5.shim_host_s": "s",
    "core.engine.admitted": "count",
    "core.engine.shed": "count",
    "core.client.retries": "count",
    "core.client.breaker_fastfail": "count",
    "vos.updates": "count",
    "vos.fetches": "count",
    "vos.index_ops": "count",
    "media.write_ops": "count",
    "media.read_ops": "count",
    "raft.commit_ns": "ns",
    "placement.place_ns": "ns",
}


def build():
    """Build the worker; return its path, or None if the build failed."""
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(HERE / "Cargo.toml")]
    try:
        done = subprocess.run(cmd, env=dict(os.environ, CARGO_TARGET_DIR=target),
                              stdout=sys.stderr, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return None
    if done.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return None
    return Path(target) / "release" / "perfbench"


def worker(binary, mode, workload, seed):
    """Run one worker; return its JSON record, or None if it crashed."""
    try:
        done = subprocess.run([str(binary), mode, workload, str(seed)],
                              stdout=subprocess.PIPE, text=True,
                              timeout=WORKER_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: {mode} {workload} {seed}: {e}", file=sys.stderr)
        return None
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        print(f"perfbench: {mode} {workload} {seed}: exit {done.returncode}",
              file=sys.stderr)
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        print(f"perfbench: unreadable worker output: {lines[-1]!r}", file=sys.stderr)
        return None


class Tally:
    """Runs attempted and failed; a run fails if its worker crashed, its
    outputs missed the gate, or they differ from the invocation's first
    run (same seed, so the simulation must repeat exactly)."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.outputs = None

    def passed(self, rec):
        self.attempted += 1
        reason = None
        if rec is None:
            reason = "worker failed"
        elif not rec["ok"]:
            reason = rec["error"]
        elif self.outputs is not None and rec["outputs"] != self.outputs:
            reason = f"outputs {rec['outputs']} differ from {self.outputs}"
        if reason:
            self.failed += 1
            print(f"perfbench: failed run: {reason}", file=sys.stderr)
            return False
        self.outputs = self.outputs or rec["outputs"]
        return True


def untraced_runs(binary, workload, seed, seconds, start, tally):
    """Untraced runs until `seconds` have passed since `start` (at least one)."""
    runs = []
    while True:
        rec = worker(binary, "run", workload, seed)
        if tally.passed(rec):
            runs.append(rec)
        if time.monotonic() - start >= seconds:
            return runs


def end_to_end(runs):
    med = lambda k: statistics.median(r[k] for r in runs)
    return {
        "run_s": med("run_s"),
        "write_s": med("write_s"),
        "read_s": med("read_s"),
        # The fastest of every set-up timed: one set-up takes milliseconds
        # and other work on the host stretches many of them, for seconds
        # at a time, by up to half; the fastest is the set-up's own cost.
        "setup_s": min(s for r in runs for s in r["setup_s"]),
        "sim_ops_per_host_s": statistics.median(r["ops"] / r["run_s"] for r in runs),
        "peak_rss_mib": med("peak_rss_mib"),
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=None,
                    help="workload seed (default: the recorded cell's seed)")
    ap.add_argument("--seconds", type=int, default=35)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    seed = "default" if args.seed is None else args.seed
    if not (seed == "default" or 0 <= seed < 2**64) or args.seconds < 1:
        ap.error("--seed must fit in 64 unsigned bits and --seconds be positive")

    binary = build()
    if binary is None:
        return 1

    start = time.monotonic()
    tally = Tally()
    if args.trace:
        traced = worker(binary, "trace", args.workload, seed)
        traced_ok = tally.passed(traced)
        runs = untraced_runs(binary, args.workload, seed, args.seconds, start, tally)
        metrics = {}
        if traced_ok and runs:
            metrics = {k: traced[k] for k in PER_LAYER_UNITS if k in traced}
            base = statistics.median(r["run_s"] for r in runs)
            metrics["trace.overhead_pct"] = (traced["traced.run_s"] / base - 1) * 100
        units = PER_LAYER_UNITS
    else:
        runs = untraced_runs(binary, args.workload, seed, args.seconds, start, tally)
        metrics = end_to_end(runs) if runs else {}
        units = END_TO_END_UNITS

    correct = tally.failed == 0 and len(metrics) == len(units)
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
