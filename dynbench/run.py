#!/usr/bin/env python3
"""Benchmark of the dynmds simulator: builds `dynbench` from source and runs
one workload, printing the result as one JSON object on the last line.

    python3 dynbench/run.py --workload NAME|all [--seed N] [--seconds S] [--trace 0|1]

Run it from the repository root. `--trace 0` runs the workload untraced and
reports the end-to-end metrics; `--trace 1` runs it once traced, in its own
process, plus the untraced comparison runs, and reports the per-layer
metrics. Every run checks the simulated output; a failed check prints
`"correct": false` and exits 1. See dynbench/README.md.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time

WORKLOADS = ["paper_general", "scale_stat", "diurnal_elastic", "write_storms"]
DEFAULT_SEED = 42
# A run must end within this many seconds (builds excepted).
DEADLINE_S = 170.0

END_TO_END = [
    ("sim_ops_per_s", "1/s"),
    ("total_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
]


def fail(msg):
    print(f"dynbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build(bench_dir):
    """Builds the benchmark binary; returns its path."""
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = [
        "cargo", "build", "--release", "--offline", "--locked",
        "--manifest-path", os.path.join(bench_dir, "Cargo.toml"),
    ]
    # Cargo's progress goes to stderr so stdout carries only results.
    done = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if done.returncode != 0:
        fail("build failed")
    return os.path.join(os.path.abspath(target), "release", "dynbench")


class Runner:
    def __init__(self, binary, workload, seed, started):
        self.binary = binary
        self.workload = workload
        self.seed = seed
        self.started = started

    def run(self, seconds, mode="plain", threads=None, reference=False):
        """Runs one benchmark process; returns its JSON record."""
        cmd = [self.binary, "--workload", self.workload, "--seed", str(self.seed),
               "--seconds", f"{seconds}", "--mode", mode]
        if threads is not None:
            cmd += ["--threads", str(threads)]
        if reference:
            cmd.append("--reference")
        left = DEADLINE_S - (time.monotonic() - self.started)
        if left <= 0:
            fail("out of time before a sub-run")
        try:
            done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                                  text=True, timeout=left)
        except subprocess.TimeoutExpired:
            fail(f"{mode} run exceeded the {DEADLINE_S:.0f}s deadline")
        lines = done.stdout.strip().splitlines()
        if done.returncode not in (0, 1) or not lines:
            fail(f"{mode} run exited with code {done.returncode}")
        record = json.loads(lines[-1])
        print(json.dumps(record, sort_keys=True))
        return record


def metric(value, unit):
    return {"value": value, "unit": unit}


def untraced(runner, seconds):
    rec = runner.run(seconds, reference=True)
    for name, unit in END_TO_END:
        print(f"{runner.workload}: {name} {rec[name]:.6g} {unit}")
    print(f"{runner.workload}: ops_attempted {rec['ops_attempted']} ops_failed {rec['ops_failed']}")
    metrics = {name: metric(rec[name], unit) for name, unit in END_TO_END}
    return [rec], metrics


def traced(runner, seconds):
    """The traced process plus the untraced runs its ratios compare with."""
    # Half the budget to the traced run, a quarter to each untraced one,
    # so a traced invocation takes about as long as an untraced one.
    trace = runner.run(seconds / 2, mode="traced")
    plain = runner.run(seconds / 4, reference=True)
    records = [trace, plain]
    metrics = {k: metric(v["value"], v["unit"]) for k, v in trace["layers"].items()}

    # Rate of the untraced run over the rate of another run of the same
    # seed. Both simulate the same ops, so this is the other run's host
    # time over the untraced run's. A comparison that does not apply to
    # the workload's engine reads 0.
    def versus(**run_args):
        rec = runner.run(seconds / 4, **run_args)
        records.append(rec)
        return plain["sim_ops_per_s"] / rec["sim_ops_per_s"]

    ratios = {"parallel.speedup_vs_1t": 0.0, "obs.metrics_overhead": 0.0,
              "obs.trace_overhead": 0.0}
    ratios["trace.overhead"] = plain["sim_ops_per_s"] / trace["sim_ops_per_s"]
    if plain["shards"] > 1:
        ratios["parallel.speedup_vs_1t"] = versus(threads=1)
    else:
        ratios["obs.metrics_overhead"] = versus(mode="obs-metrics")
        ratios["obs.trace_overhead"] = versus(mode="obs-trace")
    for name, value in ratios.items():
        metrics[name] = metric(value, "ratio")
    for name in sorted(metrics):
        print(f"{runner.workload}: {name} {metrics[name]['value']:.6g} {metrics[name]['unit']}")
    return records, metrics


def main():
    # On SIGTERM, unwind: subprocess.run then kills and reaps its child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if args.seconds <= 0:
        fail("--seconds must be positive")

    bench_dir = os.path.dirname(os.path.abspath(__file__))
    binary = build(bench_dir)
    measure = traced if args.trace else untraced
    if args.workload == "all":
        # Every workload in turn, metrics prefixed with the workload name.
        # The per-run deadline applies to each workload separately.
        records, metrics = [], {}
        for workload in WORKLOADS:
            runner = Runner(binary, workload, args.seed, time.monotonic())
            recs, ms = measure(runner, args.seconds)
            records += recs
            metrics.update({f"{workload}.{k}": v for k, v in ms.items()})
    else:
        runner = Runner(binary, args.workload, args.seed, time.monotonic())
        records, metrics = measure(runner, args.seconds)

    errors = [e for r in records for e in r["errors"]]
    for workload in WORKLOADS:
        digests = {r["digest"] for r in records if r["workload"] == workload}
        if len(digests) > 1:
            errors.append(f"{workload}: simulated output differs between runs of one seed")
    correct = not errors
    attempted = sum(r["ops_attempted"] for r in records)
    failed = sum(r["ops_failed"] for r in records) if correct else attempted
    for e in errors:
        print(f"dynbench: CHECK FAILED: {e}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
