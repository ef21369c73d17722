#!/usr/bin/env python3
"""Builds and runs the nbq benchmark described by BENCHMARK.json.

Run from the repository root:

    python3 perfbench/run.py --workload lane-mix --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-check

A run builds the `nbq-perfbench` package (its own Cargo workspace, with a
path dependency on the repository) in release mode, runs one workload and
passes its output through. The last line of standard output is the result
object; it is checked here against the metric names and units that
BENCHMARK.json declares. `--self-check` runs every workload briefly, in
both modes, and checks that the output checker rejects tampered output.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MANIFEST = os.path.join(HERE, "Cargo.toml")
SPEC = os.path.join(ROOT, "BENCHMARK.json")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    """Builds the benchmark and returns the path of its executable."""
    try:
        r = subprocess.run(
            ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST],
            stdout=sys.stderr,
            timeout=BUILD_TIMEOUT_S,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if r.returncode != 0:
        fail("build failed")
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    return os.path.join(os.path.abspath(target), "release", "nbq-perfbench")


def host_line():
    try:
        rustc = subprocess.run(
            ["rustc", "--version"], capture_output=True, text=True, timeout=30
        ).stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        rustc = "unknown"
    return json.dumps({"host": {"nproc": os.cpu_count(), "rustc": rustc, "features": "default"}})


def load_spec():
    try:
        with open(SPEC) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read {SPEC}: {e}")


def run_once(exe, workload, seed, seconds, trace, trace_out=None):
    """Runs one workload; returns (stdout lines, parsed result)."""
    cmd = [exe, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    if trace_out:
        cmd += ["--trace-out", trace_out]
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = r.stdout.splitlines()
    if r.returncode != 0 or not lines:
        fail(f"{workload} exited with code {r.returncode}")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail(f"{workload}: last line is not a result object")
    return lines, result


def check_result(result, spec, trace):
    """The result has exactly the declared keys and metrics, with units."""
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"result keys are {sorted(result)}")
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    want = {m["name"]: m["unit"] for m in declared}
    got = {k: v.get("unit") for k, v in result["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        wrong = sorted(k for k in set(want) & set(got) if want[k] != got[k])
        fail(f"metrics differ from BENCHMARK.json: missing {missing}, extra {extra}, "
             f"wrong unit {wrong}")
    for k, v in result["metrics"].items():
        if not isinstance(v.get("value"), (int, float)):
            fail(f"metric {k} has no numeric value")


def self_check(exe, spec):
    r = subprocess.run([exe, "--check-selftest"], timeout=RUN_TIMEOUT_S)
    if r.returncode != 0:
        fail("the output checker accepted tampered output")
    for w in spec["workloads"]:
        for trace in (0, 1):
            _, result = run_once(exe, w["name"], 1, 1, trace)
            check_result(result, spec, trace)
            if not result["correct"] or result["failed"] != 0:
                fail(f"{w['name']} (trace {trace}) failed its correctness checks: {result}")
            print(f"self-check: {w['name']} trace={trace}: {len(result['metrics'])} metrics ok")
    print("self-check: ok")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-check", action="store_true")
    args = ap.parse_args()
    spec = load_spec()
    exe = build()
    if args.self_check:
        self_check(exe, spec)
        return
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        fail(f"--workload must be one of {names}")
    trace_out = None
    if args.trace:
        trace_out = os.path.join(os.path.dirname(os.path.dirname(exe)),
                                 f"perfbench-spans-{args.workload}.tsv")
    lines, result = run_once(exe, args.workload, args.seed, args.seconds, args.trace, trace_out)
    check_result(result, spec, args.trace)
    print(host_line())
    for line in lines:
        print(line)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
