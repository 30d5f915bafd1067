#!/usr/bin/env python3
"""End-to-end WiTAG exchange benchmark: build, run one workload, report.

Usage (from the repository root):

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --selftest

The first form builds the witag_perfbench binary from source if needed (into
.bench_build/perfbench), runs one workload and prints, as the last line
of stdout, one JSON object with the keys correct, attempted, failed and
metrics ({name: {"value": v, "unit": u}}). --trace 0 reports the
end-to-end metrics; --trace 1 runs the traced replay and reports the
per-layer metrics, writing its spans to .bench_build/perfbench/spans/.
The exit status is non-zero when the build fails, an operation fails or
a correctness check fails.

--selftest runs every workload at smoke-test size in both modes and
checks that each named metric appears with its unit and that every
check passes.

Metric names, units, directions, time bases, layers and the workloads
each one speaks for live in perfbench/metrics.json.
"""

import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "witag_perfbench")
RUN_TIMEOUT_S = 170


def load_registry():
    with open(os.path.join(HERE, "metrics.json")) as f:
        return json.load(f)


def build():
    """Configures (once) and builds witag_perfbench; False when either fails."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "witag_perfbench",
                  "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only the result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("perfbench: build step failed: " + " ".join(cmd),
                  file=sys.stderr)
            return False
    return True


def run_binary(workload, seed, seconds, trace, tiny=False):
    """Runs one workload; returns (exit status, parsed result or None)."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if tiny:
        cmd.append("--tiny")
    if trace:
        spans_dir = os.path.join(BUILD_DIR, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        cmd += ["--spans-out",
                os.path.join(spans_dir, "%s-%s.jsonl" % (workload, seed))]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: %s timed out" % workload, file=sys.stderr)
        return 1, None
    lines = proc.stdout.strip().splitlines()
    if not lines:
        return proc.returncode or 1, None
    try:
        return proc.returncode, json.loads(lines[-1])
    except json.JSONDecodeError:
        print("perfbench: unparsable result: " + lines[-1], file=sys.stderr)
        return 1, None


def attach_units(result, expected):
    """Maps {name: value} to {name: {value, unit}} in registry order.

    Returns None when the binary's metric set is not exactly `expected`.
    """
    got = result["metrics"]
    names = [m["name"] for m in expected]
    if set(got) != set(names):
        print("perfbench: metric set mismatch; missing %s, unexpected %s" % (
            sorted(set(names) - set(got)), sorted(set(got) - set(names))),
            file=sys.stderr)
        return None
    return {m["name"]: {"value": got[m["name"]], "unit": m["unit"]}
            for m in expected}


def run(args):
    registry = load_registry()
    if args.workload not in registry["workloads"]:
        print("perfbench: unknown workload %r (have %s)" % (
            args.workload, ", ".join(registry["workloads"])), file=sys.stderr)
        return 2
    if not build():
        return 1
    status, result = run_binary(args.workload, args.seed, args.seconds,
                                args.trace)
    if result is None:
        return status or 1
    expected = registry["per_layer" if args.trace else "end_to_end"]
    metrics = attach_units(result, expected)
    if metrics is None:
        return 1
    print(json.dumps({"correct": bool(result["correct"]),
                      "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]),
                      "metrics": metrics}))
    return 0 if status == 0 and result["correct"] else 1


def check_benchmark_json(registry):
    """BENCHMARK.json must mirror the registry's names, units and bounds."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return ["BENCHMARK.json is missing"]
    with open(path) as f:
        bench = json.load(f)
    problems = []
    if [w["name"] for w in bench["workloads"]] != list(registry["workloads"]):
        problems.append("BENCHMARK.json workloads differ from metrics.json")
    for kind, keys in (("end_to_end", ("name", "unit", "better", "bound")),
                       ("per_layer", ("name", "unit", "better"))):
        mine = [{k: m[k] for k in keys} for m in registry[kind]]
        if bench[kind] != mine:
            problems.append("BENCHMARK.json %s differ from metrics.json" % kind)
    return problems


def selftest():
    registry = load_registry()
    if not build():
        return 1
    problems = check_benchmark_json(registry)
    for workload in registry["workloads"]:
        for trace in (0, 1):
            status, result = run_binary(workload, registry["default_seed"], 1,
                                        trace, tiny=True)
            tag = "%s --trace %d" % (workload, trace)
            if result is None:
                problems.append(tag + ": no result (exit %d)" % status)
                continue
            expected = registry["per_layer" if trace else "end_to_end"]
            metrics = attach_units(result, expected)
            if metrics is None:
                problems.append(tag + ": metric set differs from registry")
                continue
            if status != 0 or not result["correct"] or result["failed"]:
                problems.append(tag + ": checks failed")
            if result["attempted"] < 1:
                problems.append(tag + ": nothing attempted")
            for name, m in metrics.items():
                if not math.isfinite(m["value"]) or not m["unit"]:
                    problems.append("%s: %s = %r %r" % (
                        tag, name, m["value"], m["unit"]))
            print("selftest: %s ok (%d metrics)" % (tag, len(metrics)),
                  file=sys.stderr)
    for p in problems:
        print("selftest: FAIL " + p, file=sys.stderr)
    print("selftest " + ("failed" if problems else "ok"))
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if args.selftest:
        return selftest()
    if not args.workload:
        parser.error("--workload is required")
    if args.seed is None:
        args.seed = load_registry()["default_seed"]
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
