#!/usr/bin/env python3
"""The repository's benchmark: builds the perfbench harness from source and
runs one workload of it.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-check

Run from the root of a checkout. The harness (perfbench/src) and the bec
library (src/) are built into .bench_build/perfbench. The last line of
standard output is one JSON object: {"correct", "attempted", "failed",
"metrics"}, with every end-to-end metric of BENCHMARK.json for --trace 0
and every per-layer metric for --trace 1. Every workload measures the same
end-to-end metrics; a per-layer metric of a layer the workload does not run
prints as 0 (perfbench/baseline.json lists the ones each workload
measures). With the default seed the digest of the rendered reports must
equal the one recorded in perfbench/baseline.json. A traced run also writes
its spans to .bench_build/traces/.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
RUN_TIMEOUT_S = 170


def log(*args):
    print("run.py:", *args, file=sys.stderr, flush=True)


def load_json(path):
    with open(path) as f:
        return json.load(f)


def build():
    """Configures and builds the harness; False when that fails."""
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "--target", "perfbench", "-j", jobs],
    ]
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode:
            log("build failed:", " ".join(cmd))
            return False
    return True


def run_harness(args, echo=True):
    """Runs the harness; returns its result object or None on failure."""
    try:
        proc = subprocess.run([BINARY] + args, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("harness timed out:", " ".join(args))
        return None
    lines = proc.stdout.splitlines()
    if proc.returncode or not lines:
        log("harness failed with exit code", proc.returncode)
        return None
    if echo:
        for line in lines[:-1]:
            print(line)
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        log("harness printed no result line")
        return None


def declared_units(bench, trace):
    section = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in bench[section]}


def bad_metrics(metrics, units):
    """Metrics printed without being declared, or with another unit."""
    return [name for name, m in metrics.items()
            if units.get(name) != m.get("unit")]


def complete(metrics, bench, trace):
    """Every metric of the section in BENCHMARK.json order; a per-layer
    metric the harness did not print belongs to a layer the workload does
    not run, and counts 0."""
    out = {}
    for name, unit in declared_units(bench, trace).items():
        if name in metrics:
            out[name] = metrics[name]
        elif trace:
            out[name] = {"value": 0, "unit": unit}
    return out


def run_workload(opts, bench, baseline):
    trace = opts.trace == 1
    args = ["--workload", opts.workload, "--seed", str(opts.seed),
            "--seconds", str(opts.seconds), "--trace", str(opts.trace)]
    if trace:
        traces = os.path.join(ROOT, ".bench_build", "traces")
        os.makedirs(traces, exist_ok=True)
        args += ["--trace-out", os.path.join(
            traces, "%s-seed%d.json" % (opts.workload, opts.seed))]
    result = run_harness(args)
    if result is None:
        return 1
    bad = bad_metrics(result["metrics"], declared_units(bench, trace))
    if bad:
        log("metrics not declared in BENCHMARK.json:", ", ".join(bad))
        return 1

    attempted, failed = result["attempted"], result["failed"]
    expected = baseline["digests"].get(opts.workload)
    if opts.seed == baseline["default_seed"] and expected:
        attempted += 1
        if result["digest"] != expected:
            failed += 1
            log("report digest %s differs from the recorded %s"
                % (result["digest"], expected))
    print("failed_share %.6g (%d of %d operations)"
          % (failed / max(attempted, 1), failed, attempted))
    metrics = complete(result["metrics"], bench, trace)
    missing = set(declared_units(bench, trace)) - set(metrics)
    if missing:
        log("the harness printed no", ", ".join(sorted(missing)))
        return 1
    print(json.dumps({"correct": failed == 0, "attempted": max(attempted, 1),
                      "failed": failed, "metrics": metrics}))
    return 0


def self_check(bench, baseline):
    """At minimal size: every workload prints every end-to-end metric, never
    0, and each per-layer metric it owns, all with their declared units;
    together the workloads measure every per-layer metric; every check
    passes, and a deliberately flipped verdict is counted as a failure."""
    problems = []
    seen = set()
    for workload in (w["name"] for w in bench["workloads"]):
        owned = baseline["workloads"][workload]
        for trace in (False, True):
            args = ["--workload", workload, "--seed", "1", "--seconds", "0.3",
                    "--trace", "1" if trace else "0", "--minimal"]
            result = run_harness(args, echo=False)
            tag = "%s --trace %d" % (workload, trace)
            if result is None:
                problems.append(tag + ": no result")
                continue
            metrics = result["metrics"]
            units = declared_units(bench, trace)
            for name in bad_metrics(metrics, units):
                problems.append("%s: undeclared metric or unit %s"
                                % (tag, name))
            names = owned["per_layer"] if trace else list(units)
            for name in names:
                if name not in metrics:
                    problems.append("%s: missing %s" % (tag, name))
                elif not trace and not metrics[name]["value"]:
                    problems.append("%s: %s is 0" % (tag, name))
            if result["failed"] or not result["correct"]:
                problems.append("%s: %d failed operations"
                                % (tag, result["failed"]))
            if trace:
                seen |= set(metrics)
            print("self-check %-40s %3d metrics, %d operations"
                  % (tag, len(metrics), result["attempted"]))
    missing = set(declared_units(bench, True)) - seen
    if missing:
        problems.append("no workload measures " + ", ".join(sorted(missing)))

    flipped = run_harness(["--workload", "campaign-bundled", "--seconds",
                           "0.3", "--minimal", "--flip-verdict"], echo=False)
    if flipped is None or flipped["failed"] < 1 or flipped["correct"]:
        problems.append("a flipped engine verdict was not counted as failed")
    else:
        print("self-check flipped verdict counted as %d failed"
              % flipped["failed"])

    for p in problems:
        log("self-check:", p)
    print("self-check", "FAILED" if problems else "passed")
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    opts = parser.parse_args()

    bench_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isdir(os.path.join(ROOT, "src")):
        log("the library sources are missing; run from a full checkout")
        return 2
    if not build():
        return 2
    bench = load_json(bench_path)
    baseline = load_json(os.path.join(HERE, "baseline.json"))
    if opts.self_check:
        return self_check(bench, baseline)
    if opts.workload not in {w["name"] for w in bench["workloads"]}:
        log("unknown workload:", opts.workload)
        return 2
    return run_workload(opts, bench, baseline)


if __name__ == "__main__":
    sys.exit(main())
