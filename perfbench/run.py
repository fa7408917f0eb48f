#!/usr/bin/env python3
"""Repo benchmark: builds a Release tree of the mfgcp libraries plus the
benchmark binary, runs one workload and prints the result.

    python3 perfbench/run.py --workload plan_steady --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all          # every workload, in turn
    python3 perfbench/run.py --selftest              # the benchmark's own tests

The last stdout line is one JSON object with exactly the keys correct,
attempted, failed and metrics (end-to-end metrics with --trace 0, per-layer
metrics with --trace 1). The line before it carries the provenance: the
build type of our tree, git describe, compiler, the OBS/FAULTS/SIMD flags,
nproc and the load average before and after the run. Build output, the
metric table and check failures go to stderr. The exit code is non-zero
when the build fails, the tree is not Release, or an output check fails.
See README.md for the workloads and metrics.
"""

import argparse
import fcntl
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("plan_steady", "serve_unpaced")
RESULT_KEYS = ("correct", "attempted", "failed", "metrics")


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build(target):
    """Configures (once) and builds `target` in Release; returns its path."""
    # The compiler's temporary files stay inside the checkout too.
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    # Concurrent runs in one checkout share the build tree.
    with open(os.path.join(BUILD, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(BUILD, "Makefile")):
            subprocess.run(
                ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
                check=True, stdout=sys.stderr, stderr=sys.stderr, env=env)
        subprocess.run(
            ["cmake", "--build", BUILD, "-j", str(min(4, os.cpu_count() or 1)),
             "--target", target],
            check=True, stdout=sys.stderr, stderr=sys.stderr, env=env)
    return os.path.join(BUILD, target)


def run_workload(binary, workload, seed, seconds, trace):
    """Runs the benchmark binary once; returns (provenance, result) dicts."""
    load_before = os.getloadavg()
    trace_out = os.path.join(BUILD, f"spans-{workload}-{seed}.json")
    proc = subprocess.run(
        [binary, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace),
         "--trace-out", trace_out],
        stdout=subprocess.PIPE, stderr=sys.stderr, text=True, check=False)
    load_after = os.getloadavg()
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"benchmark exited with {proc.returncode} on {workload}")
    report = json.loads(lines[-1])
    if report["build"]["build_type"] != "Release":
        raise RuntimeError("refusing to report from a non-Release tree")
    provenance = dict(report["build"])
    provenance.update({
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_before": load_before[0], "loadavg_after": load_after[0],
        "check_failures": report["check_failures"], "notes": report["notes"],
    })
    if trace:
        provenance["spans"] = os.path.relpath(trace_out, ROOT)
    return provenance, {key: report[key] for key in RESULT_KEYS}


def print_table(workload, result):
    log(f"[{workload}] correct={result['correct']} "
        f"attempted={result['attempted']} failed={result['failed']}")
    for name, metric in result["metrics"].items():
        log(f"  {name:46s} {metric['value']:>16.6g} {metric['unit']}")


def selftest():
    binary = build("perfbench_selftest")
    ok = subprocess.run([binary], stdout=sys.stderr, check=False).returncode == 0
    ok &= subprocess.run(
        [sys.executable, "-m", "unittest", "-q", "test_benchstats"], cwd=HERE,
        stdout=sys.stderr, stderr=sys.stderr, check=False).returncode == 0
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    try:
        if args.selftest:
            return selftest()
        binary = build("perfbench")
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        results = {}
        for name in names:
            provenance, result = run_workload(binary, name, args.seed,
                                              args.seconds, args.trace)
            print(json.dumps({"provenance": provenance}), flush=True)
            print_table(name, result)
            for failure in provenance["check_failures"]:
                log(f"  CHECK FAILED: {failure}")
            results[name] = result
    except (subprocess.CalledProcessError, RuntimeError, OSError) as error:
        log(f"perfbench: {error}")
        return 1

    if len(results) == 1:
        final = next(iter(results.values()))
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}/{n}": m for w, r in results.items()
                        for n, m in r["metrics"].items()},
        }
    print(json.dumps(final), flush=True)
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
