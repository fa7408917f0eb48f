#!/usr/bin/env python3
"""Spread and bound logic for the repo benchmark's results.

    python3 perfbench/benchstats.py run OUT_DIR [--runs 10] [--first-seed 1]
        [--workload W ...] [--seconds S]
            runs run.py once per (workload, seed) and stores each result
            line as OUT_DIR/<workload>-<seed>.json
    python3 perfbench/benchstats.py spread DIR
            per workload and end-to-end metric: median, quartiles and the
            quartile spread as a share of the median, against the metric's
            bound from BENCHMARK.json (a spread must stay within a third of
            its bound; setup_s is exempt)
    python3 perfbench/benchstats.py compare BASE_DIR NEW_DIR
            per workload and metric: how much worse NEW's median is than
            BASE's, as a share of BASE's median, against the bound

spread and compare exit non-zero when a metric is outside its bound.
"""

import argparse
import glob
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# A spread at or above this share of the bound is not steady enough to
# resolve a regression of `bound` size.
STEADY_SHARE_OF_BOUND = 1.0 / 3.0


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spread(values):
    """Distance between the first and third quartile, as a share of the
    median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median)


def worsening(base, new, better):
    """How much worse `new` is than `base`, as a share of |base|; negative
    when it is better."""
    change = (new - base) / abs(base)
    return change if better == "lower" else -change


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def load_results(directory):
    """{workload: {metric: [values...]}} from DIR/<workload>-<seed>.json."""
    values = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        workload = os.path.basename(path).rsplit("-", 1)[0]
        with open(path) as f:
            result = json.load(f)
        if not result["correct"] or result["failed"]:
            raise ValueError(f"{path}: correct={result['correct']} "
                             f"failed={result['failed']}")
        for name, metric in result["metrics"].items():
            values.setdefault(workload, {}).setdefault(name, []).append(
                metric["value"])
    return values


def spread_failures(values, metrics):
    """Lines describing every (workload, metric) whose spread is not below
    a third of its bound (setup_s excepted), plus one line per metric."""
    lines, failures = [], []
    for workload, by_metric in sorted(values.items()):
        for metric in metrics:
            samples = by_metric.get(metric["name"], [])
            if len(samples) < 2:
                failures.append(f"{workload} {metric['name']}: <2 samples")
                continue
            q1, median, q3 = quartiles(samples)
            s = spread(samples)
            limit = metric["bound"] * STEADY_SHARE_OF_BOUND
            ok = metric["name"] == "setup_s" or s < limit
            line = (f"{workload:14s} {metric['name']:22s} n={len(samples):2d} "
                    f"median={median:.6g} q1={q1:.6g} q3={q3:.6g} "
                    f"spread={s:.4f} limit={limit:.4f} {'ok' if ok else 'WIDE'}")
            lines.append(line)
            if not ok:
                failures.append(line)
    return lines, failures


def compare_failures(base, new, metrics):
    lines, failures = [], []
    for workload in sorted(set(base) & set(new)):
        for metric in metrics:
            a = base[workload].get(metric["name"])
            b = new[workload].get(metric["name"])
            if not a or not b:
                failures.append(f"{workload} {metric['name']}: missing")
                continue
            w = worsening(statistics.median(a), statistics.median(b),
                          metric["better"])
            ok = w <= metric["bound"]
            line = (f"{workload:14s} {metric['name']:22s} base={statistics.median(a):.6g} "
                    f"new={statistics.median(b):.6g} worse_by={w:+.4f} "
                    f"bound={metric['bound']} {'ok' if ok else 'REGRESSED'}")
            lines.append(line)
            if not ok:
                failures.append(line)
    return lines, failures


def run(args, benchmark):
    os.makedirs(args.out, exist_ok=True)
    names = args.workload or [w["name"] for w in benchmark["workloads"]]
    seconds = args.seconds or benchmark["run_seconds"]
    for seed in range(args.first_seed, args.first_seed + args.runs):
        for name in names:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                text=True, check=False)
            line = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
            print(f"{name} seed={seed} exit={proc.returncode}", file=sys.stderr,
                  flush=True)
            with open(os.path.join(args.out, f"{name}-{seed}.json"), "w") as f:
                f.write(line + "\n")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run")
    p_run.add_argument("out")
    p_run.add_argument("--runs", type=int, default=10)
    p_run.add_argument("--first-seed", type=int, default=1)
    p_run.add_argument("--workload", action="append")
    p_run.add_argument("--seconds", type=int)
    p_spread = sub.add_parser("spread")
    p_spread.add_argument("dir")
    p_compare = sub.add_parser("compare")
    p_compare.add_argument("base")
    p_compare.add_argument("new")
    args = parser.parse_args()

    benchmark = load_benchmark()
    if args.command == "run":
        return run(args, benchmark)
    metrics = benchmark["end_to_end"]
    if args.command == "spread":
        lines, failures = spread_failures(load_results(args.dir), metrics)
    else:
        lines, failures = compare_failures(load_results(args.base),
                                           load_results(args.new), metrics)
    print("\n".join(lines))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
