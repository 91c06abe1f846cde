#!/usr/bin/env python3
"""Collect sets of benchmark runs and compare them.

    python3 perfbench/compare.py collect --out runs.jsonl \
        [--workloads fit_ro,serve_eval] [--seeds 1-10] [--trace 0]
    python3 perfbench/compare.py summary runs.jsonl
    python3 perfbench/compare.py diff base.jsonl new.jsonl

`collect` runs perfbench/run.py once per (workload, seed), interleaving the
workloads, and appends each result with its run context to --out.
`summary` prints, per (workload, metric), the median, the quartiles and
the spread (interquartile distance over the median) next to the metric's
bound from BENCHMARK.json. `diff` compares two sets per (workload, metric):
a change counts only when the medians differ by more than the bound; when
either set's spread exceeds the bound the pair is "unresolved", unless every
run of one set beats every run of the other.

Quartiles are those of statistics.quantiles(values, n=4).
"""

import argparse
import json
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def load_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def collect(args):
    spec = load_spec()
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    failures = 0
    for seed in parse_seeds(args.seeds):
        for workload in workloads:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload",
                   workload, "--seed", str(seed), "--seconds",
                   str(spec["run_seconds"]), "--trace", str(args.trace),
                   "--record", args.out]
            done = subprocess.run(cmd, stdout=subprocess.DEVNULL)
            if done.returncode != 0:
                failures += 1
                print(f"{workload} seed {seed}: exit {done.returncode}",
                      file=sys.stderr)
    return 1 if failures else 0


def load_runs(path):
    """{(workload, metric): [values]} plus per-workload failure counts."""
    values = defaultdict(list)
    failed = defaultdict(int)
    for line in Path(path).read_text().splitlines():
        if not line.strip():
            continue
        record = json.loads(line)
        result = record["result"]
        if not result["correct"] or result["failed"]:
            failed[record["workload"]] += 1
        for name, metric in result["metrics"].items():
            values[(record["workload"], name)].append(metric["value"])
    return values, failed


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else float("inf")


def bounds(spec):
    return {m["name"]: (m.get("bound"), m["better"])
            for m in spec["end_to_end"] + spec["per_layer"]}


def summary(args):
    spec = load_spec()
    bound_of = bounds(spec)
    status = 0
    for path in args.files:
        values, failed = load_runs(path)
        print(f"== {path}")
        print(f"{'workload':<12} {'metric':<36} {'n':>3} {'median':>14} "
              f"{'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}")
        for (workload, name), vals in sorted(values.items()):
            q1, q2, q3 = quartiles(vals)
            bound = bound_of.get(name, (None, None))[0]
            s = spread(vals)
            flag = ""
            if bound is not None and s > bound:
                flag, status = "  > bound", 1
            elif bound is not None and s > bound / 3:
                flag = "  > bound/3"
            print(f"{workload:<12} {name:<36} {len(vals):>3} {q2:>14.6g} "
                  f"{q1:>14.6g} {q3:>14.6g} {s:>8.4f} "
                  f"{'' if bound is None else bound:>6}{flag}")
        for workload, n in sorted(failed.items()):
            print(f"{workload}: {n} run(s) failed a correctness check")
            status = 1
    return status


def verdict(base, new, bound, better):
    b2 = quartiles(base)[1]
    n2 = quartiles(new)[1]
    sign = 1.0 if better == "lower" else -1.0
    worse = sign * (n2 - b2) / b2 if b2 else 0.0  # > 0: new is worse
    if bound is None:
        return worse, "no bound"
    if max(spread(base), spread(new)) > bound:
        if all(sign * (n - b) < 0 for n in new for b in base):
            return worse, "better in every run"
        if all(sign * (n - b) > 0 for n in new for b in base):
            return worse, "worse in every run"
        return worse, "unresolved (spread > bound)"
    if worse > bound:
        return worse, "REGRESSION"
    if -worse > bound:
        return worse, "improved"
    return worse, "within bound"


def diff(args):
    spec = load_spec()
    bound_of = bounds(spec)
    base, base_failed = load_runs(args.base)
    new, new_failed = load_runs(args.new)
    status = 0
    print(f"{'workload':<12} {'metric':<36} {'base median [q1, q3]':>36} "
          f"{'new median [q1, q3]':>36} {'worse by':>9}  verdict")
    for key in sorted(set(base) & set(new)):
        workload, name = key
        bound, better = bound_of.get(name, (None, "lower"))
        worse, text = verdict(base[key], new[key], bound, better)
        if text == "REGRESSION":
            status = 1
        b1, b2, b3 = quartiles(base[key])
        n1, n2, n3 = quartiles(new[key])
        print(f"{workload:<12} {name:<36} "
              f"{b2:>12.5g} [{b1:.5g}, {b3:.5g}]".ljust(86) +
              f"{n2:>12.5g} [{n1:.5g}, {n3:.5g}]".ljust(38) +
              f"{100 * worse:>8.2f}%  {text}")
    for label, failed in (("base", base_failed), ("new", new_failed)):
        for workload, n in sorted(failed.items()):
            print(f"{label} {workload}: {n} run(s) failed a correctness check")
            status = 1
    return status


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("collect")
    p.add_argument("--out", required=True)
    p.add_argument("--workloads")
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.set_defaults(func=collect)
    p = sub.add_parser("summary")
    p.add_argument("files", nargs="+")
    p.set_defaults(func=summary)
    p = sub.add_parser("diff")
    p.add_argument("base")
    p.add_argument("new")
    p.set_defaults(func=diff)
    args = parser.parse_args()
    sys.exit(args.func(args))


if __name__ == "__main__":
    main()
