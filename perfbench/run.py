#!/usr/bin/env python3
"""Build the benchmark from this checkout and run one workload.

    python3 perfbench/run.py --workload fit_ro|serve_eval|serve_mixed \
        --seed N --seconds S --trace 0|1 [--record FILE]

Run from any directory; the checkout is the parent of this script's
directory. The first run configures and builds bmf_perfbench (Release) in
.bench_build/ at the checkout root; later runs only rebuild what changed.
The workload runs in a scratch directory under .bench_build/run/, which is
removed afterwards; a traced run leaves its spans in .bench_build/traces/.

The last line of stdout is the result, {"correct", "attempted", "failed",
"metrics"}: every end-to-end metric of BENCHMARK.json with --trace 0, every
per-layer metric with --trace 1. --record appends the result with its run
context to FILE as one JSON line (compare.py reads such files).

Exit codes: 0 = every check passed; 1 = a correctness check failed (the
result is still printed); 2 = no result (missing sources, build failure,
crash, or a metric that BENCHMARK.json does not declare or that is
missing).
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
BINARY = BUILD / "bmf_perfbench"
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def die(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def cpu_count():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def run_quiet(cmd, timeout):
    """Run a build step; show its output on stderr only if it fails."""
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True,
                              timeout=timeout)
    except (OSError, subprocess.TimeoutExpired) as err:
        die(f"{cmd[0]} failed: {err}")
    if done.returncode != 0:
        sys.stderr.write(done.stdout)
        die(f"'{' '.join(cmd)}' exited with {done.returncode}")


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        die(f"no repository sources in {ROOT}; nothing to benchmark")
    if not (BUILD / "CMakeCache.txt").is_file():
        run_quiet(["cmake", "-S", str(HERE), "-B", str(BUILD),
                   "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S)
    cache = (BUILD / "CMakeCache.txt").read_text(errors="replace")
    if "CMAKE_BUILD_TYPE:STRING=Release\n" not in cache:
        die(f"{BUILD} is not a Release build; refusing to measure it")
    run_quiet(["cmake", "--build", str(BUILD), "--target", "bmf_perfbench",
               "-j", str(cpu_count())], BUILD_TIMEOUT_S)


def result_line(raw, trace):
    """The benchmark's result from the driver's {"values"}: every
    end-to-end metric (trace 0) or every per-layer metric (trace 1) of
    BENCHMARK.json, with its unit. A per-layer metric the workload does not
    exercise reads 0; fail_frac comes from the counts."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["end_to_end"] + spec["per_layer"]
    values = raw["values"]
    unknown = set(values) - {m["name"] for m in declared}
    if unknown:
        die(f"metrics not in BENCHMARK.json: {', '.join(sorted(unknown))}")
    values["fail_frac"] = raw["failed"] / max(raw["attempted"], 1)
    metrics = {}
    for m in spec["per_layer" if trace else "end_to_end"]:
        value = values.get(m["name"])
        if value is None and not trace:
            die(f"end-to-end metric {m['name']} is missing or not finite")
        if value is None and m["name"] in values:
            print(f"perfbench: {m['name']} is not finite; reported as 0",
                  file=sys.stderr)
        metrics[m["name"]] = {"value": 0.0 if value is None else value,
                              "unit": m["unit"]}
    return {"correct": raw["correct"], "attempted": raw["attempted"],
            "failed": raw["failed"], "metrics": metrics}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--record", help="append the result to this file")
    args = parser.parse_args()

    build()
    workdir = BUILD / "run" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    cmd = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = BUILD / "traces"
        traces.mkdir(exist_ok=True)
        cmd += ["--trace-out",
                str(traces / f"{args.workload}-seed{args.seed}.jsonl")]
    try:
        done = subprocess.run(cmd, cwd=workdir, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    lines = done.stdout.strip().splitlines()
    if done.returncode not in (0, 1) or not lines:
        die(f"bmf_perfbench exited with {done.returncode} and no result")
    context = next((json.loads(l[len("context: "):]) for l in lines
                    if l.startswith("context: ")), {})
    try:
        result = result_line(json.loads(lines[-1]), args.trace)
    except (json.JSONDecodeError, KeyError, TypeError):
        die(f"malformed result line: {lines[-1]!r}")

    if args.record:
        with open(args.record, "a") as out:
            out.write(json.dumps({"workload": args.workload,
                                  "seed": args.seed, "trace": args.trace,
                                  "context": context,
                                  "result": result}) + "\n")
    print(json.dumps(result), flush=True)
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
