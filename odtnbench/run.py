#!/usr/bin/env python3
"""Build and run the odtn benchmark.

One workload per process, the form automated comparisons use:

    python3 odtnbench/run.py --workload batch_cdf --seed 1 --seconds 20 --trace 0

builds odtnbench/ (and the odtn library from src/) into .bench_build/ at
the checkout root, runs the workload and passes its output through; the
last line is the JSON result. The exit status is non-zero when the build
fails, an output check fails or the result does not carry exactly the
metrics BENCHMARK.json lists.

Two modes for people:

    python3 odtnbench/run.py --all [--seed N] [--seconds S]
        every workload once untraced and once traced, all metrics printed
    python3 odtnbench/run.py --steady [--workload W] [--runs 10] [--seconds S]
        each workload --runs times with seeds 1..runs; prints the median,
        quartiles and spread (IQR / median) of every end-to-end metric
        against its bound from BENCHMARK.json
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "odtnbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD_DIR, "cmake", "odtn_bench")
WORKLOADS = ["batch_cdf", "live_tail", "serve_mixed", "ingest_1m"]
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("run.py: no odtn sources (src/CMakeLists.txt) in " + ROOT)
        return False
    cmake_dir = os.path.join(BUILD_DIR, "cmake")
    steps = []
    if not os.path.isfile(os.path.join(cmake_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", cmake_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", cmake_dir, "-j", "2"])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the JSON result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("run.py: build step failed: " + " ".join(cmd))
            return False
    return True


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_workload(workload, seed, seconds, trace, echo=True):
    """Runs one workload; returns (exit code, parsed result or None)."""
    workdir = os.path.join(BUILD_DIR, "work", "%s-%d" % (workload, os.getpid()))
    spans = os.path.join(BUILD_DIR, "spans", "%s-seed%d.jsonl" % (workload, seed))
    os.makedirs(os.path.dirname(spans), exist_ok=True)
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--workdir", workdir, "--spans", spans]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        log("run.py: %s timed out after %d s" % (workload, RUN_TIMEOUT_S))
        return 1, None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if echo:
        sys.stdout.write(out)
        sys.stdout.flush()
    lines = out.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc.returncode, result


def result_matches_spec(result, spec, trace):
    """The result line carries exactly the metrics BENCHMARK.json names."""
    if not isinstance(result, dict):
        return "no JSON result line"
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return "result keys are not correct/attempted/failed/metrics"
    wanted = {m["name"]: m["unit"] for m in
              spec["per_layer" if trace else "end_to_end"]}
    got = {k: v.get("unit") for k, v in result["metrics"].items()}
    if got != wanted:
        missing = sorted(set(wanted) - set(got))
        extra = sorted(set(got) - set(wanted))
        return "metric set differs: missing %s, extra %s" % (missing, extra)
    return None


def single_run(args):
    if not build():
        return 2
    code, result = run_workload(args.workload, args.seed, args.seconds,
                                args.trace == 1)
    if code != 0:
        return code
    problem = result_matches_spec(result, load_spec(), args.trace == 1)
    if problem:
        log("run.py: " + problem)
        return 1
    return 0


def all_run(args):
    if not build():
        return 2
    spec = load_spec()
    status = 0
    for w in WORKLOADS:
        for trace in (False, True):
            log("== %s %s" % (w, "traced" if trace else "timed"))
            code, result = run_workload(w, args.seed, args.seconds, trace)
            problem = result_matches_spec(result, spec, trace)
            if code != 0 or problem:
                log("run.py: %s failed (exit %d%s)" %
                    (w, code, ", " + problem if problem else ""))
                status = 1
    return status


def steady_run(args):
    if not build():
        return 2
    spec = load_spec()
    workloads = [args.workload] if args.workload else WORKLOADS
    status = 0
    for w in workloads:
        values = {}
        for seed in range(1, args.runs + 1):
            code, result = run_workload(w, seed, args.seconds, False,
                                        echo=False)
            if code != 0 or result is None:
                log("run.py: %s seed %d failed (exit %d)" % (w, seed, code))
                return 1
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            log("%s seed %d done" % (w, seed))
        print("%s (%d runs, %s s each)" % (w, args.runs, args.seconds))
        print("  %-14s %12s %12s %12s %8s %8s" %
              ("metric", "q1", "median", "q3", "spread", "bound"))
        for m in spec["end_to_end"]:
            v = values.get(m["name"], [])
            if len(v) < 2:
                continue
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            flag = ""
            if spread > m["bound"] and m["name"] != "setup_s":
                flag = "  OVER BOUND"
                status = 1
            elif spread > m["bound"] / 3:
                flag = "  over bound/3"
            print("  %-14s %12.6g %12.6g %12.6g %8.4f %8.3f%s" %
                  (m["name"], q1, med, q3, spread, m["bound"], flag))
        sys.stdout.flush()
    return status


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--all", action="store_true")
    p.add_argument("--steady", action="store_true")
    p.add_argument("--runs", type=int, default=10)
    args = p.parse_args()
    if args.all:
        return all_run(args)
    if args.steady:
        return steady_run(args)
    if not args.workload:
        p.error("--workload is required (or --all / --steady)")
    return single_run(args)


if __name__ == "__main__":
    sys.exit(main())
