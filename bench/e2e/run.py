#!/usr/bin/env python3
"""Build and run the end-to-end benchmark of the deployed PatDNN artifact.

Builds bench_e2e from this checkout into .bench_build/e2e (a standalone
CMake project that compiles the repository's libraries), then runs it.

  # One workload; the last stdout line is the JSON result.
  python3 bench/e2e/run.py --workload vgg_pattern_b1 --seed 1 --seconds 20 --trace 0

  # Every workload; prints "workload metric value unit" lines and exits
  # non-zero if any correctness check failed.
  python3 bench/e2e/run.py [--trace 1]

  # Save each run's JSON for compare.py (here: 3 runs of every workload).
  python3 bench/e2e/run.py --seed 1 --repeat 3 --out results/set_a

Traced runs (--trace 1) report the per-layer metrics and write a Chrome
trace of their last traced window to .bench_build/e2e/trace-WORKLOAD.json.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD = os.path.join(ROOT, ".bench_build", "e2e")
BINARY = os.path.join(BUILD, "bench_e2e")
# One run must end within 180 s including this script's own start-up.
RUN_TIMEOUT_S = 170


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    """Configure once, then build incrementally; compiler output goes to
    stderr so stdout stays the result channel."""
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            sys.exit("run.py: build failed: " + " ".join(cmd))


def run_one(workload, seed, seconds, trace):
    """Run one workload; returns (exit code, parsed result or None)."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        cmd += ["--trace-out", os.path.join(BUILD, "trace-%s.json" % workload)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("run.py: %s timed out" % workload, file=sys.stderr)
        return 1, None
    lines = proc.stdout.strip().splitlines()
    try:
        return proc.returncode, json.loads(lines[-1]) if lines else None
    except ValueError:
        return proc.returncode or 1, None


def main():
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=names,
                    help="run one workload (default: all)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--repeat", type=int, default=1,
                    help="runs per workload (all-workload mode)")
    ap.add_argument("--out", help="directory for per-run JSON files")
    args = ap.parse_args()

    build()
    if args.out:
        os.makedirs(args.out, exist_ok=True)

    if args.workload:
        code, result = run_one(args.workload, args.seed, args.seconds, args.trace)
        if result is None:
            return code or 1
        save(args, args.workload, 0, result)
        print(json.dumps(result))
        return code

    status = 0
    for name in names:
        for k in range(args.repeat):
            code, result = run_one(name, args.seed, args.seconds, args.trace)
            if result is None:
                print("%s: no result (exit %d)" % (name, code), file=sys.stderr)
                status = 1
                continue
            save(args, name, k, result)
            for metric, m in result["metrics"].items():
                print("%s %s %r %s" % (name, metric, m["value"], m["unit"]))
            print("%s error_rate %r ratio" %
                  (name, result["failed"] / max(1, result["attempted"])))
            if code != 0 or not result["correct"]:
                status = 1
    return status


def save(args, workload, k, result):
    if not args.out:
        return
    path = os.path.join(args.out, "%s-seed%d-trace%d-%d.json"
                        % (workload, args.seed, args.trace, k))
    with open(path, "w") as f:
        json.dump({"workload": workload, "seed": args.seed,
                   "trace": args.trace, "result": result}, f, indent=1)
        f.write("\n")


if __name__ == "__main__":
    sys.exit(main())
