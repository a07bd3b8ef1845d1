#!/usr/bin/env python3
"""Compare two sets of end-to-end benchmark runs.

  python3 bench/e2e/compare.py BASE_DIR NEW_DIR

Each directory holds per-run JSON files written by `run.py --out`. For
every workload x metric this prints each side's median and quartiles and,
for end-to-end metrics, a verdict against the bound in BENCHMARK.json:

  worse       NEW's median is worse than BASE's by more than the bound
  unresolved  otherwise, when BASE's quartile spread is wider than the
              bound, so a change of that size cannot be told from noise
              (unless every NEW run beats every BASE run: better)
  better      each side has at least 10 runs, NEW wins >= 90% of run
              pairs, and the medians differ by more than BASE's own
              quartile spread
  unchanged   none of these

error_rate (failed / attempted) has an absolute bound of 0: any failure on
the NEW side is worse. Metrics without a bound (per-layer) print "-".
Exits 1 when any verdict is worse.
"""
import glob
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
MIN_RUNS_FOR_GAIN = 10


def load_runs(directory):
    """{workload: {metric: [values]}}, with error_rate added per run."""
    runs = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path) as f:
            run = json.load(f)
        result = run["result"]
        series = runs.setdefault(run["workload"], {})
        for name, m in result["metrics"].items():
            series.setdefault(name, []).append(m["value"])
        series.setdefault("error_rate", []).append(
            result["failed"] / max(1, result["attempted"]))
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def verdict(metric, base, new, bound, lower_is_better):
    if bound is None:
        return "-"
    if metric == "error_rate":
        return "worse" if any(v > 0 for v in new) else "unchanged"
    sign = 1.0 if lower_is_better else -1.0

    def beats(a, b):
        return sign * (a - b) < 0

    b1, bmed, b3 = quartiles(base)
    nmed = quartiles(new)[1]
    if sign * (nmed - bmed) > bound * abs(bmed):
        return "worse"
    if b3 - b1 > bound * abs(bmed):
        return "better" if all(beats(n, b) for b in base for n in new) else "unresolved"
    pairs = [(b, n) for b in base for n in new]
    wins = sum(1 for b, n in pairs if beats(n, b))
    if (min(len(base), len(new)) >= MIN_RUNS_FOR_GAIN and wins >= 0.9 * len(pairs)
            and abs(nmed - bmed) > b3 - b1):
        return "better"
    return "unchanged"


def main(argv):
    if len(argv) != 3:
        sys.exit(__doc__)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: (m["bound"], m["better"] == "lower")
              for m in spec["end_to_end"]}
    bounds["error_rate"] = (0.0, True)
    base, new = load_runs(argv[1]), load_runs(argv[2])

    fmt = "%-15s %-30s %-40s %-40s %s"
    print(fmt % ("workload", "metric", "base median [q1, q3] (n)",
                 "new median [q1, q3] (n)", "verdict"))
    worse = False
    for workload in sorted(set(base) & set(new)):
        for metric in sorted(set(base[workload]) & set(new[workload])):
            b, n = base[workload][metric], new[workload][metric]
            bound, lower = bounds.get(metric, (None, True))
            v = verdict(metric, b, n, bound, lower)
            worse = worse or v == "worse"
            cells = []
            for values in (b, n):
                q1, med, q3 = quartiles(values)
                cells.append("%.5g [%.5g, %.5g] (%d)" % (med, q1, q3, len(values)))
            print(fmt % (workload, metric, cells[0], cells[1], v))
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
