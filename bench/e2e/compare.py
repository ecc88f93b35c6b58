#!/usr/bin/env python3
"""Compares two sets of bench_e2e runs, metric by metric.

    bench/e2e/compare.py BASE_DIR CHANGE_DIR [--layers]

Each directory holds run documents (<workload>.json, found recursively),
typically from `run.sh --repeat N --out DIR` on the parent commit and on the
change, run alternately. Runs of one workload are paired in seed order.

For every workload x end-to-end metric it prints each side's median and
quartiles, the ratio change/base (base = the parent's median), how many
pairs the change won, and a verdict:

  improved    the change wins at least 9/10 of the pairs and the medians
              differ by more than the distance between the parent's
              quartiles
  unresolved  either side's spread between quartiles, as a share of its
              median, is wider than the metric's bound (unless every change
              run beats every parent run)
  regressed   the change's median is worse than the parent's by more than
              the metric's bound
  no-worse    otherwise

--layers adds the per-layer metrics (no bound: medians, ratio and wins
only). Exits 1 when any metric regressed.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent.parent


def load_runs(directory, workloads):
    runs = {w: [] for w in workloads}
    for path in sorted(Path(directory).rglob("*.json")):
        if path.stem not in runs:
            continue
        with open(path) as f:
            runs[path.stem].append(json.load(f))
    for w in runs:
        runs[w].sort(key=lambda d: d["seed"])
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def verdict(base, change, lower, bound):
    bq1, bmed, bq3 = quartiles(base)
    cq1, cmed, cq3 = quartiles(change)
    better = (lambda x, y: x < y) if lower else (lambda x, y: x > y)
    wins = sum(better(c, b) for b, c in zip(base, change))
    pairs = min(len(base), len(change))
    if bound is None:
        return wins, pairs, "-"
    if (better(cmed, bmed) and wins >= 0.9 * pairs
            and abs(cmed - bmed) > bq3 - bq1):
        return wins, pairs, "improved"
    all_better = all(better(c, b) for b in base for c in change)
    spread = max((bq3 - bq1) / bmed if bmed else 0.0,
                 (cq3 - cq1) / cmed if cmed else 0.0)
    if spread > bound and not all_better:
        return wins, pairs, "unresolved"
    worse = cmed - bmed if lower else bmed - cmed
    if bmed and worse / bmed > bound:
        return wins, pairs, "regressed"
    return wins, pairs, "no-worse"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base")
    ap.add_argument("change")
    ap.add_argument("--layers", action="store_true",
                    help="also compare the per-layer metrics")
    args = ap.parse_args()

    with open(ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    workloads = [w["name"] for w in spec["workloads"]]
    metrics = list(spec["end_to_end"])
    if args.layers:
        metrics += spec["per_layer"]
    base = load_runs(args.base, workloads)
    change = load_runs(args.change, workloads)

    print(f"{'workload':15s} {'metric':34s} {'base median [q1, q3]':>30s} "
          f"{'change median [q1, q3]':>30s} {'change/base':>11s} "
          f"{'wins':>6s}  verdict")
    counts = {}
    for w in workloads:
        if not base[w] or not change[w]:
            continue
        for m in metrics:
            name = m["name"]
            b = [d["metrics"][name]["value"] for d in base[w]
                 if name in d["metrics"]]
            c = [d["metrics"][name]["value"] for d in change[w]
                 if name in d["metrics"]]
            if not b or not c:
                continue
            wins, pairs, v = verdict(b, c, m["better"] == "lower",
                                     m.get("bound"))
            counts[v] = counts.get(v, 0) + 1
            bq = quartiles(b)
            cq = quartiles(c)
            bcol = f"{bq[1]:.5g} [{bq[0]:.4g}, {bq[2]:.4g}]"
            ccol = f"{cq[1]:.5g} [{cq[0]:.4g}, {cq[2]:.4g}]"
            ratio = f"{cq[1] / bq[1]:.3f}" if bq[1] else "n/a"
            print(f"{w:15s} {name:34s} {bcol:>30s} {ccol:>30s} "
                  f"{ratio:>11s} {wins:>3d}/{pairs:<2d}  {v}")
    print("\n" + ", ".join(f"{k}: {n}" for k, n in sorted(counts.items())))
    if counts.get("regressed"):
        sys.exit(1)


if __name__ == "__main__":
    main()
