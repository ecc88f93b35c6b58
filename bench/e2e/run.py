#!/usr/bin/env python3
"""Runs the end-to-end benchmark and reports its metrics.

Usually started through run.sh, which builds bench_e2e first:

    bench/e2e/run.sh                        # all workloads, end-to-end
    bench/e2e/run.sh --workload read_fit --seed 3
    bench/e2e/run.sh --trace                # per-layer metrics, traces
    bench/e2e/run.sh --repeat 5 --out DIR   # spread of each metric vs bound

Each workload runs in its own bench_e2e process (so peak RSS is per
workload), which writes DIR/<workload>.json. This script prints one
"workload metric value unit" line per metric and, when one workload was
asked for, ends with a JSON line: {"correct", "attempted", "failed",
"metrics"}. The metric lists, units and bounds come from BENCHMARK.json at
the repository root. Exits 1 when a run's answers or recovered state were
wrong, 2 when a run was invalid (growing backlog, too few tail samples).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
RUN_TIMEOUT_S = 170


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def run_one(binary, workload, seed, seconds, trace, out_dir):
    """Runs one workload in its own process; returns its result document."""
    out_dir.mkdir(parents=True, exist_ok=True)
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--out", str(out_dir)]
    # bench_e2e's progress lines go to stderr; stdout carries the report.
    proc = subprocess.run(cmd, stdout=sys.stderr, timeout=RUN_TIMEOUT_S)
    path = out_dir / f"{workload}.json"
    if proc.returncode not in (0, 1, 2) or not path.exists():
        sys.exit(f"bench_e2e {workload} failed with exit code "
                 f"{proc.returncode}")
    with open(path) as f:
        doc = json.load(f)
    if not doc["valid"]:
        print(f"{workload}: INVALID: {doc['invalid']}", file=sys.stderr)
        sys.exit(2)
    return doc


def selected(spec, doc, trace):
    """The metrics this mode reports, in BENCHMARK.json order."""
    names = spec["per_layer" if trace else "end_to_end"]
    out = {}
    for m in names:
        if m["name"] not in doc["metrics"]:
            sys.exit(f"{doc['workload']}: metric {m['name']} missing")
        out[m["name"]] = doc["metrics"][m["name"]]
    return out


def spread(values):
    """Distance between the first and third quartile, over the median."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else 0.0, med


def main():
    spec = load_spec()
    workloads = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--bin", default=str(ROOT / "build/bench-e2e/bench_e2e"))
    ap.add_argument("--workload", choices=workloads,
                    help="run one workload (default: all)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", nargs="?", type=int, const=1, default=0,
                    choices=[0, 1], help="report per-layer metrics")
    ap.add_argument("--out", default=str(ROOT / "build/bench-e2e/out"))
    ap.add_argument("--repeat", type=int, default=1,
                    help="runs per workload (seeds seed..seed+N-1)")
    args = ap.parse_args()
    if not os.path.exists(args.bin):
        sys.exit(f"{args.bin} not built; use run.sh")

    names = [args.workload] if args.workload else workloads
    out = Path(args.out)
    docs = {w: [] for w in names}
    # Alternate workloads within each repetition, so a slow stretch of the
    # machine lands on every workload rather than on one.
    for i in range(args.repeat):
        run_dir = out / f"run{i}" if args.repeat > 1 else out
        for w in names:
            doc = run_one(args.bin, w, args.seed + i, args.seconds,
                          args.trace, run_dir)
            docs[w].append(doc)
            for name, m in selected(spec, doc, args.trace).items():
                print(f"{w} {name} {m['value']:.6g} {m['unit']}", flush=True)

    if args.repeat > 1:
        bounds = {m["name"]: m.get("bound") for m in
                  spec["per_layer" if args.trace else "end_to_end"]}
        print(f"\nspread between quartiles over {args.repeat} runs "
              f"(share of the median)")
        print(f"{'workload':16s} {'metric':34s} {'median':>12s} "
              f"{'spread':>8s} {'bound':>6s}")
        for w in names:
            for name in bounds:
                vals = [d["metrics"][name]["value"] for d in docs[w]]
                s, med = spread(vals)
                b = bounds[name]
                flag = "  OVER" if b is not None and s > b else ""
                print(f"{w:16s} {name:34s} {med:12.6g} {s:8.3f} "
                      f"{'' if b is None else f'{b:6.3f}'}{flag}")

    if len(names) == 1 and args.repeat == 1:
        doc = docs[names[0]][0]
        print(json.dumps({
            "correct": doc["correct"],
            "attempted": doc["attempted"],
            "failed": doc["failed"],
            "metrics": selected(spec, doc, args.trace),
        }))
    wrong = [d for ds in docs.values() for d in ds if not d["correct"]]
    for d in wrong:
        print(f"{d['workload']} seed {d['seed']}: INCORRECT: "
              f"verify={d['verify']} errors={d['errors']}", file=sys.stderr)
    if wrong:
        sys.exit(1)


if __name__ == "__main__":
    main()
