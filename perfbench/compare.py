"""Collect sets of benchmark runs and compare two sets.

    python3 perfbench/compare.py collect --out A.jsonl [--workload W ...]
                                         [--seeds 1-10] [--trace 0|1]
    python3 perfbench/compare.py show A.jsonl [B.jsonl]

``collect`` runs BENCHMARK.json's command once per workload and seed, with
its run_seconds, from the root of the checkout, and appends one JSON line
per run.  ``show`` prints, per workload and metric, the median, the
quartiles and the spread (q3 - q1) / median of each set; given two sets it
prints the change of the median and flags it when it is worse than the
metric's bound.  It also prints failed/attempted per run and whether the
failed share is the same in both sets.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def collect(args, bench):
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    for name in workloads:
        for seed in parse_seeds(args.seeds):
            cmd = bench["command"] + ["--workload", name, "--seed", str(seed),
                                      "--seconds", str(bench["run_seconds"]),
                                      "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            if proc.returncode != 0:
                print(f"{name} seed {seed}: exit {proc.returncode}", file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            line = {"workload": name, "seed": seed, "trace": args.trace,
                    "result": result}
            with open(args.out, "a") as fh:
                fh.write(json.dumps(line) + "\n")
            print(f"{name} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()
                if k in ("solve_s", "setup_s", "peak_rss_mb", "traced.solve_s")))
    return 0


def load_set(path):
    runs = {}
    with open(path) as fh:
        for line in fh:
            if line.strip():
                run = json.loads(line)
                runs.setdefault(run["workload"], []).append(run["result"])
    return runs


def stats(values):
    med = statistics.median(values)
    q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                 else (med, med, med))
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def show(args, bench):
    specs = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    sets = [load_set(p) for p in args.sets]
    status = 0
    for workload in sorted(set().union(*sets)):
        print(f"== {workload}")
        groups = [s.get(workload, []) for s in sets]
        for label, runs in zip("AB", groups):
            if not runs:
                continue
            per_run = " ".join(f"{r['failed']}/{r['attempted']}" for r in runs)
            print(f"  {label}: {len(runs)} runs, correct {all(r['correct'] for r in runs)},"
                  f" failed/attempted {per_run}")
        shares = {sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs)
                  for runs in groups if runs}
        if len(groups) == 2 and all(groups) and len(shares) > 1:
            print("  failed share differs between the sets")
            status = 1
        names = [m for m in specs if any(m in r["metrics"] for runs in groups
                                         for r in runs)]
        for metric in names:
            spec = specs[metric]
            bound = spec.get("bound")
            cols = []
            meds = []
            for runs in groups:
                values = [r["metrics"][metric]["value"] for r in runs
                          if metric in r["metrics"]]
                if not values:
                    continue
                med, q1, q3, spread = stats(values)
                meds.append(med)
                flag = " NOISY" if bound is not None and spread > bound / 3 else ""
                cols.append(f"{med:.4g} [{q1:.4g}, {q3:.4g}] spread {spread:.3f}{flag}")
            line = f"  {metric:48s} " + " | ".join(cols)
            if len(meds) == 2 and meds[0]:
                change = meds[1] / meds[0] - 1.0
                worse = change if spec["better"] == "lower" else -change
                line += f" | change {change:+.3f}"
                if bound is not None and worse > bound:
                    line += " REGRESSION"
                    status = 1
            print(line)
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p_col = sub.add_parser("collect", help="run the benchmark over seeds")
    p_col.add_argument("--out", required=True)
    p_col.add_argument("--workload", action="append")
    p_col.add_argument("--seeds", default="1-10")
    p_col.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p_show = sub.add_parser("show", help="summarize one set or compare two")
    p_show.add_argument("sets", nargs="+")
    args = parser.parse_args(argv)
    bench = load_benchmark()
    if args.command == "collect":
        return collect(args, bench)
    if len(args.sets) > 2:
        parser.error("show takes one or two sets")
    return show(args, bench)


if __name__ == "__main__":
    sys.exit(main())
