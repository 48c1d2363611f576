"""Repeat the benchmark over seeds and summarize each metric's spread.

    python3 perfbench/repeat.py --seeds 1-10 [--workloads a,b] [--trace 1] [--out FILE]

Runs ``run.py`` once per (workload, seed), one run at a time, with the run
length from ``BENCHMARK.json``.  For every metric it reports the median,
the quartiles (``statistics.quantiles(values, n=4)``) and the spread, the
interquartile distance as a share of the median, next to the metric's
bound.  With ``--out`` the values and the summary are merged into a JSON
file under ``end_to_end`` or, for ``--trace 1``, ``per_layer``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text: str) -> list[int]:
    if "-" in text.lstrip("-"):
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
        "values": values,
    }


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser()
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    doc = {}
    if args.out and os.path.exists(args.out):
        with open(args.out) as fh:
            doc = json.load(fh)
    doc.update(python=platform.python_version(), nproc=os.cpu_count(),
               machine=platform.machine(), run_seconds=bench["run_seconds"])
    seeds = parse_seeds(args.seeds)
    level = doc.setdefault("per_layer" if args.trace else "end_to_end", {})
    for workload in args.workloads.split(","):
        runs = []
        for seed in seeds:
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
                   "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}", file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            runs.append(result)
            if not result["correct"]:
                print(f"{workload} seed {seed}: {result['failed']} wrong", file=sys.stderr)
        names = list(runs[0]["metrics"])
        summary = {name: summarize([r["metrics"][name]["value"] for r in runs]) for name in names}
        level[workload] = {
            "seeds": seeds,
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "metrics": summary,
        }
        print(workload)
        for name in names:
            s = summary[name]
            bound = bounds.get(name)
            flag = "" if bound is None else f"  bound {bound}{'  WIDE' if s['spread'] > bound / 3 else ''}"
            unit = runs[0]["metrics"][name]["unit"]
            print(f"  {name:36s} {unit:5s} median {s['median']:12.6g}  q1 {s['q1']:12.6g}  "
                  f"q3 {s['q3']:12.6g}  spread {s['spread']:.4f}{flag}")
        sys.stdout.flush()
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
