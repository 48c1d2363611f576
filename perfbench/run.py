"""Time-to-verdict benchmark for wittdiamond.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  Each workload is a closed loop with one
client: its checks run back to back in one single-threaded worker process,
pass after pass of freshly seeded inputs.  The number of passes is fixed by
the workload and ``--seconds`` (about ``--seconds`` of work on the reference
machine), so every version of the code runs the same checks.  The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0`` and the per-layer metrics of a
traced run with ``--trace 1``.  Exit code 2 means the checkout holds no
wittdiamond sources; 1 means the worker failed.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import subprocess
import sys
import time

from tracer import metric_names

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("hom_verify", "module_axioms", "certify", "det_lemma")
UNITS = {"setup_s": "s", "run_s": "s", "check_p50_ms": "ms", "check_tail_ms": "ms",
         "peak_rss_mb": "MB"}
WORKER_TIMEOUT_S = 170


def spawn(args, spawned: float) -> dict:
    """Run one worker to completion and return its JSON line."""
    workdir = os.path.join(HERE, ".work", f"{os.getpid()}-{time.perf_counter_ns()}")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir, "--spawned", repr(spawned)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=WORKER_TIMEOUT_S)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "wittdiamond", "__init__.py")):
        print(f"no wittdiamond sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    try:
        result = spawn(args, time.perf_counter())
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        with contextlib.suppress(OSError):
            os.rmdir(os.path.join(HERE, ".work"))

    for line in result["mismatches"]:
        print(f"WRONG {line}", file=sys.stderr)
    metrics = result["metrics"]
    if args.trace:
        units = dict(metric_names(), **{"trace.overhead_s": "s"})
    else:
        units = UNITS
        print(f"{args.workload}: {result['attempted']} checks in {result['passes']} passes; "
              f"check_tail_ms is p{result['tail_percentile']:.1f}; "
              f"wrong_frac {result['failed'] / result['attempted']:.4f} ratio; "
              f"host {result['slowdown']:.3f}x slower than reference")
        for name in UNITS:
            print(f"  {name} = {metrics[name]:.6g} {UNITS[name]}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
