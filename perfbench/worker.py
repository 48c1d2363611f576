"""One workload in one single-threaded process: set up, then run checks.

Started by ``run.py``; prints one JSON line.  Set-up time runs from the
parent's spawn timestamp (``--spawned``, a ``time.perf_counter`` reading,
which is CLOCK_MONOTONIC and shared by every process on the machine) to the
moment the first pass of inputs is built: interpreter start,
``import wittdiamond`` and input generation.  With ``--setup-only`` the
worker stops there and reports it.

Every time is reported at reference host speed.  The machine the benchmark
runs on may share its cores with other tenants, and its speed then drifts by
up to half for minutes at a time.  A fixed loop of stdlib ``Fraction`` and
dict work, which no change to wittdiamond can make faster or slower, is
timed between checks, and each time is scaled by ``PROBE_REF_S`` over the
probe times around it.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(1, os.path.dirname(os.path.abspath(__file__)))

import workloads  # noqa: E402  (imports wittdiamond from the checkout's src)
from tracer import Tracer  # noqa: E402

MAX_REPORTED_MISMATCHES = 5
# Wall seconds per pass on the reference machine under its usual load, which
# size a run: it makes floor(seconds / PASS_S) passes, so the set of checks
# depends only on --seconds, never on how fast the code under test is.
PASS_S = {"hom_verify": 2.5, "module_axioms": 2.5, "certify": 3.5, "det_lemma": 1.4}
# Set-up-only workers per untraced run, spread over the passes; setup_s is
# the median of these and the measuring worker's own set-up time.
SETUP_SAMPLES = 8
# The probe loop's time on the reference machine when it is not loaded, and
# the time after which the next check waits for a fresh probe.
PROBE_REF_S = 0.030
PROBE_EVERY_S = 0.5


def pass_count(workload: str, seconds: float) -> int:
    return max(1, math.floor(seconds / PASS_S[workload]))


def probe() -> float:
    """Seconds the fixed probe loop takes now."""
    t0 = time.perf_counter()
    acc, table = Fraction(0), {}
    for i in range(1, 3000):
        x = Fraction(i % 97 + 1, i % 13 + 1)
        acc += x * x - Fraction(1, i)
        table[i % 50, i % 7] = table.get((i % 50, i % 7), 0) + x
    return time.perf_counter() - t0


def run_pass(checks, mismatches: list[str]):
    """Run checks back to back, with probes between them.

    Returns the time to verdict of each check at reference speed, the
    verdicts, the wrong count and the probe times.
    """
    clock = time.perf_counter
    raw, observed = [], []
    probes = [(0, probe())]  # (checks run before the probe, probe seconds)
    last = clock()
    for i, check in enumerate(checks):
        if clock() - last >= PROBE_EVERY_S:
            probes.append((i, probe()))
            last = clock()
        t0 = clock()
        try:
            got = check.run()
        except Exception as exc:  # a raising check is a wrong verdict, never an abort
            got = f"raised {type(exc).__name__}: {exc}"
        raw.append(clock() - t0)
        observed.append(got)
        if got != check.expected and len(mismatches) < MAX_REPORTED_MISMATCHES:
            mismatches.append(f"{check.kind}: expected {check.expected!r}, got {got!r}")
    probes.append((len(checks), probe()))
    wrong = sum(got != check.expected for got, check in zip(observed, checks))
    # Check i ran between the last probe taken before it and the next one.
    times, j = [], 0
    for i, t in enumerate(raw):
        while probes[j + 1][0] <= i:
            j += 1
        times.append(t * PROBE_REF_S / ((probes[j][1] + probes[j + 1][1]) / 2))
    return times, observed, wrong, [p for _, p in probes]


def setup_at_reference(spawned: float) -> float:
    """Set-up time since ``spawned``, scaled by probes taken right after it."""
    setup_s = time.perf_counter() - spawned
    return setup_s * PROBE_REF_S / statistics.median(probe() for _ in range(3))


def median_pass_s(passes: list[list[float]]) -> float:
    """Time from first check to last verdict of a median pass.

    Every pass has the same checks in the same order, so the sum over check
    positions of the median time at that position is the pass time with
    each check at its median.  Bursts of load that hit under half the
    passes leave it unchanged, where they would move a median of
    whole-pass times.
    """
    return sum(statistics.median(slot) for slot in zip(*passes))


def tail(times: list[float]) -> tuple[float, float]:
    """Value and percentile of the highest percentile with >= 10 checks beyond it."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def sample_setup(args, workdir: str) -> float:
    """Set-up time of a fresh set-up-only worker for the same workload and seed."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--workdir", workdir, "--spawned", repr(time.perf_counter()), "--setup-only"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=60,
                          check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def run_traced(tracer: Tracer, checks, mismatches: list[str]):
    """One pass under the tracer; (times, verdicts, wrong count, untraced sites)."""
    gc.collect()
    tracer.reset()
    tracer.install()
    try:
        missed = tracer.unbound_sites()
        times, verdicts, wrong, _ = run_pass(checks, mismatches)
    finally:
        tracer.uninstall()
    return times, verdicts, wrong, missed


def measure(args, checks, setup_s: float, workdir: str) -> dict:
    """Run the passes; with --trace 1 each pass is run again under the tracer.

    Per-layer numbers come from the traced run of pass 0 alone, so they
    repeat exactly for one seed; the tracing overhead is the median traced
    pass time minus the median untraced one.  The traced run goes second on
    even passes and first on odd ones, so that whatever a second run of the
    same inputs saves does not count against either.
    """
    n_passes = pass_count(args.workload, args.seconds)
    tracer = Tracer() if args.trace else None
    setups = [setup_s]
    plain_passes: list[list[float]] = []
    traced_passes: list[list[float]] = []
    probes: list[float] = []
    mismatches: list[str] = []
    attempted = failed = 0
    layers = None
    for index in range(n_passes):
        if index:
            checks = workloads.build_pass(args.workload, args.seed, index, workdir)
        if tracer is None:
            due = (index + 1) * SETUP_SAMPLES // n_passes - index * SETUP_SAMPLES // n_passes
            setups += [sample_setup(args, os.path.join(workdir, "setup")) for _ in range(due)]
        if tracer is not None and index % 2:
            traced, traced_verdicts, traced_wrong, missed = run_traced(tracer, checks, mismatches)
        gc.collect()
        plain, plain_verdicts, wrong, plain_probes = run_pass(checks, mismatches)
        plain_passes.append(plain)
        probes += plain_probes
        attempted += len(checks)
        failed += wrong
        if tracer is None:
            continue
        if index % 2 == 0:
            traced, traced_verdicts, traced_wrong, missed = run_traced(tracer, checks, mismatches)
        traced_passes.append(traced)
        attempted += len(checks)
        failed += traced_wrong + len(missed)
        if missed:
            mismatches.append(f"untraced binding sites: {missed}")
        differ = [c.kind for c, a, b in zip(checks, plain_verdicts, traced_verdicts) if a != b]
        failed += len(differ)
        if differ:
            mismatches.append(f"traced verdicts differ from untraced on {differ}")
        if layers is None:
            layers = tracer.metrics()
    result = {"attempted": attempted, "failed": failed, "mismatches": mismatches,
              "passes": n_passes, "slowdown": statistics.median(probes) / PROBE_REF_S}
    if tracer is not None:
        layers["trace.overhead_s"] = median_pass_s(traced_passes) - median_pass_s(plain_passes)
        result["metrics"] = layers
        return result
    times = [t for p in plain_passes for t in p]
    tail_value, result["tail_percentile"] = tail(times)
    result["metrics"] = {
        "setup_s": statistics.median(setups),
        "run_s": median_pass_s(plain_passes),
        "check_p50_ms": 1000 * statistics.median(times),
        "check_tail_ms": 1000 * tail_value,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args(argv)

    os.makedirs(args.workdir, exist_ok=True)
    try:
        checks = workloads.build_pass(args.workload, args.seed, 0, args.workdir)
        setup_s = setup_at_reference(args.spawned)
        if args.setup_only:
            result = {"setup_s": setup_s}
        else:
            result = measure(args, checks, setup_s, args.workdir)
    finally:
        shutil.rmtree(args.workdir, ignore_errors=True)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
