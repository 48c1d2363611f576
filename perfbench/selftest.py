"""Self-test of the benchmark: tracer coverage, layer bypasses, verdict handling.

    python3 perfbench/selftest.py

Exits 0 when every check holds.  It checks that

* the tracer rebinds every binding site of each traced function (modules
  import by name, so patching the defining module alone would read zero)
  and that uninstalling restores the originals;
* each layer a workload is meant to exercise has nonzero calls in its
  traced run, and each layer it must bypass has exactly zero;
* traced verdicts equal untraced ones (the traced run counts any
  difference as a failure) and per-layer counts repeat exactly across two
  traced runs with one seed;
* a wrong expected answer, a raising check and a CLI argument error
  count as wrong verdicts rather than aborting the run;
* without wittdiamond sources the benchmark exits nonzero and prints no
  result.
"""

from __future__ import annotations

import importlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(1, HERE)

import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

OPERATORS = ["operators.weyl_mul_keys", "operators.ub_mul_keys", "operators.tensor_mul",
             "operators.op_mul"]
POLY = ["poly.add", "poly.mul", "poly.shift", "poly.mul_var", "poly.derive"]
ACTION = ["fock.act", "fock.q_action", "omega.act", "omega.factor_act", "tensor.act"]
SPARSE = ["linalg.combination", "linalg.span_add", "linalg.span_contains", "linalg.nullspace"]
DENSE = ["linalg.exact_det", "tensor.det_matrix", "oracle.naive_det"]
HOMS = ["homomorphisms.image", "homomorphisms.apply", "homomorphisms.verify_hom",
        "homomorphisms.witnesses"]

# Spans each workload must reach, and spans it must never reach.
EXERCISED = {
    "hom_verify": ["lie.bracket", "lie.jacobi_residual", "lie.pbw_normalize", *OPERATORS, *HOMS],
    "module_axioms": [*POLY, *ACTION, "axioms.module_axiom_check", "axioms.apply_uenv"],
    "certify": [
        "poly.add", "poly.mul", "poly.shift", "poly.mul_var", "poly.derive",
        "fock.act", "omega.act", "omega.factor_act", "tensor.act",
        "omega.reduce_to_one", "omega.uh_rank", "omega.classify", "omega.shiftdiff_compose",
        "tensor.reduce_to_bottom", "tensor.generate", "tensor.r_g", "tensor.w_invariance",
        *SPARSE, "oracle.truncated_closure", "certificates.step_apply",
        "certificates.replay", "specs.validate", "specs.module_from_spec", "cli.main",
    ],
    "det_lemma": DENSE,
}
BYPASSED = {
    "hom_verify": [*POLY, *ACTION, *SPARSE, *DENSE],
    "module_axioms": [*OPERATORS, *SPARSE, *DENSE, *HOMS],
    "certify": [*OPERATORS, "linalg.exact_det", "oracle.naive_det", "tensor.det_matrix"],
    "det_lemma": [*POLY, *ACTION, *SPARSE, *OPERATORS],
}
# Binding sites that patching the defining module alone would miss.
IMPORTED_BINDINGS = [
    ("tensor", "combination"), ("omega", "combination"), ("tensor", "omega_factor_act"),
    ("tensor", "exact_det"), ("cli", "naive_det"), ("cli", "truncated_closure"),
    ("cli", "verify_hom"), ("cli", "module_from_spec"), ("axioms", "bracket"),
    ("homomorphisms", "bracket"), ("oracle", "SpanBasis.add"),
]

failures: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        failures.append(what)


def _lookup(module_name: str, path: str):
    value = importlib.import_module(f"wittdiamond.{module_name}")
    for part in path.split("."):
        value = getattr(value, part)
    return value


def check_binding_sites() -> None:
    t = tracer.Tracer()
    t.install()
    try:
        expect(t.unbound_sites() == [], "tracer rebinds every binding site")
        for module_name, path in IMPORTED_BINDINGS:
            expect(hasattr(_lookup(module_name, path), "__wrapped__"),
                   f"wittdiamond.{module_name}.{path} is traced")
    finally:
        t.uninstall()
    expect(not any(hasattr(_lookup(m, p), "__wrapped__") for m, p in IMPORTED_BINDINGS),
           "uninstall restores every original")


def traced_run(workload: str, seed: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", "1"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600)
    expect(proc.returncode == 0, f"{workload}: traced run exits 0")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_traced_runs(seed: int) -> None:
    names = [n for n, _ in tracer.metric_names()] + ["trace.overhead_s"]
    for workload in workloads.WORKLOADS:
        first, second = traced_run(workload, seed), traced_run(workload, seed)
        metrics = {k: v["value"] for k, v in first["metrics"].items()}
        expect(sorted(metrics) == sorted(names), f"{workload}: every per-layer metric reported")
        expect(first["correct"] and second["correct"],
               f"{workload}: traced verdicts right and equal to untraced ones")
        zero = [s for s in EXERCISED[workload] if metrics[f"{s}.calls"] == 0]
        expect(not zero, f"{workload}: exercised layers have calls {zero or ''}")
        nonzero = [s for s in BYPASSED[workload] if metrics[f"{s}.calls"] != 0]
        expect(not nonzero, f"{workload}: bypassed layers have zero calls {nonzero or ''}")
        counts = [n for n in names if not n.endswith("_s")]
        differ = [n for n in counts if first["metrics"][n] != second["metrics"][n]]
        expect(not differ, f"{workload}: counts repeat across two traced runs {differ or ''}")


def check_wrong_answers() -> None:
    workdir = os.path.join(HERE, ".work", "selftest-wrong")
    os.makedirs(workdir, exist_ok=True)
    try:
        for workload in workloads.WORKLOADS:
            checks = workloads.build_pass(workload, 7, 0, workdir)
            checks[0].expected = ("not", "the", "answer")

            def boom():
                raise ZeroDivisionError("planted")

            checks.append(workloads.Check("planted/raises", boom, True))
            # An argument error inside the CLI exits through SystemExit.
            out = os.path.join(workdir, "report.json")
            checks.append(workloads.Check(
                "planted/cli-exit", lambda: workloads._cli(["no-such-subcommand"], out), (0, None)))
            mismatches: list[str] = []
            try:
                _, _, wrong, _ = worker.run_pass(checks, mismatches)
            except BaseException as exc:  # the point of the test is that nothing escapes
                expect(False, f"{workload}: wrong answers do not crash ({exc!r})")
                continue
            expect(wrong == 3 and len(mismatches) == 3,
                   f"{workload}: a wrong expected answer, a raising check and a CLI "
                   "argument error give 3 wrong")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def check_without_sources() -> None:
    bare = os.path.join(HERE, ".work", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns(".work", "__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "det_lemma", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=180)
        expect(proc.returncode != 0 and not proc.stdout.strip(),
               "without sources: nonzero exit and no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    check_binding_sites()
    check_wrong_answers()
    check_without_sources()
    check_traced_runs(seed=3)
    with_work = os.path.join(HERE, ".work")
    if os.path.isdir(with_work) and not os.listdir(with_work):
        os.rmdir(with_work)
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
