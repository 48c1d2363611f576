"""Span tracer that wraps the public functions of each wittdiamond layer.

The program is not edited: the tracer replaces function objects from the
outside.  Modules import by name (``from .linalg import combination``), so a
function has one binding per importing module; ``install`` rebinds every
module attribute and class attribute that holds the original object, and
``unbound_sites`` proves that none was missed.

Each wrapped call is a span.  A span's self time is its duration minus the
time covered by the spans it caused, so stdlib Fraction arithmetic lands in
the self time of the innermost traced caller.
"""

from __future__ import annotations

import importlib
import sys
import time

# metric prefix -> (module, attribute path) of the traced callable.
TARGETS = {
    "lie.bracket": ("lie", "bracket"),
    "lie.jacobi_residual": ("lie", "jacobi_residual"),
    "lie.pbw_normalize": ("lie", "pbw_normalize"),
    "operators.weyl_mul_keys": ("operators", "WeylAlgebra.mul_keys"),
    "operators.ub_mul_keys": ("operators", "UbAlgebra.mul_keys"),
    "operators.tensor_mul": ("operators", "TensorElement.__mul__"),
    "operators.op_mul": ("operators", "OperatorElement.__mul__"),
    "homomorphisms.image": ("homomorphisms", "PhiAB.image CorruptedPhiAB.image PhiABGG.image"),
    "homomorphisms.apply": ("homomorphisms", "PhiAB.apply PhiABGG.apply"),
    "homomorphisms.verify_hom": ("homomorphisms", "verify_hom"),
    "homomorphisms.witnesses": ("homomorphisms", "check_all_witnesses"),
    "poly.add": ("poly", "SparsePoly.__add__"),
    "poly.mul": ("poly", "SparsePoly.__mul__"),
    "poly.shift": ("poly", "SparsePoly.shift"),
    "poly.mul_var": ("poly", "SparsePoly.mul_var"),
    "poly.derive": ("poly", "SparsePoly.derive"),
    "fock.act": ("fock", "FModule.act"),
    "fock.q_action": ("fock", "q_action"),
    "omega.act": ("omega", "OmegaModule.act"),
    "omega.factor_act": ("omega", "omega_factor_act"),
    "tensor.act": ("tensor", "TensorModule.act"),
    "omega.reduce_to_one": ("omega", "omega_reduce_to_one"),
    "omega.uh_rank": ("omega", "uh_rank"),
    "omega.classify": ("omega", "classify_rank1"),
    "omega.shiftdiff_compose": ("omega", "ShiftDiffOp.compose"),
    "tensor.reduce_to_bottom": ("tensor", "tensor_reduce_to_bottom"),
    "tensor.generate": ("tensor", "tensor_generate"),
    "tensor.r_g": ("tensor", "r_g"),
    "tensor.w_invariance": ("tensor", "w_invariance_check"),
    "linalg.combination": ("linalg", "combination"),
    "linalg.span_add": ("linalg", "SpanBasis.add"),
    "linalg.span_contains": ("linalg", "SpanBasis.contains"),
    "linalg.nullspace": ("linalg", "exact_nullspace"),
    "linalg.exact_det": ("linalg", "exact_det"),
    "tensor.det_matrix": ("tensor", "det_matrix"),
    "oracle.naive_det": ("oracle", "naive_det"),
    "oracle.truncated_closure": ("oracle", "truncated_closure"),
    "certificates.step_apply": ("certificates", "CertStep.apply"),
    "certificates.replay": ("certificates", "Certificate.replay"),
    "axioms.module_axiom_check": ("axioms", "module_axiom_check"),
    "axioms.apply_uenv": ("axioms", "apply_uenv"),
    "specs.validate": ("specs", "validate_module_spec"),
    "specs.module_from_spec": ("specs", "module_from_spec"),
    "cli.main": ("cli", "main"),
}

# Spans whose result tells whether the call did useful work: the share of
# calls that did is reported as ``<span>.<ratio name>``.
RATIOS = {
    "linalg.combination": ("solved_ratio", lambda result: result is not None),
    "linalg.span_add": ("grew_ratio", lambda result: result is True),
}


def metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric the tracer reports, with its unit."""
    out = []
    for span in TARGETS:
        out.append((f"{span}.calls", "count"))
        out.append((f"{span}.self_s", "s"))
        if span in RATIOS:
            out.append((f"{span}.{RATIOS[span][0]}", "ratio"))
    return out


def _resolve(module_name: str, paths: str):
    """(owner, attribute, original function) for each dotted path."""
    module = importlib.import_module(f"wittdiamond.{module_name}")
    out = []
    for path in paths.split():
        owner = module
        *parents, attr = path.split(".")
        for p in parents:
            owner = getattr(owner, p)
        out.append((owner, attr, owner.__dict__[attr]))
    return out


class Tracer:
    """Counts calls and self time per span; install/uninstall are exact inverses."""

    def __init__(self):
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.useful: dict[str, int] = {}
        self._stack: list[float] = []  # child time accumulated per open span
        self._undo: list[tuple[object, str, object]] = []
        self._originals: dict[int, object] = {}  # keeps each original alive
        self.reset()

    def reset(self) -> None:
        for span in TARGETS:
            self.calls[span] = 0
            self.self_s[span] = 0.0
            self.useful[span] = 0

    def _wrap(self, span: str, fn):
        calls, self_s, useful, stack = self.calls, self.self_s, self.useful, self._stack
        clock = time.perf_counter
        judge = RATIOS[span][1] if span in RATIOS else None

        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                child = stack.pop()
                calls[span] += 1
                self_s[span] += dur - child
                if stack:
                    stack[-1] += dur
            if judge is not None and judge(result):
                useful[span] += 1
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", span)
        traced.__qualname__ = getattr(fn, "__qualname__", span)
        return traced

    def _binding_modules(self):
        """Every wittdiamond module, and the benchmark's own module that calls into them."""
        import workloads  # here, so that run.py can read metric names without wittdiamond

        mods = [m for name, m in list(sys.modules.items())
                if m is not None and (name == "wittdiamond" or name.startswith("wittdiamond."))]
        return mods + [workloads]

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        replacement: dict[int, object] = {}
        for span, (module_name, paths) in TARGETS.items():
            for owner, attr, original in _resolve(module_name, paths):
                if id(original) not in replacement:
                    replacement[id(original)] = self._wrap(span, original)
                    self._originals[id(original)] = original
                # Aliases inside a class (``__radd__ = __add__``) share the object.
                for name, value in list(vars(owner).items()):
                    if value is original:
                        self._undo.append((owner, name, original))
                        setattr(owner, name, replacement[id(original)])
        for module in self._binding_modules():
            for name, value in list(vars(module).items()):
                if id(value) in self._originals and self._originals[id(value)] is value:
                    self._undo.append((module, name, value))
                    setattr(module, name, replacement[id(value)])

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()
        self._originals.clear()

    def unbound_sites(self) -> list[str]:
        """Module or class attributes that still hold an untraced original."""
        missed = []
        owners = list(self._binding_modules())
        for module in list(owners):
            owners.extend(v for v in vars(module).values() if isinstance(v, type))
        for owner in owners:
            for name, value in list(vars(owner).items()):
                if id(value) in self._originals and self._originals[id(value)] is value:
                    missed.append(f"{getattr(owner, '__name__', owner)}.{name}")
        return missed

    def metrics(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for span in TARGETS:
            out[f"{span}.calls"] = self.calls[span]
            out[f"{span}.self_s"] = self.self_s[span]
            if span in RATIOS:
                n = self.calls[span]
                out[f"{span}.{RATIOS[span][0]}"] = self.useful[span] / n if n else 0.0
        return out
