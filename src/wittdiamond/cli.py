"""Command-line front end.

Every subcommand runs a named list of checks, prints one PASS/FAIL line
per check, optionally writes a JSON report, and exits 0 only if all
checks passed (1 on mathematical failure, 2 on usage or spec errors).
All randomness is seeded; the default seed is fixed so runs reproduce.
"""

from __future__ import annotations

import argparse
import itertools
import json
import random
import sys
from fractions import Fraction

from .axioms import apply_uenv, random_vector
from .exceptions import AlgebraError, InvalidSpec, NotAModule, RequiresSimple
from .fock import FModule, MFactor, OneDim, Whittaker, epsilon_simplicity
from .homomorphisms import (
    CorruptedPhiAB,
    PhiAB,
    PhiABGG,
    check_all_witnesses,
    image_witnesses,
    surjectivity_witnesses,
    verify_hom,
)
from .lie import FAMILIES, bracket, gen, jacobi_residual, parse_uenv
from .omega import OmegaModule, classify_rank1, omega_reduce_to_one, uh_rank, Degenerate
from .oracle import ClosureReport, TruncationPolicy, naive_det, truncated_closure
from .poly import PolyRing, SparsePoly, parse_poly
from .specs import (
    module_from_spec,
    rank1_data_from_json,
    validate_module_spec,
    vector_report,
)
from .tensor import (
    DetSpec,
    TensorModule,
    canonical_form,
    det_matrix,
    det_r,
    iso_check,
    r_g,
    simplicity_decision,
)
from .scalars import scalar

Q_EXPRESSION = "b[0] a[0] + c[0] d[0]"


class Report:
    def __init__(self, command: str, seed: int | None = None):
        self.command = command
        self.seed = seed
        self.checks: list[dict] = []

    def add(self, name: str, ok: bool, detail=None, certificate=None) -> None:
        entry = {"check": name, "status": "pass" if ok else "fail"}
        if detail is not None:
            entry["detail"] = detail
        if certificate is not None:
            entry["certificate"] = certificate
        self.checks.append(entry)
        tag = "PASS" if ok else "FAIL"
        line = f"{tag} {name}"
        if detail is not None and not ok:
            line += f"  {json.dumps(detail, default=str)}"
        print(line)

    @property
    def ok(self) -> bool:
        return all(c["status"] == "pass" for c in self.checks)

    def finish(self, out_path: str | None) -> int:
        doc = {
            "command": self.command,
            "status": "pass" if self.ok else "fail",
            "checks": self.checks,
        }
        if self.seed is not None:
            doc["seed"] = self.seed
        if out_path:
            with open(out_path, "w") as fh:
                json.dump(doc, fh, indent=2, default=str)
            print(f"report written to {out_path}")
        print(f"{'OK' if self.ok else 'FAILED'}: {sum(c['status'] == 'pass' for c in self.checks)}"
              f"/{len(self.checks)} checks passed")
        return 0 if self.ok else 1


def _load_spec(path: str) -> dict:
    with open(path) as fh:
        obj = json.load(fh)
    validate_module_spec(obj)
    return obj


def _rational(text: str, option: str) -> Fraction:
    try:
        return scalar(text)
    except ValueError as exc:
        raise InvalidSpec(f"{option}: {exc}") from None


def _parse_poly_option(ring: PolyRing, text: str, option: str) -> SparsePoly:
    try:
        return parse_poly(ring, text)
    except (ValueError, AlgebraError) as exc:
        raise InvalidSpec(f"{option}: {exc}") from None


def _parse_g_poly(text: str) -> tuple:
    p = _parse_poly_option(PolyRing(("t",), (False,)), text, "--g")
    deg = p.var_degree("t")
    if deg is None:
        return ()
    return tuple(p.coefficient((k,)) for k in range(deg + 1))


# -- subcommands -------------------------------------------------------------


def cmd_verify_brackets(args) -> int:
    rep = Report("verify-brackets")
    gens = [gen(f, n) for f in FAMILIES for n in range(-args.window, args.window + 1)]
    anti = [
        (str(x), str(y))
        for x in gens
        for y in gens
        if not (bracket(x, y) + bracket(y, x)).is_zero
    ]
    rep.add("antisymmetry", not anti, {"window": args.window, "violations": anti[:10]})
    jac = []
    for x in gens:
        for y in gens:
            for z in gens:
                if not jacobi_residual(x, y, z).is_zero:
                    jac.append((str(x), str(y), str(z)))
    rep.add(
        "jacobi",
        not jac,
        {"window": args.window, "triples": len(gens) ** 3, "violations": jac[:10]},
    )
    return rep.finish(args.out)


def _build_phi(args):
    if args.map == "ab":
        cls = CorruptedPhiAB if args.corrupted else PhiAB
        return cls(_rational(args.alpha, "--alpha"), _rational(args.beta, "--beta"))
    if args.corrupted:
        raise InvalidSpec("the negative control exists for the ab map only")
    return PhiABGG(
        _rational(args.alpha, "--alpha"),
        _rational(args.beta, "--beta"),
        _rational(args.gamma if args.gamma is not None else "0", "--gamma"),
        _parse_g_poly(args.g if args.g is not None else "0"),
    )


def cmd_verify_hom(args) -> int:
    rep = Report("verify-hom")
    phi = _build_phi(args)
    hom = verify_hom(phi, args.window)
    rep.add(
        "homomorphism",
        hom.ok,
        {
            "map": args.map,
            "window": args.window,
            "pairs": hom.pairs_checked,
            "violations": hom.violations[:10],
            "corrupted": bool(args.corrupted),
        },
    )
    if not args.corrupted:
        wit = image_witnesses(phi) if args.map == "ab" else surjectivity_witnesses(phi)
        failures = check_all_witnesses(phi, wit)
        rep.add(
            "witnesses",
            not failures,
            {"count": len(wit), "names": [w.name for w in wit], "failures": failures},
        )
    return rep.finish(args.out)


def cmd_act(args) -> int:
    rep = Report("act")
    module = module_from_spec(_load_spec(args.spec))
    expr_text = Q_EXPRESSION if args.expr.strip() == "Q" else args.expr
    try:
        u = parse_uenv(expr_text)
    except (ValueError, AlgebraError) as exc:
        raise InvalidSpec(f"--expr: {exc}") from None
    v = _parse_poly_option(module.ring, args.vector, "--vector")
    result = apply_uenv(module, u, v)
    rep.add(
        "act",
        True,
        {
            "expression": expr_text,
            "vector": vector_report(v),
            "result": vector_report(result),
        },
    )
    return rep.finish(args.out)


def _policy(args) -> TruncationPolicy:
    return TruncationPolicy(
        max_total_degree=args.max_degree,
        generator_window=args.window,
        max_steps=args.max_steps,
    )


def _closure_detail(report: ClosureReport) -> dict:
    return {
        "verdict": report.verdict,
        "reached": report.reached_dim,
        "ambient": report.ambient_dim,
        "overflow": report.overflow_count,
        "rounds": report.rounds,
        "exact_invariant": report.exact_invariant,
    }


def cmd_simplicity(args) -> int:
    rep = Report("simplicity", seed=args.seed)
    spec = _load_spec(args.spec)
    module = module_from_spec(spec)
    rng = random.Random(args.seed)
    policy = _policy(args)

    if isinstance(module, FModule):
        one_dim = isinstance(module.v_space, OneDim)
        m_type_x1 = isinstance(module.factors[1], MFactor)
        if one_dim and m_type_x1:
            verdict = epsilon_simplicity(module)
            rep.add(
                "epsilon-criterion",
                True,
                {
                    "simple": verdict.simple,
                    "witness": verdict.witness,
                    "submodule": verdict.barrier,
                },
            )
            if verdict.simple:
                start = module.one()
            else:
                if abs(verdict.witness) >= policy.max_total_degree:
                    policy = TruncationPolicy(
                        max_total_degree=abs(verdict.witness) + 2,
                        generator_window=policy.generator_window,
                        max_steps=policy.max_steps,
                    )
                start = module.ring.monomial({"x1": verdict.witness})
            closure = truncated_closure(module, start, policy)
            expected = ClosureReport.FILLS if verdict.simple else ClosureReport.PROPER
            rep.add(
                "closure-oracle",
                closure.verdict == expected,
                {"expected": expected, **_closure_detail(closure)},
            )
        else:
            kind = "Whittaker V" if isinstance(module.v_space, Whittaker) else "shift-type x1"
            closure = truncated_closure(module, module.one(), policy)
            rep.add(
                "closure-oracle",
                closure.verdict == ClosureReport.FILLS,
                {
                    "note": f"{kind}: simple for every parameter choice; "
                    "closure gives desk-scale evidence",
                    **_closure_detail(closure),
                },
            )
    elif isinstance(module, OmegaModule):
        replays = 0
        for _ in range(args.samples):
            v = random_vector(module.ring, rng, max_total_degree=3, terms=3)
            cert = omega_reduce_to_one(module, v)
            if cert.replay(module, v) == module.one():
                replays += 1
        rep.add(
            "reduction-certificates",
            replays == args.samples,
            {"replayed": replays, "samples": args.samples},
        )
        closure = truncated_closure(module, module.one(), policy)
        rep.add(
            "closure-oracle",
            closure.verdict == ClosureReport.FILLS,
            _closure_detail(closure),
        )
    else:
        decision = simplicity_decision(module, seed=args.seed, samples=args.samples)
        if decision.simple:
            rep.add(
                "simplicity",
                True,
                {
                    "simple": True,
                    "note": decision.note,
                    "certificates": len(decision.evidence),
                },
                certificate=[e.reduction.to_jsonable() for e in decision.evidence],
            )
        else:
            inv = decision.invariance
            rep.add(
                "simplicity",
                inv.ok,
                {
                    "simple": False,
                    "witness_pair": decision.witness_pair,
                    "note": decision.note,
                    "basis_size": inv.basis_size,
                    "images_checked": inv.images_checked,
                    "escapes": inv.escapes[:10],
                },
            )
            closure = truncated_closure(module, module.one(), policy)
            rep.add(
                "closure-oracle",
                closure.verdict == ClosureReport.PROPER,
                _closure_detail(closure),
            )
    return rep.finish(args.out)


def cmd_det_lemma(args) -> int:
    rep = Report("det-lemma")
    alphas = tuple(_rational(a, "--alphas") for a in args.alphas.split(","))
    specs = 0
    mismatches = []
    naive_checked = 0
    naive_mismatches = []
    for m in range(1, args.max_m + 1):
        for subset in itertools.permutations(alphas, m):
            for sizes in itertools.product(range(1, args.max_s + 1), repeat=m):
                for r in range(args.max_r + 1):
                    spec = DetSpec(subset, sizes, r)
                    result = det_r(spec)
                    specs += 1
                    if not result.ok:
                        mismatches.append(
                            {"alphas": [str(a) for a in subset], "sizes": sizes, "r": r}
                        )
                    if sum(sizes) <= args.naive_limit:
                        naive_checked += 1
                        if naive_det(det_matrix(spec)) != result.computed:
                            naive_mismatches.append(
                                {"alphas": [str(a) for a in subset], "sizes": sizes, "r": r}
                            )
    rep.add(
        "determinant-closed-form",
        not mismatches,
        {"specs": specs, "mismatches": mismatches[:5]},
    )
    rep.add(
        "naive-det-agreement",
        not naive_mismatches,
        {"checked": naive_checked, "limit": args.naive_limit,
         "mismatches": naive_mismatches[:5]},
    )
    return rep.finish(args.out)


def cmd_rank(args) -> int:
    rep = Report("rank")
    module = module_from_spec(_load_spec(args.spec))
    if isinstance(module, OmegaModule):
        if not module.params.g:
            raise InvalidSpec("rank on an Omega spec needs a nonzero g")
        result = uh_rank(module)
        rep.add(
            "uh-rank",
            result.generation_ok and result.independence_ok and result.recursion_matches_d0,
            {
                "rank": result.rank,
                "generation_targets": len(result.generation),
                "generation_ok": result.generation_ok,
                "independence_ok": result.independence_ok,
                "recursion_matches_d0": result.recursion_matches_d0,
                "recursion_note": "derived form: g_N t^(N+1+s) = "
                "(beta d0 - beta s - gamma) t^s - sum_{k<N} g_k t^(k+1+s)",
            },
            certificate=[w.to_jsonable() for w in result.generation],
        )
    elif isinstance(module, TensorModule):
        v = module.one()
        if args.vector:
            v = _parse_poly_option(module.ring, args.vector, "--vector")
        if v.is_zero:
            raise InvalidSpec("--vector: the zero vector has no orbit rank")
        value = r_g(module, v)
        in_bottom = all(not any(e[: module.m]) for e in v.terms)
        expected_equality = value == module.m + 1
        rep.add(
            "r-g",
            value >= module.m + 1 and (expected_equality == in_bottom),
            {
                "value": value,
                "lower_bound": module.m + 1,
                "vector": vector_report(v),
                "equality_iff_t_only": in_bottom,
            },
        )
    else:
        raise InvalidSpec("rank applies to Omega and T specs")
    return rep.finish(args.out)


def cmd_classify(args) -> int:
    rep = Report("classify")
    with open(args.data) as fh:
        data = rank1_data_from_json(json.load(fh))
    try:
        result = classify_rank1(data, window=args.window)
    except NotAModule as exc:
        rep.add("classify", False, {"rejected": True, "relation": exc.relation,
                                    "detail": exc.detail})
        return rep.finish(args.out)
    if isinstance(result, Degenerate):
        rep.add("classify", True, {"degenerate": True, "submodule": result.submodule})
    else:
        rep.add(
            "classify",
            True,
            {
                "degenerate": False,
                "alpha": str(result.alpha),
                "beta": str(result.beta),
                "gamma": str(result.gamma),
                "lambda": str(result.lam),
                "g": [str(c) for c in result.g],
            },
        )
    return rep.finish(args.out)


def _as_tensor(spec: dict) -> TensorModule:
    module = module_from_spec(spec)
    if isinstance(module, OmegaModule):
        return TensorModule([module.params])
    if not isinstance(module, TensorModule):
        raise InvalidSpec("isomorphism classification applies to Omega and T specs")
    return module


def cmd_iso(args) -> int:
    rep = Report("iso")
    left = _as_tensor(_load_spec(args.left))
    right = _as_tensor(_load_spec(args.right))
    try:
        result = iso_check(left, right)
    except RequiresSimple as exc:
        rep.add("iso", False, {"error": str(exc)})
        return rep.finish(args.out)

    def form(module):
        return [
            {
                "lambda": str(f.lam),
                "alpha": str(f.alpha),
                "beta": str(f.beta),
                "gamma": str(f.gamma),
                "g": [str(c) for c in f.g],
            }
            for f in canonical_form(module)
        ]

    rep.add(
        "iso",
        True,
        {
            "isomorphic": result.isomorphic,
            "permutation": result.permutation,
            "distinguishing_invariant": result.invariant,
            "canonical_left": form(left),
            "canonical_right": form(right),
        },
    )
    return rep.finish(args.out)


# -- argument parsing ---------------------------------------------------------


def _int_at_least(low: int):
    """argparse type for an integer >= low, so that no sweep can be empty."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wittdiamond",
        description="Exact verification suites for the Witt/loop-Diamond "
        "operator algebra and its module families.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify-brackets", help="antisymmetry and Jacobi sweep")
    p.add_argument("--window", type=_int_at_least(1), default=3)
    p.add_argument("--out")
    p.set_defaults(func=cmd_verify_brackets)

    p = sub.add_parser("verify-hom", help="bracket compatibility of a generator table")
    p.add_argument("--map", choices=["ab", "abgg"], required=True)
    p.add_argument("--alpha", required=True)
    p.add_argument("--beta", required=True)
    p.add_argument("--gamma")
    p.add_argument("--g", help="polynomial in t, e.g. 't^2 + 1'")
    p.add_argument("--window", type=_int_at_least(1), default=3)
    p.add_argument("--corrupted", action="store_true",
                   help="negative control: drop the index-linear term of d[n]")
    p.add_argument("--out")
    p.set_defaults(func=cmd_verify_hom)

    p = sub.add_parser("act", help="apply an enveloping-algebra expression to a vector")
    p.add_argument("--spec", required=True)
    p.add_argument("--expr", required=True, help="e.g. 'Q' or 'b[0] a[0] - 2 c[1]'")
    p.add_argument("--vector", required=True, help="e.g. 'x0^2 x1^-1' or 's t^2'")
    p.add_argument("--out")
    p.set_defaults(func=cmd_act)

    p = sub.add_parser("simplicity", help="certificates plus closure oracle")
    p.add_argument("--spec", required=True)
    p.add_argument("--samples", type=_int_at_least(1), default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-degree", type=_int_at_least(1), default=4)
    p.add_argument("--window", type=_int_at_least(1), default=2)
    p.add_argument("--max-steps", type=_int_at_least(1), default=64)
    p.add_argument("--out")
    p.set_defaults(func=cmd_simplicity)

    p = sub.add_parser("det-lemma", help="generalized Vandermonde determinant sweep")
    p.add_argument("--max-m", type=_int_at_least(1), default=3)
    p.add_argument("--max-s", type=_int_at_least(1), default=3)
    p.add_argument("--max-r", type=_int_at_least(0), default=2)
    p.add_argument("--alphas", default="1,2,3,5,7,-2")
    p.add_argument("--naive-limit", type=_int_at_least(1), default=6)
    p.add_argument("--out")
    p.set_defaults(func=cmd_det_lemma)

    p = sub.add_parser("rank", help="free rank over the Cartan pair, or orbit rank")
    p.add_argument("--spec", required=True)
    p.add_argument("--vector")
    p.add_argument("--out")
    p.set_defaults(func=cmd_rank)

    p = sub.add_parser("classify", help="identify rank-one action data")
    p.add_argument("--data", required=True)
    p.add_argument("--window", type=_int_at_least(1), default=2)
    p.add_argument("--out")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("iso", help="canonical forms and isomorphism verdict")
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_iso)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InvalidSpec as exc:
        print(f"spec error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"file error: {exc}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(f"json error: {exc}", file=sys.stderr)
        return 2
    except AlgebraError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
