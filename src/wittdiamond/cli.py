"""Command-line front end.

Every subcommand runs a named list of checks, prints one PASS/FAIL line
per check, optionally writes a JSON report, and exits 0 only if all
checks passed (1 on mathematical failure, 2 on usage or spec errors).
The commands take inputs only: every bound on the sampled or truncated
evidence is fixed, so each report reproduces byte for byte.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import re
import sys
from fractions import Fraction
from math import perm, prod

from .axioms import simplicity_samples
from .exceptions import AlgebraError, InvalidSpec, NotAModule, RequiresSimple
from .fock import (
    FModule,
    MFactor,
    OneDim,
    Whittaker,
    barrier_invariance_check,
    epsilon_simplicity,
)
from .homomorphisms import (
    CorruptedPhiAB,
    PhiAB,
    PhiABGG,
    check_all_witnesses,
    image_witnesses,
    surjectivity_witnesses,
    verify_hom,
)
from .lie import bracket, generators_in_window, jacobi_residual, parse_words
from .omega import (
    Degenerate,
    InvarianceReport,
    OmegaModule,
    RankOneProduct,
    classify_rank1,
    omega_reduce_to_one,
    orbit_points,
    rank1_grid,
    uh_rank,
)
from .oracle import ClosureReport, TruncationPolicy, naive_det, truncated_closure
from .poly import PolyRing, SparsePoly, parse_poly
from .specs import MAX_G_POWER, module_from_spec, rank1_data_from_json, vector_report
from .tensor import (
    DetSpec,
    TensorModule,
    canonical_form,
    det_r,
    iso_check,
    r_g,
    simplicity_decision,
)
from .scalars import scalar

Q_EXPRESSION = "b[0] a[0] + c[0] d[0]"


class Report:
    def __init__(self, command: str):
        self.command = command
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
        if out_path:
            # Serialized before the file is opened, so a number that cannot be
            # written (see ``main``) leaves no partial report.
            text = json.dumps(doc, indent=2, default=str)
            with open(out_path, "w") as fh:
                fh.write(text)
            print(f"report written to {out_path}")
        print(f"{'OK' if self.ok else 'FAILED'}: {sum(c['status'] == 'pass' for c in self.checks)}"
              f"/{len(self.checks)} checks passed")
        return 0 if self.ok else 1


def _unique_keys(pairs: list) -> dict:
    """``object_pairs_hook`` that refuses a key given twice in one JSON object."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise InvalidSpec(f"duplicate key {key!r}")
        obj[key] = value
    return obj


def _load_spec(path: str) -> dict:
    """The JSON of an input file (``--spec``, ``--data``, ``--left``, ``--right``).

    A key given twice in one object is a spec error rather than silently the
    last value, and so is a number that Python will not convert (an integer
    above its limit on digits); the readers (``module_from_spec``,
    ``rank1_data_from_json``) validate the rest.
    """
    with open(path) as fh:
        try:
            return json.load(fh, object_pairs_hook=_unique_keys)
        except (json.JSONDecodeError, UnicodeDecodeError):
            raise
        except ValueError:  # an integer above Python's limit on the digits of an int string
            raise InvalidSpec(f"{path}: a number with more digits than Python converts") from None


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


# Bound on |n| of each generator index as written in `act --expr` (the brackets
# met in normalizing a word can raise an index further) and on |e| of an exponent
# in `act --vector` and `rank --vector`.  lam^n and the binomial rows of
# s -> s - n grow with n and e, so an eleven-digit index or a six-digit exponent
# would exhaust memory or run for minutes before any check is made.
MAX_INPUT_POWER = 1000

def _parse_vector(ring: PolyRing, text: str) -> SparsePoly:
    v = _parse_poly_option(ring, text, "--vector")
    for exps in v.terms:
        for name, e in zip(ring.names, exps):
            if abs(e) > MAX_INPUT_POWER:
                raise InvalidSpec(f"--vector: the exponent {e} of {name} is above the bound "
                                  f"{MAX_INPUT_POWER} on its size")
    return v


# Bound on the work of `act`: the sum, over the letters applied, of the terms
# of the vector each letter acts on, each weighted by its total degree plus 1
# (a letter expands a power of a shifted variable into that many terms).  It
# is checked before each letter starts, so no letter runs past it.
# `L[1000] a[-1000]` on `s t^1000`, every index and exponent at its bound,
# counts 3007; `L[1] L[1]` on `s1^d s2^d` of a two-factor T spec, whose time
# grows about as d^3, reaches the bound near d = 180, in under a second.
MAX_ACT_WORK = 100_000


def _bounded_action(module, words, v: SparsePoly) -> SparsePoly:
    """The sum of c times the letters of each word applied to v, rightmost first.

    The letters act as written, with no PBW straightening, so ``MAX_ACT_WORK``
    bounds all of the work; the result is refused once the work passes it.
    """
    out = module.ring.zero()
    work = 0
    for c, word in words:
        w = v
        for g in reversed(word):
            work += sum(1 + sum(map(abs, e)) for e in w.terms)
            if work > MAX_ACT_WORK:
                raise InvalidSpec("--expr/--vector: acting with the expression on the vector "
                                  f"is above the bound {MAX_ACT_WORK} on its work (terms times "
                                  "degree of each vector a letter acts on, summed over the letters)")
            w = module.act(g, w)
        out = out + w * c
    return out


def _parse_g_poly(text: str) -> tuple:
    p = _parse_poly_option(PolyRing(("t",), (False,)), text, "--g")
    deg = p.var_degree("t")
    if deg is None:
        return ()
    if deg > MAX_G_POWER:
        raise InvalidSpec(f"--g: the power {deg} of t is above the bound {MAX_G_POWER} "
                          "that a spec's g obeys")
    return tuple(p.coefficient((k,)) for k in range(deg + 1))


# -- subcommands -------------------------------------------------------------


# Index grid of verify-brackets: {-1, 0, 1}, three points per index.
BRACKET_WINDOW = 1


def cmd_verify_brackets(args) -> int:
    """Antisymmetry and the Jacobi identity, for every index in Z.

    The bracket table has no index-specific case: ``[x_l, y_m]`` is
    ``c(l, m) w_{l+m}`` with ``c`` of degree at most 1 in each index.  So the
    antisymmetry defect has degree at most 1 in each index, and each
    coefficient of the Jacobi residual at ``l+m+n``, a sum of products
    ``c(m, n) c'(l, m+n)``, has degree at most 2 in each of l, m and n (as in
    ``[L_l, [L_m, L_n]] = (n-m)(m+n-l) L_{l+m+n}``).  A polynomial of degree at
    most d in each variable that vanishes on d+1 points per variable is zero
    (Alon 1999, Combinatorial Nullstellensatz, Lemma 2.1), so the three
    indices {-1, 0, 1} settle both identities on Z.
    """
    rep = Report("verify-brackets")
    gens = generators_in_window(BRACKET_WINDOW)
    grid = {"complete": True, "indices": list(range(-BRACKET_WINDOW, BRACKET_WINDOW + 1))}
    anti = [
        (str(x), str(y))
        for x in gens
        for y in gens
        if not (bracket(x, y) + bracket(y, x)).is_zero
    ]
    rep.add("antisymmetry", not anti, {**grid, "max_index_degree": 1,
                                       "pairs": len(gens) ** 2, "violations": anti[:10]})
    jac = []
    for x in gens:
        for y in gens:
            for z in gens:
                if not jacobi_residual(x, y, z).is_zero:
                    jac.append((str(x), str(y), str(z)))
    rep.add(
        "jacobi",
        not jac,
        {**grid, "max_index_degree": 2, "triples": len(gens) ** 3, "violations": jac[:10]},
    )
    return rep.finish(args.out)


def _build_phi(args):
    if args.map == "ab":
        for option, value in (("--gamma", args.gamma), ("--g", args.g)):
            if value is not None:
                raise InvalidSpec(f"{option} is a parameter of the abgg map; the ab map has none")
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
    hom = verify_hom(phi)
    rep.add(
        "homomorphism",
        hom.ok,
        {
            "map": args.map,
            "complete": True,
            "window": hom.window,
            "max_index_degree": 2,
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
        words = parse_words(expr_text)
    except (ValueError, AlgebraError) as exc:
        raise InvalidSpec(f"--expr: {exc}") from None
    for g in (g for _, letters in words for g in letters):
        if abs(g.index) > MAX_INPUT_POWER:
            raise InvalidSpec(f"--expr: the index of {g} is above the bound "
                              f"{MAX_INPUT_POWER} on its size")
    v = _parse_vector(module.ring, args.vector)
    result = _bounded_action(module, words, v)
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


def _closure_check(rep: Report, module, start: SparsePoly, expected: str, **note) -> None:
    """Add the ``closure-oracle`` check: the truncated closure of start ends as expected.

    A ``note`` keyword, if given, leads the detail.
    """
    closure = truncated_closure(module, start, TruncationPolicy())
    rep.add("closure-oracle", closure.verdict == expected, {
        **note,
        "expected": expected,
        "verdict": closure.verdict,
        "reached": closure.reached_dim,
        "ambient": closure.ambient_dim,
        "overflow": closure.overflow_count,
        "rounds": closure.rounds,
        "exact_invariant": closure.exact_invariant,
    })


def _invariance_detail(inv: InvarianceReport, in_w: str, not_in_w: str, **lead) -> dict:
    """The detail of an invariant-subspace proof, led by the ``lead`` keywords, if any."""
    return {
        **lead,
        "complete": True,
        "probes": inv.probes,
        "images_checked": inv.images_checked,
        "max_index_degree": inv.max_index_degree,
        "escapes": inv.escapes[:10],
        "proper_witness": {"in_W": in_w, "not_in_W": not_in_w, "holds": inv.proper},
    }


def cmd_simplicity(args) -> int:
    rep = Report("simplicity")
    module = module_from_spec(_load_spec(args.spec))

    if isinstance(module, FModule):
        one_dim = isinstance(module.v_space, OneDim)
        m_type_x1 = isinstance(module.factors[1], MFactor)
        if one_dim and m_type_x1:
            verdict = epsilon_simplicity(module)
            criterion = {"simple": verdict.simple, "witness": verdict.witness,
                         "submodule": verdict.barrier}
            if verdict.simple:
                criterion["crossing"] = str(verdict.crossing)
            rep.add("epsilon-criterion", True, criterion)
            if not verdict.simple:
                n = verdict.witness
                inv = barrier_invariance_check(module, n)
                rep.add("barrier-invariance", inv.ok,
                        _invariance_detail(inv, f"x1^{n}", f"x1^{n + 1}"))
        else:
            kind = "Whittaker V" if isinstance(module.v_space, Whittaker) else "shift-type x1"
            _closure_check(rep, module, module.one(), ClosureReport.FILLS,
                           note=f"{kind}: simple for every parameter choice; "
                           "closure gives desk-scale evidence")
    elif isinstance(module, OmegaModule):
        vectors = simplicity_samples(module.ring, max_total_degree=3)
        # omega_reduce_to_one returns only a certificate whose checked replay ended at 1.
        replays = len([omega_reduce_to_one(module, v) for v in vectors])
        rep.add(
            "reduction-certificates",
            replays == len(vectors),
            {"replayed": replays, "samples": len(vectors)},
        )
        _closure_check(rep, module, module.one(), ClosureReport.FILLS)
    else:
        decision = simplicity_decision(module)
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
            rep.add("simplicity", inv.ok, _invariance_detail(
                inv, "1", f"s{decision.witness_pair[0]}", simple=False,
                witness_pair=decision.witness_pair, note=decision.note))
    return rep.finish(args.out)


# Blocks of at most this many rows are also expanded by cofactors (``naive_det``).
NAIVE_LIMIT = 6

# Bounds on the work of the det-lemma sweep, checked before any determinant:
# the rows of its largest block, max_m * max_s, and its spec count, the sum
# over m of P(len(alphas), m) * max_s^m.  The default sweep has blocks of at
# most 9 rows and 3528 specs (about 0.5 s).  A sweep at both bounds takes a
# few seconds; blocks of 80 rows ran for minutes.
MAX_DET_ROWS = 24
MAX_DET_SPECS = 10_000


def cmd_det_lemma(args) -> int:
    """The closed form of ``det_r`` at r = 0, which settles every r >= 0 (see ``det_r``)."""
    rep = Report("det-lemma")
    alphas = tuple(_rational(a, "--alphas") for a in args.alphas.split(","))
    if args.max_m > len(alphas):
        raise InvalidSpec(f"--max-m {args.max_m} exceeds the {len(alphas)} values of --alphas")
    rows = args.max_m * args.max_s
    if rows > MAX_DET_ROWS:
        raise InvalidSpec(f"--max-m/--max-s: the largest block, of {rows} rows, is above the "
                          f"bound {MAX_DET_ROWS} on the rows of a block")
    total = sum(perm(len(alphas), m) * args.max_s ** m for m in range(1, args.max_m + 1))
    if total > MAX_DET_SPECS:
        raise InvalidSpec(f"--alphas/--max-m/--max-s: the sweep's {total} specs are above the "
                          f"bound {MAX_DET_SPECS} on its specs")
    specs = 0
    mismatches = []
    naive_checked = 0
    naive_mismatches = []
    for m in range(1, args.max_m + 1):
        for subset in itertools.permutations(alphas, m):
            for sizes in itertools.product(range(1, args.max_s + 1), repeat=m):
                result = det_r(DetSpec(subset, sizes, 0))
                specs += 1
                case = {"alphas": [str(a) for a in subset], "sizes": sizes}
                if not result.ok:
                    mismatches.append(case)
                if sum(sizes) <= NAIVE_LIMIT:
                    naive_checked += 1
                    # The rows are scaled by their denominators, and so is the determinant.
                    if naive_det(result.rows) != result.computed * prod(result.denominators):
                        naive_mismatches.append(case)
    rep.add(
        "determinant-closed-form",
        not mismatches,
        {"specs": specs, "complete": True, "r": 0, "mismatches": mismatches[:5]},
    )
    rep.add(
        "naive-det-agreement",
        not naive_mismatches,
        {"checked": naive_checked, "limit": NAIVE_LIMIT,
         "mismatches": naive_mismatches[:5]},
    )
    return rep.finish(args.out)


def cmd_rank(args) -> int:
    rep = Report("rank")
    module = module_from_spec(_load_spec(args.spec))
    if isinstance(module, OmegaModule):
        if args.vector is not None:
            raise InvalidSpec("--vector applies to rank on a T spec, not an Omega spec")
        if not module.params.g:
            raise InvalidSpec("rank on an Omega spec needs a nonzero g")
        result = uh_rank(module)
        rep.add(
            "uh-rank",
            result.ok,
            {
                "rank": result.rank,
                "complete": True,
                "probes": ["1", "t"],
                "operators": {name: {"A": str(a), "B": str(b)}
                              for name, (a, b) in result.operators.items()},
                "facts": result.facts,
            },
            certificate=[{"operator": name, "probe": str(probe), "image": vector_report(image)}
                         for name, probe, image in result.images],
        )
    elif isinstance(module, TensorModule):
        if not module.distinct_lambdas():
            raise InvalidSpec("rank on a T spec needs pairwise distinct lambdas")
        v = module.one()
        if args.vector:
            v = _parse_vector(module.ring, args.vector)
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
                "complete": True,
                "orbit_points": orbit_points(module.index_degrees("a", v)),
            },
        )
    else:
        raise InvalidSpec("rank applies to Omega and T specs")
    return rep.finish(args.out)


def cmd_classify(args) -> int:
    rep = Report("classify")
    data = rank1_data_from_json(_load_spec(args.data))
    try:
        result = classify_rank1(data)
    except NotAModule as exc:
        rep.add("classify", False, {"rejected": True, "relation": exc.relation,
                                    "detail": exc.detail})
        return rep.finish(args.out)
    grid = {
        "complete": True,
        "commutators_checked": sum((d_m + 1) * (d_n + 1) for *_, d_m, d_n in rank1_grid(data)),
    }
    if isinstance(result, Degenerate):
        rep.add("classify", True, {"degenerate": True, "submodule": result.submodule, **grid})
    else:
        rep.add(
            "classify",
            True,
            {
                "degenerate": False,
                **grid,
                "alpha": str(result.alpha),
                "beta": str(result.beta),
                "gamma": str(result.gamma),
                "lambda": str(result.lam),
                "g": [str(c) for c in result.g],
            },
        )
    return rep.finish(args.out)


def _iso_module(path: str) -> RankOneProduct:
    """The module of an Omega or T spec; an Omega module is its own one-factor product."""
    module = module_from_spec(_load_spec(path))
    if not isinstance(module, RankOneProduct):
        raise InvalidSpec("isomorphism classification applies to Omega and T specs")
    return module


def cmd_iso(args) -> int:
    rep = Report("iso")
    left = _iso_module(args.left)
    right = _iso_module(args.right)
    try:
        result = iso_check(left, right)
    except RequiresSimple as exc:
        # As for rank: a repeated lambda is outside the command's domain, not a failed check.
        raise InvalidSpec(f"iso needs pairwise distinct lambdas: {exc}") from None

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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared by every later one.

    Building the eight subparsers costs far more than parsing with them, and
    a parser keeps no state between ``parse_args`` calls, so repeated
    ``main`` calls in one process reuse it.  It is not built at import, which
    every importer of ``cli`` would pay for.
    """
    parser = argparse.ArgumentParser(
        prog="wittdiamond",
        description="Exact verification suites for the Witt/loop-Diamond "
        "operator algebra and its module families.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify-brackets", help="antisymmetry and Jacobi sweep")
    p.add_argument("--out")
    p.set_defaults(func=cmd_verify_brackets)

    p = sub.add_parser("verify-hom", help="bracket compatibility of a generator table")
    p.add_argument("--map", choices=["ab", "abgg"], required=True)
    p.add_argument("--alpha", required=True)
    p.add_argument("--beta", required=True)
    p.add_argument("--gamma")
    p.add_argument("--g", help="polynomial in t, e.g. 't^2 + 1'")
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

    p = sub.add_parser("simplicity", help="simplicity verdict and the evidence behind it")
    p.add_argument("--spec", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_simplicity)

    p = sub.add_parser("det-lemma", help="generalized Vandermonde determinant sweep")
    p.add_argument("--max-m", type=_int_at_least(1), default=3)
    p.add_argument("--max-s", type=_int_at_least(1), default=3)
    p.add_argument("--alphas", default="1,2,3,5,7,-2")
    p.add_argument("--out")
    p.set_defaults(func=cmd_det_lemma)

    p = sub.add_parser("rank", help="free rank over the Cartan pair, or orbit rank")
    p.add_argument("--spec", required=True)
    p.add_argument("--vector", help="start vector of the orbit rank (T specs only)")
    p.add_argument("--out")
    p.set_defaults(func=cmd_rank)

    p = sub.add_parser("classify", help="identify rank-one action data")
    p.add_argument("--data", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("iso", help="canonical forms and isomorphism verdict")
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_iso)

    return parser


# Options whose value may be a negative rational: argparse reads a separate
# word such as "-2/3" or "-2,3" as an option, so it is joined to its option.
_RATIONAL_OPTIONS = ("--alpha", "--beta", "--gamma", "--alphas")


def _join_negative_values(argv: list[str]) -> list[str]:
    out: list[str] = []
    for word in argv:
        if out and out[-1] in _RATIONAL_OPTIONS and re.match(r"-[0-9.]", word):
            out[-1] += "=" + word
        else:
            out.append(word)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_join_negative_values(sys.argv[1:] if argv is None else argv))
    try:
        return args.func(args)
    except InvalidSpec as exc:
        print(f"spec error: {exc}", file=sys.stderr)
        return 2
    except (OSError, UnicodeDecodeError) as exc:
        print(f"file error: {exc}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(f"json error: {exc}", file=sys.stderr)
        return 2
    except AlgebraError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        # A spec number under the input limit of ``_load_spec`` can still give a
        # report number (a power of lambda, a certificate weight) over the limit.
        if "integer string conversion" not in str(exc):
            raise
        print("spec error: a report number has more digits than Python converts to text",
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
