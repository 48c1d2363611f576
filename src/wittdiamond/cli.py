"""Command-line front end.

Every subcommand runs a named list of checks and prints one PASS/FAIL line
per check.  ``main`` owns the run's report: it hands each subcommand an
empty ``Report``, writes the ``--out`` file and returns the exit code, 0
only if all checks passed (1 on mathematical failure, 2 on usage or spec
errors, or on input outside a result's hypotheses).
The commands take inputs only: every bound on the sampled or truncated
evidence is fixed, so each report reproduces byte for byte.
``verify-brackets`` reads no index window: it proves its identities as
polynomials in the indices.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import re
import sys
from math import perm, prod

from .axioms import simplicity_samples
from .exceptions import AlgebraError, InvalidSpec, NotAModule, NotApplicable
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
from .lie import identity_violations, parse_words
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
    simplicity_certificates,
    w_invariance_check,
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


def _module(path: str):
    """The module of a spec file (``--spec``, ``--left``, ``--right``)."""
    return module_from_spec(_load_spec(path))


def _option(option: str, parse, *args):
    """``parse(*args)``, with its ValueError or AlgebraError made a spec error of ``option``."""
    try:
        return parse(*args)
    except (ValueError, AlgebraError) as exc:
        raise InvalidSpec(f"{option}: {exc}") from None


# Bound on |n| of each generator index as written in `act --expr` (the brackets
# met in normalizing a word can raise an index further) and on |e| of an exponent
# in `act --vector` and `rank --vector`.  lam^n and the binomial rows of
# s -> s - n grow with n and e, so an eleven-digit index or a six-digit exponent
# would exhaust memory or run for minutes before any check is made.
MAX_INPUT_POWER = 1000

def _parse_vector(ring: PolyRing, text: str) -> SparsePoly:
    v = _option("--vector", parse_poly, ring, text)
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
    p = _option("--g", parse_poly, PolyRing(("t",), (False,)), text)
    deg = p.var_degree("t")
    if deg is None:
        return ()
    if deg > MAX_G_POWER:
        raise InvalidSpec(f"--g: the power {deg} of t is above the bound {MAX_G_POWER} "
                          "that a spec's g obeys")
    return tuple(p.coefficient((k,)) for k in range(deg + 1))


# -- subcommands -------------------------------------------------------------


def cmd_verify_brackets(args, rep: Report) -> None:
    """Antisymmetry and the Jacobi identity, for every index in Z, proved as
    polynomial identities in the indices (``lie.identity_violations``)."""
    for name, (ring, count, violations) in identity_violations().items():
        rep.add(name, not violations, {"complete": True, "for": "all indices", "ring": ring,
                                       "family_tuples": count, "violations": violations[:10]})


def _build_phi(args):
    if args.map == "ab":
        for option, value in (("--gamma", args.gamma), ("--g", args.g)):
            if value is not None:
                raise InvalidSpec(f"{option} is a parameter of the abgg map; the ab map has none")
        cls = CorruptedPhiAB if args.corrupted else PhiAB
        return cls(_option("--alpha", scalar, args.alpha), _option("--beta", scalar, args.beta))
    if args.corrupted:
        raise InvalidSpec("the negative control exists for the ab map only")
    return PhiABGG(
        _option("--alpha", scalar, args.alpha),
        _option("--beta", scalar, args.beta),
        _option("--gamma", scalar, args.gamma if args.gamma is not None else "0"),
        _parse_g_poly(args.g if args.g is not None else "0"),
    )


def cmd_verify_hom(args, rep: Report) -> None:
    phi = _build_phi(args)
    hom = verify_hom(phi)
    rep.add(
        "homomorphism",
        hom.ok,
        {
            "map": args.map,
            "complete": True,
            "window": hom.window,
            "max_index_degree": hom.max_index_degree,
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


def cmd_act(args, rep: Report) -> None:
    module = _module(args.spec)
    expr_text = Q_EXPRESSION if args.expr.strip() == "Q" else args.expr
    words = _option("--expr", parse_words, expr_text)
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


def _closure_check(rep: Report, module, **note) -> None:
    """Add the ``closure-oracle`` check: the truncated closure of 1 fills the truncation.

    A ``note`` keyword, if given, leads the detail.
    """
    closure = truncated_closure(module, module.one(), TruncationPolicy())
    rep.add("closure-oracle", closure.verdict == ClosureReport.FILLS, {
        **note,
        "expected": ClosureReport.FILLS,
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


def cmd_simplicity(args, rep: Report) -> None:
    module = _module(args.spec)

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
            _closure_check(rep, module, note=f"{kind}: simple for every parameter choice; "
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
        _closure_check(rep, module)
    else:
        pair = module.equal_lambda_pair()
        if pair is None:
            certificates = simplicity_certificates(module)
            rep.add(
                "simplicity",
                True,
                {
                    "simple": True,
                    "note": "certificate evidence at desk scale; the universal statement "
                    "is the distinct-lambda criterion",
                    "certificates": len(certificates),
                },
                certificate=[cert.to_jsonable() for cert in certificates],
            )
        else:
            i, j = pair
            inv = w_invariance_check(module, i, j)
            rep.add("simplicity", inv.ok, _invariance_detail(
                inv, "1", f"s{i}", simple=False, witness_pair=pair,
                note=f"witness subspace C[t{i},t{j}](s{i}+s{j})^p (x) rest is invariant "
                "under X[n] for every n in Z, by three probe vectors on index-complete "
                f"grids, and proper: 1 lies in it and s{i} does not"))


# Blocks of at most this many rows are also expanded by cofactors (``naive_det``).
NAIVE_LIMIT = 6

# Bounds on the work of the det-lemma sweep, checked before any determinant:
# the rows of its largest block, max_m * max_s, and its spec count, the sum
# over m of P(len(alphas), m) * max_s^m.  The default sweep has blocks of at
# most 9 rows and 3528 specs (about 0.27 s in process on a shared 2-vCPU x86_64
# host, Python 3.11).  A sweep at both bounds takes about 1.5 s; blocks of
# 80 rows ran for 12 s (two alphas, --max-m 2 --max-s 40).
MAX_DET_ROWS = 24
MAX_DET_SPECS = 10_000


def _det_case(alphas, sizes) -> dict:
    """The report record of one spec of the ``det-lemma`` sweep; built for a mismatch only."""
    return {"alphas": [str(a) for a in alphas], "sizes": sizes}


def cmd_det_lemma(args, rep: Report) -> None:
    """The closed form of ``det_r`` at r = 0, which settles every r >= 0 (see ``det_r``)."""
    alphas = tuple(_option("--alphas", scalar, a) for a in args.alphas.split(","))
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
                if not result.ok:
                    mismatches.append(_det_case(subset, sizes))
                if sum(sizes) <= NAIVE_LIMIT:
                    naive_checked += 1
                    # The rows are scaled by their denominators, and so is the determinant.
                    if naive_det(result.rows) != result.computed * prod(result.denominators):
                        naive_mismatches.append(_det_case(subset, sizes))
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


def cmd_rank(args, rep: Report) -> None:
    module = _module(args.spec)
    if isinstance(module, OmegaModule):
        if args.vector is not None:
            raise InvalidSpec("--vector applies to rank on a T spec, not an Omega spec")
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
        value = r_g(module, v)
        in_bottom = not any(module.s_profile(v))
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


def cmd_classify(args, rep: Report) -> None:
    data = rank1_data_from_json(_load_spec(args.data))
    try:
        result = classify_rank1(data)
    except NotAModule as exc:
        rep.add("classify", False, {"rejected": True, "relation": exc.relation,
                                    "detail": exc.detail})
        return
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


def _iso_module(path: str) -> RankOneProduct:
    """The module of an Omega or T spec; an Omega module is its own one-factor product."""
    module = _module(path)
    if not isinstance(module, RankOneProduct):
        raise InvalidSpec("isomorphism classification applies to Omega and T specs")
    return module


def cmd_iso(args, rep: Report) -> None:
    left = _iso_module(args.left)
    right = _iso_module(args.right)
    result = iso_check(left, right)

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


# -- argument parsing ---------------------------------------------------------


def _positive_int(text: str) -> int:
    """argparse type for an integer >= 1 in ASCII digits, so that no sweep can be empty."""
    if not re.fullmatch(r"[0-9]+", text):
        raise argparse.ArgumentTypeError(f"not an integer in the digits 0-9: {text!r}")
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


class _Parser(argparse.ArgumentParser):
    """A parser that names the unknown options when it reports missing required ones, which
    argparse does first: a mistyped ``--alp`` would read only as a missing ``--alpha``."""

    def parse_known_args(self, args=None, namespace=None):
        self._unknown = [w for w in args or () if w.startswith("--") and w != "--"
                         and w.split("=", 1)[0] not in self._option_string_actions]
        return super().parse_known_args(args, namespace)

    def error(self, message):
        if getattr(self, "_unknown", None) and message.startswith("the following arguments"):
            message += "; unrecognized arguments: " + " ".join(self._unknown)
        super().error(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared by every later one.

    Building the eight subparsers costs far more than parsing with them, and
    a parse reads nothing that an earlier one left, so repeated ``main``
    calls in one process reuse it.  It is not built at import, which every
    importer of ``cli`` would pay for.
    """
    parser = _Parser(
        prog="wittdiamond",
        allow_abbrev=False,
        description="Exact verification suites for the Witt/loop-Diamond "
        "operator algebra and its module families.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    def add_parser(name: str, **kwargs) -> argparse.ArgumentParser:
        # No abbreviated options: ``_join_signed_values`` knows the full names only.
        return sub.add_parser(name, allow_abbrev=False, **kwargs)

    p = add_parser("verify-brackets", help="antisymmetry and Jacobi identities in the indices")
    p.set_defaults(func=cmd_verify_brackets)

    p = add_parser("verify-hom", help="bracket compatibility of a generator table")
    p.add_argument("--map", choices=["ab", "abgg"], required=True)
    p.add_argument("--alpha", required=True)
    p.add_argument("--beta", required=True)
    p.add_argument("--gamma")
    p.add_argument("--g", help="polynomial in t, e.g. 't^2 + 1'")
    p.add_argument("--corrupted", action="store_true",
                   help="negative control: drop the index-linear term of d[n]")
    p.set_defaults(func=cmd_verify_hom)

    p = add_parser("act", help="apply an enveloping-algebra expression to a vector")
    p.add_argument("--spec", required=True)
    p.add_argument("--expr", required=True, help="e.g. 'Q' or 'b[0] a[0] - 2 c[1]'")
    p.add_argument("--vector", required=True, help="e.g. 'x0^2 x1^-1' or 's t^2'")
    p.set_defaults(func=cmd_act)

    p = add_parser("simplicity", help="simplicity verdict and the evidence behind it")
    p.add_argument("--spec", required=True)
    p.set_defaults(func=cmd_simplicity)

    p = add_parser("det-lemma", help="generalized Vandermonde determinant sweep")
    p.add_argument("--max-m", type=_positive_int, default=3)
    p.add_argument("--max-s", type=_positive_int, default=3)
    p.add_argument("--alphas", default="1,2,3,5,7,-2")
    p.set_defaults(func=cmd_det_lemma)

    p = add_parser("rank", help="free rank over the Cartan pair, or orbit rank")
    p.add_argument("--spec", required=True)
    p.add_argument("--vector", help="start vector of the orbit rank (T specs only)")
    p.set_defaults(func=cmd_rank)

    p = add_parser("classify", help="identify rank-one action data")
    p.add_argument("--data", required=True)
    p.set_defaults(func=cmd_classify)

    p = add_parser("iso", help="canonical forms and isomorphism verdict")
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    p.set_defaults(func=cmd_iso)

    for p in sub.choices.values():
        p.add_argument("--out")
    return parser


# Options whose value may start with a sign: argparse reads a separate word
# such as "-2/3", "-s" or "-L[1]" as an option, so it is joined to its option.
_VALUE_OPTIONS = ("--alpha", "--beta", "--gamma", "--alphas", "--g", "--vector", "--expr")


def _join_signed_values(argv: list[str]) -> list[str]:
    out: list[str] = []
    for word in argv:
        if out and out[-1] in _VALUE_OPTIONS and re.match(r"-(?!-)", word):
            out[-1] += "=" + word
        else:
            out.append(word)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_join_signed_values(sys.argv[1:] if argv is None else argv))
    try:
        rep = Report(args.command)
        args.func(args, rep)
        return rep.finish(args.out)
    except (InvalidSpec, NotApplicable) as exc:
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
