"""Seeded check suites for the four benchmark workloads.

A *check* is one call into wittdiamond that yields one verdict.  Every
expected verdict is derived from how the benchmark built the input (a
theorem of the paper, a corruption it planted, a permutation it chose, a
closed form it evaluates itself), never from the code under test.

Each workload builds one *pass*: a list of checks whose structure is fixed
and whose values (rationals, vectors, permutations) come from the seed and
the pass index, so every pass is fresh input of the same shape.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import wittdiamond.axioms as axioms
import wittdiamond.cli as cli
import wittdiamond.fock as fock
import wittdiamond.homomorphisms as homs
import wittdiamond.lie as lie
import wittdiamond.omega as omega
import wittdiamond.operators as operators
import wittdiamond.oracle as oracle
import wittdiamond.tensor as tensor
from wittdiamond.poly import PolyRing, SparsePoly


@dataclass
class Check:
    kind: str
    run: Callable[[], object]
    expected: object


# -- seeded values -----------------------------------------------------------


# Values are seeded; shapes (degrees, exponent patterns, counts) are fixed, and
# every parameter is nonzero.  A zero parameter or a seeded degree would drop
# or add terms and change a check's cost several-fold from seed to seed,
# which would hide a program change behind input noise.


def nz(rng: random.Random, top: int = 5) -> Fraction:
    """Nonzero rational +-n/d with 1 <= n <= top and d in {1, 2, 3, 4}."""
    return Fraction(rng.randint(1, top), rng.choice((1, 1, 2, 3, 4))) * rng.choice((1, -1))


def poly_g(rng: random.Random, degree: int) -> tuple[Fraction, ...]:
    return tuple(nz(rng, 3) for _ in range(degree + 1))


def shaped_vector(ring: PolyRing, rng: random.Random, shape) -> SparsePoly:
    return SparsePoly(ring, {tuple(e): nz(rng, 3) for e in shape})


def omega_params(rng: random.Random, lam: Fraction, g_degree: int) -> omega.OmegaParams:
    return omega.OmegaParams(nz(rng), nz(rng), nz(rng), lam, poly_g(rng, g_degree))


# -- hom_verify --------------------------------------------------------------

HOM_WINDOW = 3
SWEEP_WINDOW = 1
# Degree 3 costs most; with three of them per pass, the six passes of a 15 s
# run put the tail percentile (ten checks beyond it) in the middle of their
# block rather than on its edge.  The five PhiAB tuples, degrees 0 and 1 and
# the control cost about the same and fill the middle of a pass, where the
# median falls.
ABGG_DEGREES = (0, 1, 2, 3, 3, 3)
AB_TUPLES = 5


def _hom(phi, window: int):
    rep = homs.verify_hom(phi, window)
    return rep.ok, rep.pairs_checked


def _witnesses(phi, build):
    wit = build(phi)
    return len(wit), homs.check_all_witnesses(phi, wit)


def _bracket_sweep(window: int):
    gens = lie.generators_in_window(window)
    anti = sum(1 for x in gens for y in gens
               if not (lie.bracket(x, y) + lie.bracket(y, x)).is_zero)
    jac = sum(1 for x, y, z in itertools.product(gens, repeat=3)
              if not lie.jacobi_residual(x, y, z).is_zero)
    return len(gens) ** 3, anti, jac


def _weyl_relations(algebra, exps) -> list[bool]:
    """[d_i, x^e] = e_i x^(e - unit_i) in a Weyl algebra, for each coordinate i."""
    zero = (0,) * len(exps)
    x = operators.OperatorElement.monomial(algebra, (exps, zero))
    out = []
    for i, e in enumerate(exps):
        unit = tuple(int(k == i) for k in range(len(exps)))
        d = operators.OperatorElement.monomial(algebra, (zero, unit))
        want = {(tuple(a - b for a, b in zip(exps, unit)), zero): Fraction(e)} if e else {}
        out.append(operators.commutator(d, x).terms == want)
    return out


def _ub_relations(powers) -> list[bool]:
    """[h, e^j] = j e^j in U(b)."""
    h = operators.OperatorElement.monomial(operators.UB, (1, 0))
    return [operators.commutator(h, operators.OperatorElement.monomial(operators.UB, (0, j))).terms
            == {(0, j): Fraction(j)} for j in powers]


def hom_verify_pass(rng: random.Random, workdir: str) -> list[Check]:
    n_gens = 5 * (2 * HOM_WINDOW + 1)
    pairs = n_gens * (n_gens + 1) // 2
    checks = []
    ab = [homs.PhiAB(nz(rng), nz(rng)) for _ in range(AB_TUPLES)]
    for phi in ab:
        checks.append(Check("verify_hom/ab", lambda phi=phi: _hom(phi, HOM_WINDOW), (True, pairs)))
    abgg = []
    for g_degree in ABGG_DEGREES:
        abgg.append(homs.PhiABGG(nz(rng), nz(rng), nz(rng), poly_g(rng, g_degree)))
    for phi in abgg:
        checks.append(Check("verify_hom/abgg", lambda phi=phi: _hom(phi, HOM_WINDOW), (True, pairs)))
    # Negative control: d[n] loses its n x0^n (x) e term, which [L_m, d_n] = n d_{m+n} sees.
    bad = homs.CorruptedPhiAB(nz(rng), nz(rng))
    checks.append(Check("verify_hom/corrupted", lambda: _hom(bad, HOM_WINDOW), (False, pairs)))
    checks.append(Check("witnesses/ab", lambda: _witnesses(ab[0], homs.image_witnesses), (7, [])))
    checks.append(Check("witnesses/abgg",
                        lambda: _witnesses(abgg[-1], homs.surjectivity_witnesses), (4, [])))
    # Defining relations of the target algebras, through the operator product.
    weyl = [(operators.R2, (rng.randint(-3, 3), rng.randint(-3, 3))),
            (operators.R0, (rng.randint(-3, 3),)), (operators.DIFFOP, (rng.randint(1, 4),))]
    checks.append(Check("operator_relations/weyl",
                        lambda: [ok for alg, e in weyl for ok in _weyl_relations(alg, e)],
                        [True] * 4))
    powers = rng.sample(range(1, 6), 3)
    checks.append(Check("operator_relations/ub", lambda: _ub_relations(powers), [True] * 3))
    triples = (5 * (2 * SWEEP_WINDOW + 1)) ** 3
    checks.append(Check("bracket_sweep", lambda: _bracket_sweep(SWEEP_WINDOW), (triples, 0, 0)))
    return checks


# -- module_axioms -----------------------------------------------------------

AXIOM_WINDOW = 2


def _axioms(module, vectors):
    rep = axioms.module_axiom_check(module, AXIOM_WINDOW, vectors)
    return rep.pairs_checked, len(rep.violations)


# Q = b[0] a[0] + c[0] d[0], applied both directly and as an enveloping-algebra element.
Q_TEXT = "b[0] a[0] + c[0] d[0]"


def _q_is_eps(module, q, vectors):
    eps = module.v_space.eps
    out = []
    for v in vectors:
        want = {e: c * eps for e, c in v.terms.items()}
        out.append(fock.q_action(module, v).terms == want
                   and axioms.apply_uenv(module, q, v).terms == want)
    return out


def _f_module(rng, factor0, factor1, v_space):
    return fock.FModule(nz(rng), nz(rng), factor0, factor1, v_space)


# Three monomials of total degree 3, 2 and 1 per family; negative exponents
# only on Laurent variables.
SHAPES = {
    "F(M,C_eps)": [(2, 1), (0, -2), (-1, 0)],
    "F(Omega,C_eps)": [(2, 1), (0, 2), (1, 0)],
    "F(M,Whittaker)": [(2, 0, 1), (0, -1, 1), (-1, 0, 0)],
    "F(P0xM,C_eps)": [(2, 1), (0, -2), (1, 0)],
    "Omega": [(2, 1), (0, 2), (1, 0)],
    "T(m=2)": [(2, 0, 0, 1), (0, 1, 1, 0), (0, 0, 0, 1)],
}


def module_axioms_pass(rng: random.Random, workdir: str) -> list[Check]:
    families = [
        ("F(M,C_eps)", _f_module(rng, fock.MFactor(nz(rng)), fock.MFactor(nz(rng)),
                                 fock.OneDim(nz(rng)))),
        ("F(Omega,C_eps)", _f_module(rng, fock.OmegaFactor(nz(rng)), fock.OmegaFactor(nz(rng)),
                                     fock.OneDim(nz(rng)))),
        ("F(M,Whittaker)", _f_module(rng, fock.MFactor(nz(rng)), fock.MFactor(nz(rng)),
                                     fock.Whittaker())),
        ("F(P0xM,C_eps)", _f_module(rng, fock.OmegaFactor(nz(rng)), fock.MFactor(nz(rng)),
                                    fock.OneDim(nz(rng)))),
        ("Omega", omega.OmegaModule(omega_params(rng, nz(rng), 1))),
    ]
    # T(m=2) is the slowest family; three tuples per pass, over the six passes
    # of a 15 s run, make it the block the tail percentile falls in.
    families += [("T(m=2)", tensor.TensorModule([
        omega_params(rng, lam, 0) for lam in rng.sample([2, 3, -2, 5, Fraction(1, 2)], 2)
    ])) for _ in range(3)]
    n_gens = 5 * (2 * AXIOM_WINDOW + 1)
    pairs = n_gens * (n_gens + 1) // 2
    q = lie.parse_uenv(Q_TEXT)
    checks = []
    for name, module in families:
        vectors = [shaped_vector(module.ring, rng, SHAPES[name])]
        checks.append(Check(f"axioms/{name}", lambda m=module, vs=vectors: _axioms(m, vs),
                            (pairs * len(vectors), 0)))
        if isinstance(module, fock.FModule) and isinstance(module.v_space, fock.OneDim):
            qvecs = [shaped_vector(module.ring, rng, SHAPES[name]) for _ in range(3)]
            checks.append(Check(f"q_eps/{name}", lambda m=module, vs=qvecs: _q_is_eps(m, q, vs),
                                [True] * len(qvecs)))
    return checks


# -- certify -----------------------------------------------------------------


def _cli(argv: list[str], out: str):
    """Run one CLI subcommand in-process; (exit code, report or None).

    An argument error exits through SystemExit, as it would on the command
    line; its code is the exit code, compared like any other.
    """
    if os.path.exists(out):
        os.remove(out)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv + ["--out", out])
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
    report = None
    if os.path.exists(out):
        with open(out) as fh:
            report = json.load(fh)
    return code, report


def _detail(report, check: str) -> dict:
    for entry in report["checks"]:
        if entry["check"] == check:
            return entry.get("detail", {})
    return {}


def _statuses(report) -> list[tuple[str, str]]:
    return [(c["check"], c["status"]) for c in report["checks"]] if report else []


def _omega_spec(par: omega.OmegaParams) -> dict:
    return {
        "alpha": str(par.alpha), "beta": str(par.beta), "gamma": str(par.gamma),
        "lambda": str(par.lam), "g": [[k, str(c)] for k, c in enumerate(par.g) if c],
    }


def _write(workdir: str, name: str, obj) -> str:
    path = os.path.join(workdir, name)
    with open(path, "w") as fh:
        json.dump(obj, fh)
    return path


def _rank1_data(par: omega.OmegaParams) -> dict:
    """Action data of an Omega module, written out from its defining formulas.

    p = alpha, B0 = g(a0), C0 = -beta, D0 = (a0 g(a0) + gamma) / beta, as
    [[L0_power, a0_power], "coef"] terms.
    """
    def poly(terms: dict[int, Fraction]):
        return [[[0, k], str(c)] for k, c in sorted(terms.items()) if c]

    d0 = {k + 1: c / par.beta for k, c in enumerate(par.g)}
    d0[0] = d0.get(0, Fraction(0)) + par.gamma / par.beta
    return {
        "lambda": str(par.lam),
        "p": poly({0: par.alpha}),
        "B0": poly(dict(enumerate(par.g))),
        "C0": poly({0: -par.beta}),
        "D0": poly(d0),
    }


def _perturb(par: omega.OmegaParams, field: str, rng, taken_lams) -> omega.OmegaParams:
    kw = {"alpha": par.alpha, "beta": par.beta, "gamma": par.gamma, "lam": par.lam, "g": par.g}
    if field == "lam":
        kw["lam"] = next(x for x in (7, -7, 11, -11, 13) if x not in taken_lams)
    elif field == "beta":
        kw["beta"] = par.beta + 1 if par.beta != -1 else Fraction(2)
    elif field == "g":
        kw["g"] = par.g + (nz(rng, 3),)
    else:
        kw[field] = kw[field] + rng.choice((1, -1))
    return omega.OmegaParams(**kw)


LAMBDAS = [2, 3, 5, -2, -3, Fraction(1, 2), Fraction(3, 2)]
# The repeated-lambda simplicity check costs about ten times any other and
# the round-trips come next.  With the four passes of a 15 s run the tail
# percentile (ten checks beyond it) falls inside the round-trip block.
CLASSIFY_ROUND_TRIPS = 3
RANK_DEGREES = (1, 2, 3)


def certify_pass(rng: random.Random, workdir: str) -> list[Check]:
    out = os.path.join(workdir, "report.json")
    checks = []

    def add(kind, argv, observe, expected):
        checks.append(Check(kind, lambda: observe(*_cli(argv, out)), expected))

    # simplicity: Omega modules are simple, so every reduction replays and
    # the closure from 1 fills the truncation.
    om = omega_params(rng, nz(rng), 2)
    path = _write(workdir, "omega.json", {"family": "Omega", **_omega_spec(om)})
    add("simplicity/Omega", ["simplicity", "--spec", path],
        lambda code, rep: (code, _statuses(rep), _detail(rep, "reduction-certificates")["replayed"]),
        (0, [("reduction-certificates", "pass"), ("closure-oracle", "pass")], 5))

    # simplicity: T with pairwise distinct lambdas is simple.
    for m in (2, 3):
        lams = rng.sample(LAMBDAS, m)
        spec = {"family": "T", "factors": [_omega_spec(omega_params(rng, lam, 0)) for lam in lams]}
        path = _write(workdir, f"t{m}.json", spec)
        add(f"simplicity/T(m={m})", ["simplicity", "--spec", path],
            lambda code, rep: (code, _detail(rep, "simplicity").get("simple"),
                               _detail(rep, "simplicity").get("certificates")),
            (0, True, 5))

    # simplicity: P0 (x) M_w (x) C_eps is simple iff -eps/beta - w is not an integer.
    beta, w = nz(rng), nz(rng)
    crossing = Fraction(2 * rng.randint(-4, 4) + 1, 2)
    eps = -beta * (crossing + w)
    f_simple = {"family": "F", "alpha": str(nz(rng)), "beta": str(beta),
                "P": {"kind": "M", "w": [str(nz(rng)), str(w)]},
                "V": {"kind": "C_eps", "eps": str(eps)}}
    path = _write(workdir, "f_simple.json", f_simple)
    add("simplicity/F", ["simplicity", "--spec", path],
        lambda code, rep: (code, _detail(rep, "epsilon-criterion").get("simple")), (0, True))
    beta, w, n0 = nz(rng), nz(rng), rng.randint(-2, 2)
    f_proper = {"family": "F", "alpha": str(nz(rng)), "beta": str(beta),
                "P": {"kind": "M", "w": [str(nz(rng)), str(w)]},
                "V": {"kind": "C_eps", "eps": str(-beta * (w + n0))}}
    path = _write(workdir, "f_proper.json", f_proper)
    add("simplicity/F-proper", ["simplicity", "--spec", path],
        lambda code, rep: (code, _detail(rep, "epsilon-criterion").get("simple"),
                           _detail(rep, "epsilon-criterion").get("witness")),
        (0, False, n0))

    # simplicity: a repeated lambda at factors (1, 2) leaves an invariant witness subspace.
    lam = rng.choice(LAMBDAS)
    spec = {"family": "T", "factors": [_omega_spec(omega_params(rng, lam, 0)) for _ in range(2)]}
    path = _write(workdir, "t_equal.json", spec)
    add("simplicity/T-repeated", ["simplicity", "--spec", path],
        lambda code, rep: (code, _detail(rep, "simplicity").get("simple"),
                           _detail(rep, "simplicity").get("witness_pair"),
                           _detail(rep, "simplicity").get("escapes")),
        (0, False, [1, 2], []))

    # rank: Omega is free of rank deg g + 1 over the Cartan pair.
    # Degree 1 costs about as much as simplicity on T(m=2), and degrees 2 and 3
    # as much as the dearer checks; so as many checks of a pass cost less than
    # those two as cost more, and the median falls between them.
    for g_degree in RANK_DEGREES:
        om = omega_params(rng, nz(rng), g_degree)
        path = _write(workdir, f"omega_rank{g_degree}.json", {"family": "Omega", **_omega_spec(om)})
        add("rank/Omega", ["rank", "--spec", path],
            lambda code, rep: (code, _detail(rep, "uh-rank").get("rank")), (0, g_degree + 1))

    # rank: on T the orbit rank is m + 1 exactly on vectors free of every s_k.
    m = 2
    lams = rng.sample(LAMBDAS, m)
    spec = {"family": "T", "factors": [_omega_spec(omega_params(rng, lam, 0)) for lam in lams]}
    path = _write(workdir, "t_rank.json", spec)
    t_only = f"{rng.randint(1, 3)} t1^{rng.randint(1, 2)} + t2^{rng.randint(0, 2)}"
    mixed = f"s{rng.randint(1, 2)} t{rng.randint(1, 2)} + {rng.randint(1, 3)} t1"
    for kind, text, equal in (("rank/T-t-only", t_only, True), ("rank/T-mixed", mixed, False)):
        add(kind, ["rank", "--spec", path, "--vector", text],
            lambda code, rep, m=m: (code, _detail(rep, "r-g").get("value") == m + 1), (0, equal))

    # classify: data written from Omega parameters returns those parameters;
    # a p that depends on a0 breaks [L_m, b_n] = n b_{m+n} and exits 1.
    for k in range(CLASSIFY_ROUND_TRIPS):
        par = omega_params(rng, nz(rng), 2)
        data = _rank1_data(par)
        path = _write(workdir, f"data{k}.json", data)
        add("classify/round-trip", ["classify", "--data", path],
            lambda code, rep: (code, {key: v for key, v in _detail(rep, "classify").items()
                                      if key in ("alpha", "beta", "gamma", "lambda", "g")}),
            (0, {"alpha": str(par.alpha), "beta": str(par.beta), "gamma": str(par.gamma),
                 "lambda": str(par.lam), "g": [str(c) for c in par.g]}))
    corrupted = dict(data, p=data["p"] + [[[0, 1], str(nz(rng, 3))]])
    path = _write(workdir, "data_bad.json", corrupted)
    add("classify/corrupted", ["classify", "--data", path],
        lambda code, rep: code, 1)

    # iso: a permuted tensor product is isomorphic via that permutation; a
    # single-field perturbation is told apart by that field's invariant.
    lams = rng.sample(LAMBDAS, 3)
    left = [omega_params(rng, lam, 1) for lam in lams]
    perm = rng.sample(range(3), 3)
    left_path = _write(workdir, "iso_left.json",
                       {"family": "T", "factors": [_omega_spec(p) for p in left]})
    right_path = _write(workdir, "iso_perm.json",
                        {"family": "T", "factors": [_omega_spec(left[i]) for i in perm]})
    def iso_fields(code, rep):
        detail = _detail(rep, "iso")
        return (code, detail.get("isomorphic"), detail.get("permutation"),
                detail.get("distinguishing_invariant"))

    add("iso/permuted", ["iso", "--left", left_path, "--right", right_path], iso_fields,
        (0, True, [i + 1 for i in perm], None))
    for field in rng.sample(("alpha", "beta", "gamma", "lam", "g"), 2):
        k = rng.randrange(3)
        right = list(left)
        right[k] = _perturb(left[k], field, rng, lams)
        right_path = _write(workdir, f"iso_{field}.json",
                            {"family": "T", "factors": [_omega_spec(p) for p in right]})
        add("iso/perturbed", ["iso", "--left", left_path, "--right", right_path], iso_fields,
            (0, False, None, "lambda" if field == "lam" else field))
    return checks


# -- det_lemma ---------------------------------------------------------------

NAIVE_LIMIT = 6
# Bareiss only, on blocks several times dearer than any other check: their
# four per pass hold the tail percentile (ten checks beyond it), so it reads
# the program rather than whichever small check a burst of host load hit.
LARGE_SIZES = (6, 6, 6, 6, 6)
LARGE_PER_PASS = 4


def superfactorial(n: int) -> int:
    return math.prod(math.factorial(i) for i in range(1, n + 1))


def vandermonde_closed_form(alphas, sizes, r: int) -> Fraction:
    """Generalized Vandermonde determinant of rows n^x alpha^n, n = r..r+N-1."""
    out = Fraction(1)
    for a, s in zip(alphas, sizes):
        out *= superfactorial(s - 1) * Fraction(a) ** (s * (s + 2 * r - 1) // 2)
    for i, j in itertools.combinations(range(len(alphas)), 2):
        out *= Fraction(alphas[j] - alphas[i]) ** (sizes[i] * sizes[j])
    return out


def _det(spec, naive: bool):
    computed = tensor.det_r(spec).computed
    return computed, oracle.naive_det(tensor.det_matrix(spec)) if naive else None


def det_lemma_pass(rng: random.Random, workdir: str) -> list[Check]:
    pool = [a for a in range(-7, 8) if a] + [Fraction(1, 2), Fraction(-2, 3)]
    alphas = rng.sample(pool, 6)
    shapes = [sizes for m in (1, 2, 3) for sizes in itertools.product(range(1, 5), repeat=m)]
    shapes += list(itertools.product(range(1, 4), repeat=4))
    checks = []
    for sizes, r, _ in itertools.product(shapes, range(3), range(2)):
        subset = tuple(rng.sample(alphas, len(sizes)))
        spec = tensor.DetSpec(subset, sizes, r)
        closed = vandermonde_closed_form(subset, sizes, r)
        naive = sum(sizes) <= NAIVE_LIMIT
        checks.append(Check("det/naive" if naive else "det/bareiss",
                            lambda spec=spec, naive=naive: _det(spec, naive),
                            (closed, closed if naive else None)))
    for _ in range(LARGE_PER_PASS):
        subset, r = tuple(rng.sample(alphas, len(LARGE_SIZES))), rng.randrange(3)
        spec = tensor.DetSpec(subset, LARGE_SIZES, r)
        checks.append(Check("det/bareiss-large", lambda spec=spec: _det(spec, False),
                            (vandermonde_closed_form(subset, LARGE_SIZES, r), None)))
    return checks


WORKLOADS = {
    "hom_verify": hom_verify_pass,
    "module_axioms": module_axioms_pass,
    "certify": certify_pass,
    "det_lemma": det_lemma_pass,
}


def build_pass(workload: str, seed: int, index: int, workdir: str) -> list[Check]:
    """The checks of pass ``index``; the same (seed, index) gives the same inputs."""
    rng = random.Random(f"{workload}:{seed}:{index}")
    return WORKLOADS[workload](rng, workdir)
