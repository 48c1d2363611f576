"""Tensor products of rank-one free modules on C[s_1, t_1, ..., s_m, t_m].

Generators act by the Leibniz rule through the one-factor actions; the
k-th factor touches only (s_k, t_k).  Degrees are lexicographic on the
exponent vector (p_1..p_m, q_1..q_m), with the zero vector below every
degree.  All span extractions rest on the invertibility of generalized
Vandermonde matrices with rows n^x lam_k^n over consecutive integers n,
which is certified by the closed-form determinant of ``det_r``: with
distinct scales every certificate step is an ``omega.orbit_component``,
the n^x lam_k^n part of an orbit as one fixed combination of its images,
or the derivative step ``omega.dt_step`` built from two such parts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm, prod
from typing import Sequence

from .axioms import simplicity_samples
from .certificates import CertStep, Certificate, require
from .exceptions import InvalidSpec, NotApplicable, RequiresSimple, ZeroVector
from .lie import Generator
from .linalg import SpanBasis, exact_det
# Not called here; perfbench/selftest.py checks that its tracer rebinds this binding.
from .linalg import combination  # noqa: F401
from .omega import (
    DERIVATIVE_MISSED, EXTRACTION_MISSED, InvarianceReport, OmegaParams, dt_step, index_degrees,
    invariance_check, omega_factor_act, orbit, orbit_component
)
from .poly import PolyRing, SparsePoly
from .scalars import ONE, add_scaled, scalar, superfactorial


class TensorModule:
    def __init__(self, factors: Sequence[OmegaParams]):
        if not factors:
            raise InvalidSpec("a tensor product needs at least one factor")
        self.factors = tuple(factors)
        m = len(self.factors)
        names = tuple(f"s{k}" for k in range(1, m + 1)) + tuple(
            f"t{k}" for k in range(1, m + 1)
        )
        self.ring = PolyRing(names, (False,) * (2 * m))
        self._factor_vars = tuple((par, f"s{k}", f"t{k}") for k, par in enumerate(self.factors, 1))
        self.orbit_weights: dict = {}  # ``omega.orbit_component``'s weights, by (degrees, lam, x)

    @property
    def m(self) -> int:
        return len(self.factors)

    def one(self) -> SparsePoly:
        return self.ring.one()

    def svar(self, k: int) -> str:
        return f"s{k}"

    def tvar(self, k: int) -> str:
        return f"t{k}"

    def act(self, g: Generator, v: SparsePoly) -> SparsePoly:
        out: dict = {}
        for par, svar, tvar in self._factor_vars:
            add_scaled(out, omega_factor_act(par, self.ring, svar, tvar, g, v).terms)
        return v._like(out)

    def distinct_lambdas(self) -> bool:
        lams = [f.lam for f in self.factors]
        return len(set(lams)) == len(lams)

    def equal_lambda_pair(self) -> tuple[int, int] | None:
        seen: dict[Fraction, int] = {}
        for k, f in enumerate(self.factors, start=1):
            if f.lam in seen:
                return (seen[f.lam], k)
            seen[f.lam] = k
        return None

    def s_profile(self, v: SparsePoly) -> list[int]:
        """Max s_k-exponent per factor over the support (0 if absent)."""
        prof = [0] * self.m
        for exps in v.terms:
            for k in range(self.m):
                prof[k] = max(prof[k], exps[k])
        return prof

    def index_degrees(self, family: str, v: SparsePoly) -> dict[Fraction, int]:
        """The bounds D_lam of ``omega.index_degrees`` for the X-orbit of v."""
        return index_degrees([f.lam for f in self.factors], self.s_profile(v), family)


# -- the generalized Vandermonde determinant --------------------------------


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass(frozen=True)
class DetSpec:
    alphas: tuple[Fraction, ...]
    sizes: tuple[int, ...]
    r: int

    def __post_init__(self):
        object.__setattr__(self, "alphas", tuple(scalar(a) for a in self.alphas))
        object.__setattr__(self, "sizes", tuple(self.sizes))
        if len(self.alphas) != len(self.sizes):
            raise InvalidSpec("one size per alpha required")
        if any(a == 0 for a in self.alphas):
            raise InvalidSpec("alphas must be nonzero")
        if len(set(self.alphas)) != len(self.alphas):
            raise InvalidSpec("alphas must be pairwise distinct")
        if not all(_is_int(s) for s in self.sizes):
            raise InvalidSpec("sizes must be integers")
        if any(s < 1 for s in self.sizes):
            raise InvalidSpec("sizes must be at least 1")
        if not _is_int(self.r) or self.r < 0:
            raise InvalidSpec("row offset must be a natural number")


def det_rows(spec: DetSpec) -> tuple[list[list[int]], list[int]]:
    """Integer rows n = r .. r+s-1 of the functions n^x alpha_t^n, and their scales.

    Row p is the rational row times ``D_p = lcm_t den(alpha_t)^p = L^p`` with
    ``L = lcm_t den(alpha_t)``, so entry (p, (t, x)) is the integer
    ``c_t^p * p^x`` with ``c_t = num(alpha_t) * (L // den(alpha_t))``.  The
    powers ``c_t^p`` and ``L^p`` are running products over the rows, and p^x a
    running product along the block, so row p = 0 starts from 0^0 = 1.
    """
    scale = lcm(*(a.denominator for a in spec.alphas))
    bases = [a.numerator * (scale // a.denominator) for a in spec.alphas]
    powers = [c**spec.r for c in bases]
    denominator = scale**spec.r
    rows = []
    denominators = []
    for p in range(spec.r, spec.r + sum(spec.sizes)):
        row = []
        for t, s in enumerate(spec.sizes):
            px = powers[t]
            for _ in range(s):
                row.append(px)
                px *= p
            powers[t] *= bases[t]
        rows.append(row)
        denominators.append(denominator)
        denominator *= scale
    return rows, denominators


def det_matrix(spec: DetSpec) -> list[list[Fraction]]:
    """The rational rows n^x alpha_t^n of ``det_rows``, each divided by its scale."""
    rows, denominators = det_rows(spec)
    return [[Fraction(x, d) for x in row] for row, d in zip(rows, denominators)]


@dataclass
class DetResult:
    computed: Fraction
    closed_form: Fraction
    rows: list[list[int]] = field(compare=False, repr=False)
    denominators: list[int] = field(compare=False, repr=False)

    @property
    def ok(self) -> bool:
        return self.computed == self.closed_form


def det_r(spec: DetSpec) -> DetResult:
    """Exact determinant against its closed-form product.

    The determinant is taken on the integer rows of ``det_rows`` and divided
    by the product of their scales.  The closed form
    ``prod_t sf(s_t - 1) alpha_t^(s_t(s_t-1)/2 + r s_t)
    * prod_{i<j} (alpha_j - alpha_i)^(s_i s_j)`` is accumulated as an integer
    numerator and denominator and becomes one Fraction at the end.

    The case r = 0 settles every r >= 0.  With n = p + r,
    ``(p+r)^x alpha^(p+r) = alpha^r sum_{y<=x} C(x, y) r^(x-y) p^y alpha^p``,
    so ``M_r = M_0 B`` with B block-diagonal, block t being ``alpha_t^r``
    times an upper unitriangular matrix.  Hence
    ``det_r = det_0 * prod_t alpha_t^(r s_t)``, which is exactly how the
    closed form depends on r.
    """
    rows, denominators = det_rows(spec)
    computed = exact_det(rows) / prod(denominators)
    num = den = 1
    alphas = spec.alphas
    for a, s in zip(alphas, spec.sizes):
        e = s * (s - 1) // 2 + spec.r * s
        num *= superfactorial(s - 1) * a.numerator**e
        den *= a.denominator**e
    for i in range(len(alphas)):
        for j in range(i + 1, len(alphas)):
            e = spec.sizes[i] * spec.sizes[j]
            ai, aj = alphas[i], alphas[j]
            num *= (aj.numerator * ai.denominator - ai.numerator * aj.denominator) ** e
            den *= (ai.denominator * aj.denominator) ** e
    return DetResult(computed=computed, closed_form=Fraction(num, den),
                     rows=rows, denominators=denominators)


# -- spans and extractions ---------------------------------------------------


def span_NXg(module: TensorModule, family: str, g: SparsePoly) -> tuple[list[SparsePoly], int]:
    """Basis and dimension of span{g, X_n g : n in Z} for X in {L, a}.

    The ``omega.orbit`` images already span every X_n g, so one pass over
    them gives the span exactly.
    """
    if family not in ("L", "a"):
        raise ValueError("the span is defined for the L and a families")
    if g.is_zero:
        raise ZeroVector("span of the zero vector")
    basis = SpanBasis()
    basis.add(g.terms)
    for _, image in orbit(module, family, g):
        basis.add(image.terms)
    vectors = [SparsePoly(module.ring, dict(v)) for v in basis.vectors()]
    return vectors, basis.dim


def _shifted_target(module: TensorModule, g: SparsePoly, which: int, k: int) -> SparsePoly:
    m = module.m
    if which == 9:
        return g.mul_var(module.svar(k))
    if which == 10:
        return g.mul_var(module.tvar(k))
    if which == 11:
        pk = module.s_profile(g)[k - 1]
        out = {}
        for exps, c in g.terms.items():
            if exps[k - 1] == pk:
                e = list(exps)
                e[k - 1] = 0
                e[m + k - 1] += 1
                out[tuple(e)] = c
        return SparsePoly(module.ring, out)
    raise ValueError("which must be one of 9, 10, 11")


def lemma42_extract(module: TensorModule, g: SparsePoly, k: int,
                    which: int) -> tuple[SparsePoly, Certificate]:
    """One of the three basic span members, with its explicit combination.

    which = 9:  multiply by s_k, extracted from the L-orbit;
    which = 10: multiply by t_k, extracted from the a-orbit;
    which = 11: strip the top s_k-power and bump t_k, from the a-orbit.

    The one step is checked against the target by one replay.
    """
    if not module.distinct_lambdas():
        raise NotApplicable("requires pairwise distinct lambdas")
    if g.is_zero:
        raise ZeroVector("extraction from the zero vector")
    if not 1 <= k <= module.m:
        raise ValueError("factor index out of range")
    step, target = _extraction(module, g, which, k)
    cert = Certificate([step])
    cert.replay(module, g, [(target, EXTRACTION_MISSED)])
    return target, cert


def _extraction(module: TensorModule, v: SparsePoly, which: int,
                k: int) -> tuple[CertStep, SparsePoly]:
    """The step of ``lemma42_extract`` from v, and the target it must reach (not yet checked).

    With distinct scales the lam_k-part of X[n] v comes from factor k alone,
    where L[n] and a[n] act as lam_k^n (s_k + n alpha_k) tau_k^n and
    lam_k^n t_k tau_k^n.  So s_k v and t_k v are the n^0 lam_k^n parts of the
    L- and a-orbits, and t_k times the top s_k-slice is (-1)^p_k times the
    n^p_k lam_k^n part of the a-orbit, p_k the s_k-degree of v.
    """
    target = _shifted_target(module, v, which, k)
    x = module.s_profile(v)[k - 1] if which == 11 else 0
    step = orbit_component(module, "L" if which == 9 else "a", v, module.factors[k - 1].lam,
                           x, (-1) ** x)
    return step, target


def tensor_reduce_to_bottom(module: TensorModule,
                            g: SparsePoly) -> tuple[Certificate, SparsePoly]:
    """Certificate chain from g to a nonzero multiple of 1.

    The s-part of the leading exponent is peeled off by top-slice
    extractions (strictly degree-decreasing); once the vector lies in
    C[t_1..t_m], the derivative steps of ``omega.dt_step``, built once per
    factor, reduce the t-part to a constant.  Each step's target (the
    extraction's shifted slice, the t_k-derivative) is computed directly
    while the chain is built; one checked ``Certificate.replay`` then
    applies every step once and compares each image with its target.
    """
    if not module.distinct_lambdas():
        raise NotApplicable("requires pairwise distinct lambdas")
    if g.is_zero:
        raise ZeroVector("cannot reduce the zero vector")
    m = module.m
    steps: list[CertStep] = []
    checks: list[tuple[SparsePoly, str]] = []
    derivatives: dict[int, CertStep] = {}
    v = g
    while True:
        deg = v.degree()
        p_part, q_part = deg[:m], deg[m:]
        if any(p_part):
            k = next(i for i, p in enumerate(p_part) if p) + 1
            step, v = _extraction(module, v, 11, k)
            checks.append((v, EXTRACTION_MISSED))
        elif any(q_part):
            k = next(i for i, q in enumerate(q_part) if q) + 1
            if k not in derivatives:
                derivatives[k] = dt_step(module, module.factors[k - 1])
            step, v = derivatives[k], v.derive(module.tvar(k))
            checks.append((v, DERIVATIVE_MISSED))
        else:
            break
        steps.append(step)
    cert = Certificate(steps)
    cert.replay(module, g, checks)
    require(set(v.terms) == {(0,) * (2 * m)}, "reduction does not end at a nonzero constant")
    return cert, v


def tensor_generate(module: TensorModule, exponents: Sequence[int]) -> Certificate:
    """Certificate from 1 to the monomial with the given exponent vector.

    The extraction steps are built with their targets and checked by one
    ``Certificate.replay``, as in ``tensor_reduce_to_bottom``.
    """
    if not module.distinct_lambdas():
        raise NotApplicable("requires pairwise distinct lambdas")
    m = module.m
    exps = tuple(int(e) for e in exponents)
    if len(exps) != 2 * m or any(e < 0 for e in exps):
        raise ValueError("expected a natural exponent vector of length 2m")
    steps: list[CertStep] = []
    checks: list[tuple[SparsePoly, str]] = []
    v = module.one()
    # s-powers from the L-orbit first, then t-powers from the a-orbit.
    for which, offset in ((9, 0), (10, m)):
        for k in range(1, m + 1):
            for _ in range(exps[offset + k - 1]):
                step, v = _extraction(module, v, which, k)
                steps.append(step)
                checks.append((v, EXTRACTION_MISSED))
    cert = Certificate(steps)
    require(
        cert.replay(module, module.one(), checks) == SparsePoly(module.ring, {exps: ONE}),
        "generation replay does not reach the monomial",
    )
    return cert


def r_g(module: TensorModule, g: SparsePoly) -> int:
    """dim span{g, a_n g, c_n g : n in Z}, at least m + 1 for nonzero g.

    The ``omega.orbit`` images of a and c span both orbits exactly.
    """
    if g.is_zero:
        raise ZeroVector("rank of the zero vector")
    basis = SpanBasis()
    basis.add(g.terms)
    for family in ("a", "c"):
        for _, image in orbit(module, family, g):
            basis.add(image.terms)
    return basis.dim


# -- simplicity and isomorphism ----------------------------------------------


def w_invariance_check(module: TensorModule, i: int, j: int) -> InvarianceReport:
    """Exact invariance of W = C[u, t_i, t_j] (x) C[rest], u = s_i + s_j.

    Factor k acts as X[n] = (A_k + B_k d/dt_k) o tau_k^n, with tau_k^n the
    shift s_k -> s_k - n, in the form that ``omega.operator_form`` reads.
    Then:

    - factors outside {i, j} touch only their own variables, so
      X_rest[n] (F(u) h) = F(u) X_rest[n] h, and X_rest[n] maps
      C[t_i, t_j] (x) C[rest] into itself;
    - tau_i^n and tau_j^n both send F(u) to F(u - n), so
      X[n] (F(u) h) = F(u - n) X_ij[n] h + F(u) X_rest[n] h;
    - X_ij[n] is first order in (t_i, t_j) on h free of s_i and s_j:
      X_ij[n] h = h X_ij[n] 1 + sum_{k = i, j} (dh/dt_k) (X[n] t_k - t_k X[n] 1).

    W is a ring holding 1, t_i and t_j, so W is invariant under X[n] exactly
    when the probe images X[n] 1, X[n] t_i and X[n] t_j lie in W, and the
    ``omega.orbit`` of each probe (s-profile zero, so D_lam = [X = L])
    spans its X-orbit by the generalized Vandermonde lemma.  Membership is
    exact: in the coordinates u and v = s_j, d/dv = d/ds_j - d/ds_i, so over
    Q a polynomial f lies in W exactly when df/ds_i = df/ds_j.  W is proper:
    1 lies in W and s_i does not.
    """
    si, sj = module.svar(i), module.svar(j)
    probes = [module.one(), module.ring.var(module.tvar(i)), module.ring.var(module.tvar(j))]
    return invariance_check(module, probes, lambda f: f.derive(si) == f.derive(sj),
                            module.one(), module.ring.var(si))


@dataclass
class SimplicityEvidence:
    start_terms: dict
    reduction: Certificate
    bottom_coefficient: Fraction
    generation_target: tuple[int, ...]
    generation: Certificate


@dataclass
class SimplicityResult:
    simple: bool
    evidence: list[SimplicityEvidence] = field(default_factory=list)
    witness_pair: tuple[int, int] | None = None
    invariance: InvarianceReport | None = None
    note: str = ""


def simplicity_decision(module: TensorModule) -> SimplicityResult:
    """Certificate-based simplicity evidence, or an exact invariant subspace.

    With pairwise distinct lambdas the decision is backed by replayable
    reduction and generation certificates from the five fixed sample vectors
    of degree at most 2 (desk-scale evidence for the universal statement, not
    an exhaustive proof); with a repeated lambda the witness subspace is
    proved invariant under every X[n], n in Z, in every degree, and proper
    (see ``w_invariance_check``).  Each certificate is replayed once, with a
    check of every step against its target; the samples share the module's
    ``orbit_weights``, so each weight system is solved once per module.
    """
    if module.distinct_lambdas():
        evidence = []
        for v in simplicity_samples(module.ring, max_total_degree=2):
            cert, bottom = tensor_reduce_to_bottom(module, v)
            target = max(v.terms)
            up = tensor_generate(module, target)
            evidence.append(
                SimplicityEvidence(
                    start_terms={k: c for k, c in v.terms.items()},
                    reduction=cert,
                    bottom_coefficient=bottom.coefficient((0,) * (2 * module.m)),
                    generation_target=target,
                    generation=up,
                )
            )
        return SimplicityResult(
            simple=True,
            evidence=evidence,
            note="certificate evidence at desk scale; the universal statement "
            "is the distinct-lambda criterion",
        )
    i, j = module.equal_lambda_pair()
    report = w_invariance_check(module, i, j)
    return SimplicityResult(
        simple=False,
        witness_pair=(i, j),
        invariance=report,
        note=f"witness subspace C[t{i},t{j}](s{i}+s{j})^p (x) rest is invariant "
        "under X[n] for every n in Z, by three probe vectors on index-complete "
        f"grids, and proper: 1 lies in it and s{i} does not",
    )


def canonical_form(module: TensorModule) -> tuple:
    """Factor parameter tuples sorted by (lambda, alpha, beta, gamma, g)."""
    return tuple(sorted(module.factors, key=OmegaParams.sort_key))


@dataclass
class IsoResult:
    isomorphic: bool
    permutation: tuple[int, ...] | None = None
    invariant: str | None = None


def iso_check(left: TensorModule, right: TensorModule) -> IsoResult:
    """Compare canonical forms; on a match return the factor permutation.

    The permutation sigma satisfies right.factors[i] = left.factors[sigma_i]
    (1-based).  Requires both modules simple, i.e. distinct lambdas.
    """
    if not left.distinct_lambdas() or not right.distinct_lambdas():
        raise RequiresSimple("isomorphism classification needs simple modules")
    if left.m != right.m:
        return IsoResult(isomorphic=False, invariant="factor count")
    lam_left = {f.lam: f for f in left.factors}
    lam_right = {f.lam: f for f in right.factors}
    if set(lam_left) != set(lam_right):
        return IsoResult(isomorphic=False, invariant="lambda")
    for lam in lam_left:
        fl, fr = lam_left[lam], lam_right[lam]
        for name in ("alpha", "beta", "gamma", "g"):
            if getattr(fl, name) != getattr(fr, name):
                return IsoResult(isomorphic=False, invariant=name)
    perm = tuple(
        next(idx for idx, fl in enumerate(left.factors, start=1) if fl.lam == fr.lam)
        for fr in right.factors
    )
    return IsoResult(isomorphic=True, permutation=perm)
