"""Tensor products of rank-one free modules on C[s_1, t_1, ..., s_m, t_m].

``TensorModule`` is the m-factor ``omega.RankOneProduct``: generators act by
the Leibniz rule, the sum of its pullbacks, one per factor, whose rules
``homomorphisms.PullbackModule.rules`` compiles into one list per generator
and ``omega.omega_factor_act`` applies; the k-th factor touches only (s_k,
t_k).  The reduction chain ``tensor_reduce_to_bottom``
lives in ``omega`` beside its step builders and serves ``OmegaModule``
(m = 1) too; generation, orbit ranks, the simplicity certificates, the
repeated-lambda witness subspace and isomorphism live here.  Every orbit span
and certificate step rests on the invertibility of generalized Vandermonde
matrices with rows n^x lam_k^n over consecutive integers n, which is
certified by the closed-form determinant of ``det_r``: with distinct scales
every certificate step is an ``omega.orbit_component``, the n^x lam_k^n part
of an orbit as one fixed combination of its images, or the derivative step
``omega.dt_step`` built from two such parts.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm, prod
from typing import Sequence

from .axioms import simplicity_samples
from .certificates import CertStep, Certificate, require
from .exceptions import InvalidSpec, NotApplicable
from .lie import Generator
from .linalg import SpanBasis, exact_det
# Not called here; perfbench/selftest.py checks that its tracer rebinds this binding.
from .linalg import combination  # noqa: F401
from .omega import (
    EXTRACTION_MISSED, InvarianceReport, OmegaParams, RankOneProduct, _times_s, _top_slice,
    invariance_check, omega_factor_act, orbit, tensor_reduce_to_bottom
)
from .poly import SparsePoly
from .scalars import ONE, Frozen, Record, scalar, superfactorial


class TensorModule(RankOneProduct):
    def __init__(self, factors: Sequence[OmegaParams]):
        if not factors:
            raise InvalidSpec("a tensor product needs at least one factor")
        m = len(factors)
        super().__init__(factors, [f"s{k}" for k in range(1, m + 1)],
                         [f"t{k}" for k in range(1, m + 1)])

    def act(self, g: Generator, v: SparsePoly) -> SparsePoly:
        return omega_factor_act(self, g, v)


# -- the generalized Vandermonde determinant --------------------------------


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


class DetSpec(Frozen):
    _fields = ("alphas", "sizes", "r")

    def __init__(self, alphas: tuple[Fraction, ...], sizes: tuple[int, ...], r: int):
        alphas = tuple(scalar(a) for a in alphas)
        sizes = tuple(sizes)
        if len(alphas) != len(sizes):
            raise InvalidSpec("one size per alpha required")
        if any(a == 0 for a in alphas):
            raise InvalidSpec("alphas must be nonzero")
        if len(set(alphas)) != len(alphas):
            raise InvalidSpec("alphas must be pairwise distinct")
        if not all(_is_int(s) for s in sizes):
            raise InvalidSpec("sizes must be integers")
        if any(s < 1 for s in sizes):
            raise InvalidSpec("sizes must be at least 1")
        if not _is_int(r) or r < 0:
            raise InvalidSpec("row offset must be a natural number")
        self._set(alphas=alphas, sizes=sizes, r=r)


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


class DetResult(Record):
    _fields = ("computed", "closed_form")  # rows and denominators take no part in == or repr

    def __init__(self, computed: Fraction, closed_form: Fraction, rows: list[list[int]],
                 denominators: list[int]):
        self.computed = computed
        self.closed_form = closed_form
        self.rows = rows
        self.denominators = denominators

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


# -- generation and orbit rank ------------------------------------------------


def tensor_generate(module: RankOneProduct, exponents: Sequence[int]) -> Certificate:
    """Certificate from 1 to the monomial with the given exponent vector.

    The t-powers come first, from 1, by steps of ``omega._top_slice`` on
    s-free vectors, where each multiplies by t_k; then ``omega._times_s``
    multiplies by the s-powers.  The steps are built with their targets and
    checked by one ``Certificate.replay``, as in ``tensor_reduce_to_bottom``.
    On an ``OmegaModule`` the exponent vector is (p, q), for s^p t^q.
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
    for build, offset in ((_top_slice, m), (_times_s, 0)):
        for k in range(1, m + 1):
            for _ in range(exps[offset + k - 1]):
                step, v = build(module, v, k)
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

    The ``omega.orbit`` images of each family span its whole orbit.
    """
    if g.is_zero:
        raise NotApplicable("the zero vector has no orbit rank")
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
    ``omega.orbit`` of each probe (s-profile zero, so D_lam is the family's
    index degree) spans its X-orbit by the generalized Vandermonde lemma.  Membership is
    exact: in the coordinates u and v = s_j, d/dv = d/ds_j - d/ds_i, so over
    Q a polynomial f lies in W exactly when df/ds_i = df/ds_j.  W is proper:
    1 lies in W and s_i does not.
    """
    si, sj = module.svar(i), module.svar(j)
    probes = [module.one(), module.ring.var(module.tvar(i)), module.ring.var(module.tvar(j))]
    return invariance_check(module, probes, lambda f: f.derive(si) == f.derive(sj),
                            module.one(), module.ring.var(si))


def simplicity_certificates(module: TensorModule) -> list[Certificate]:
    """The reduction certificates of the five sample vectors, for pairwise distinct lambdas.

    Each sample vector of degree at most 2 is reduced to a nonzero constant,
    and its leading monomial is generated from 1; both certificates are
    replayed once with a check of every step against its target.  This is
    desk-scale evidence for the universal statement, not an exhaustive
    proof; with a repeated lambda ``w_invariance_check`` proves the module
    not simple.  The samples share the module's ``orbit_weights``, so each
    weight system is solved once per module.
    """
    certificates = []
    for v in simplicity_samples(module.ring, max_total_degree=2):
        certificates.append(tensor_reduce_to_bottom(module, v)[0])
        tensor_generate(module, max(v.terms))
    return certificates


def canonical_form(module: RankOneProduct) -> tuple:
    """Factor parameter tuples sorted by (lambda, alpha, beta, gamma, g)."""
    return tuple(sorted(module.factors, key=OmegaParams.sort_key))


class IsoResult(Record):
    _fields = ("isomorphic", "permutation", "invariant")

    def __init__(self, isomorphic: bool, permutation: tuple[int, ...] | None = None,
                 invariant: str | None = None):
        self.isomorphic = isomorphic
        self.permutation = permutation
        self.invariant = invariant


def iso_check(left: RankOneProduct, right: RankOneProduct) -> IsoResult:
    """Compare canonical forms; on a match return the factor permutation.

    Either side may be an ``OmegaModule``, the one-factor product.
    The permutation sigma satisfies right.factors[i] = left.factors[sigma_i]
    (1-based).  Requires both modules simple, i.e. distinct lambdas.
    """
    if not left.distinct_lambdas() or not right.distinct_lambdas():
        raise NotApplicable("iso needs pairwise distinct lambdas, so that both modules are simple")
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
