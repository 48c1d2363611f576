"""Rank-one free modules on C[s, t], their products, and constructive certificates.

An instance is determined by parameters (alpha, beta, gamma, lambda, g)
with beta, lambda nonzero and g a polynomial in t.  Its action is the
pullback of the abgg table (``homomorphisms.abgg_terms``, the generator
images of ``PhiABGG``) at PhiABGG(alpha + 1, beta, gamma, g) to
Omega(lam) (x) C[t] on C[s, t]: x0^k acts as lam^k times s -> s - k, x0 d/dx0
multiplies by s (``operators.shift_factor``), and t and d/dt act on C[t] as
themselves (``operators.weight_factor`` at weight 0).  So L[n] f =
lam^n (s + n alpha) f(s - n, t), c[n] f = -lam^n beta f(s - n, t), and so on.

``RankOneProduct`` is a product of such factors on C[s_1, t_1, ..., s_m,
t_m], factor k acting on (s_k, t_k) alone: a ``homomorphisms.PullbackModule``
with one pullback per factor, of scale lam_k and index variable s_k, whose
rules ``omega_factor_act`` applies.  ``OmegaModule`` is its one-factor
case on C[s, t], and ``tensor.TensorModule`` the general one.  Everything
here is certificate-producing, and one reduction chain serves every m:
``tensor_reduce_to_bottom`` carries a nonzero vector to a nonzero constant,
and ``omega_reduce_to_one`` is that chain with one rescale step to 1.  Every
orbit step of a certificate is an ``orbit_component``: the n^x lam^n part
of an X-orbit, taken by one fixed combination of N images whose weights
invert a generalized Vandermonde matrix.  ``_times_s`` multiplies by s_k,
from the L-orbit; ``_top_slice`` trades the top s_k-slice for t_k, from the
a-orbit, and is t_k itself on an s_k-free vector; ``dt_step`` builds d/dt
from the lam-parts of the b- and a-orbits.  The free rank over the Cartan pair
(L[0], d[0]) is proved from four probe images that a checker can
recompute.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Sequence

from . import homomorphisms
from .certificates import CertStep, Certificate, require
from .exceptions import InvalidSpec, NotAModule, NotApplicable
from .lie import FAMILIES, Generator, bracket_terms, gen
from .linalg import combination
from .operators import shift_factor, weight_factor
from .poly import PolyRing, SparsePoly, _shift_row, act_by_rules
from .scalars import ONE, Frozen, LinComb, Record, add_scaled, scalar


def _normalize_coeffs(coeffs) -> tuple[Fraction, ...]:
    cs = [scalar(c) for c in coeffs]
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


class OmegaParams(Frozen):
    _fields = ("alpha", "beta", "gamma", "lam", "g")

    def __init__(self, alpha: Fraction, beta: Fraction, gamma: Fraction, lam: Fraction,
                 g: tuple[Fraction, ...]):
        alpha, beta, gamma, lam = scalar(alpha), scalar(beta), scalar(gamma), scalar(lam)
        g = _normalize_coeffs(g)
        if beta == 0 or lam == 0:
            raise InvalidSpec("beta and lambda must be nonzero")
        self._set(alpha=alpha, beta=beta, gamma=gamma, lam=lam, g=g)

    def sort_key(self):
        return (self.lam, self.alpha, self.beta, self.gamma, self.g, len(self.g))


def omega_factor_act(module: homomorphisms.PullbackModule, g: Generator,
                     f: SparsePoly) -> SparsePoly:
    """g f on a product of rank-one factors (shared with tensor products).

    Each factor's table image of g acts on Omega(lam) (x) C[t], with s = svar
    and t = tvar (module docstring), and g f is the sum of these: one pass
    over the terms of f with the rules of ``module.rules(g)``.

    Operator form.  Every image is x0^n times an operator first order in d/dt
    whose x0-part is d0 or 1, so on C[s, t]

        X[n] = (A + B d/dt) o tau^n,  A = X[n] 1,  B = X[n] t - t X[n] 1,

    with tau^n: s -> s - n and A, B in C[s, t]; tau^n fixes 1 and t, so the
    images of these two probes fix the operator.  Here A_L = lam^n (s + n alpha),
    A_d = lam^n (t g(t) + gamma) / beta, B_d = lam^n t, A_a = lam^n t,
    A_b = lam^n g(t), B_b = lam^n beta, A_c = -lam^n beta, and B = 0 for L, a
    and c.  In a tensor product factor k acts in this form on (s_k, t_k) alone.
    """
    return act_by_rules(f, *module.rules(g))


class RankOneProduct(homomorphisms.PullbackModule):
    """A product of rank-one factors on C[s_1..s_m, t_1..t_m].

    Factor k acts on (svar(k), tvar(k)) alone (module docstring).  ``OmegaModule``
    is the case m = 1, on C[s, t], and ``tensor.TensorModule`` the general one;
    each gives its variable names and its own ``act``.  The reduction chain, the
    orbit steps and the weight memo below serve both.
    """

    def __init__(self, factors: Sequence[OmegaParams], svars: Sequence[str],
                 tvars: Sequence[str]):
        self.factors = tuple(factors)
        ring = PolyRing((*svars, *tvars), (False,) * (2 * len(svars)))
        super().__init__(ring, [
            (homomorphisms.abgg_terms(par.alpha + 1, par.beta, par.gamma, par.g),
             (shift_factor(ring.index(s), par.lam), weight_factor(ring.index(t), 0)), par.lam, s)
            for par, s, t in zip(self.factors, svars, tvars)])
        self.orbit_weights: dict = {}  # ``orbit_component``'s weights, by (degrees, lam, x)

    @property
    def m(self) -> int:
        return len(self.factors)

    def svar(self, k: int) -> str:
        return self.ring.names[k - 1]

    def tvar(self, k: int) -> str:
        return self.ring.names[self.m + k - 1]

    def s_profile(self, v: SparsePoly) -> list[int]:
        """Max s_k-exponent per factor over the support (0 if absent)."""
        return [max((exps[k] for exps in v.terms), default=0) for k in range(self.m)]

    def distinct_lambdas(self) -> bool:
        return self.equal_lambda_pair() is None

    def equal_lambda_pair(self) -> tuple[int, int] | None:
        seen: dict[Fraction, int] = {}
        for k, f in enumerate(self.factors, start=1):
            if f.lam in seen:
                return (seen[f.lam], k)
            seen[f.lam] = k
        return None


class OmegaModule(RankOneProduct):
    def __init__(self, params: OmegaParams):
        super().__init__((params,), ("s",), ("t",))
        self.params = params

    def act(self, g: Generator, f: SparsePoly) -> SparsePoly:
        return omega_factor_act(self, g, f)


def orbit_points(degrees: dict[Fraction, int]) -> int:
    """N = sum_lam (D_lam + 1) for the bounds of ``PullbackModule.index_degrees``.

    The rows n = 0..N-1 of the functions n^x lam^n (x <= D_lam) form the
    generalized Vandermonde matrix of ``tensor.det_r`` at r = 0, which is
    invertible; so these N images determine every n-coefficient of every
    P_lam, and span{X[n] v : n < N} = span{X[n] v : n in Z}.
    """
    return sum(d + 1 for d in degrees.values())


def operator_form(module, g: Generator) -> tuple[SparsePoly, SparsePoly]:
    """(A, B) = (g 1, g t - t g 1), the operator form of ``omega_factor_act`` read from two probes."""
    a = module.act(g, module.one())
    return a, module.act(g, module.ring.var("t")) - a.mul_var("t")


def orbit(module, family: str, v: SparsePoly) -> list[tuple[Generator, SparsePoly]]:
    """(X[n], X[n] v) for n < N = ``orbit_points(module.index_degrees(family, v))``.

    With X[n] v = sum_lam lam^n P_lam(n), deg P_lam <= D_lam, the
    generalized Vandermonde lemma of ``orbit_points`` makes these N images
    span the X-orbit of v over every n in Z (for an F module's x0-shift,
    see ``homomorphisms.PullbackModule.index_degrees``).
    """
    gens = [gen(family, n) for n in range(orbit_points(module.index_degrees(family, v)))]
    return [(g, module.act(g, v)) for g in gens]


class InvarianceReport(Record):
    """Probe images of a subspace W, those that escape it, and W's properness witness."""

    _fields = ("probes", "images_checked", "max_index_degree", "escapes", "proper")

    def __init__(self, probes: int = 0, images_checked: int = 0, max_index_degree: int = 0,
                 escapes: list[str] | None = None, proper: bool = False):
        self.probes = probes
        self.images_checked = images_checked
        self.max_index_degree = max_index_degree
        self.escapes = [] if escapes is None else escapes
        self.proper = proper

    @property
    def ok(self) -> bool:
        return self.proper and not self.escapes


def invariance_check(module, probes: list[SparsePoly], in_w: Callable[[SparsePoly], bool],
                     inside: SparsePoly, outside: SparsePoly) -> InvarianceReport:
    """Exact invariance of W under every X[n], n in Z, from the ``orbit`` of each probe.

    Each caller proves that its W, tested by ``in_w``, is invariant once
    every X[n] maps each probe into W; the probe's ``orbit`` images settle
    every n (the Vandermonde span of ``orbit``, or for an F module's
    x0-shift the grid lemma at ``poly.vanishes``).  W is proper when
    ``inside`` lies in it and ``outside`` does not.
    """
    report = InvarianceReport(probes=len(probes))
    for fam in FAMILIES:
        for v in probes:
            report.max_index_degree = max(report.max_index_degree,
                                          *module.index_degrees(fam, v).values())
            for g, image in orbit(module, fam, v):
                report.images_checked += 1
                if not in_w(image):
                    report.escapes.append(f"{g} on {v}")
    report.proper = in_w(inside) and not in_w(outside)
    return report


# The messages of the two kinds of certificate step check, here and in ``tensor``.
EXTRACTION_MISSED = "extraction step does not reach its target"
DERIVATIVE_MISSED = "derivative step is not d/dt"


def orbit_component(module, family: str, v: SparsePoly, lam: Fraction, x: int,
                    scale: Fraction = ONE) -> CertStep:
    """The n^x lam^n part of X[n] v, times scale, as the step scale * sum_{n < N} w_n X[n].

    X[n] v = sum_mu sum_{y <= D_mu} n^y mu^n C_{mu,y} with D_mu from
    ``module.index_degrees``, so w is row (lam, x) of the inverse of the
    N x N generalized Vandermonde matrix with rows n^y mu^n (invertible, see
    ``orbit_points``): sum_n w_n n^y mu^n is 1 at (mu, y) = (lam, x) and 0
    elsewhere.  With Q(z) = sum_n w_n z^n and theta = z d/dz that sum is
    (theta^y Q)(mu), so Q vanishes to order D_mu + 1 at each mu != lam:
    Q = P R with P = prod_{mu != lam} (den(mu) z - num(mu))^(D_mu + 1), of
    integer coefficients and degree J, and the D_lam + 1 coefficients of R
    solve the conditions at lam, one small solve.  At lam = a/b the column
    of z^i, (theta^y (P z^i))(lam) = sum_j P_j (i + j)^y lam^(i + j), is
    b^-(i + J) times the integer column sum_j P_j (i + j)^y a^(i + j) b^(J - j);
    the solve runs on the integer columns, and its r_i times b^(i + J) are
    the coefficients of R.  So no Fraction is made before the solve, and
    after it each weight is one Fraction over the lcm of the r_i's
    denominators.  w depends on v and the family only through the index
    degrees, so the nonzero (n, w_n) are kept in ``module.orbit_weights``
    under the key (index-degree items, lam, x): one solve serves every
    vector of one s-profile, in every family, for the life of the module
    instance.
    """
    degrees = module.index_degrees(family, v)
    key = (tuple(degrees.items()), lam, x)
    weights = module.orbit_weights.get(key)
    if weights is None:
        p = [1]  # the coefficients of P, constant term first
        for mu, d in degrees.items():
            for _ in range(d + 1 if mu != lam else 0):
                p = [mu.denominator * c - mu.numerator * b for c, b in zip([0, *p], [*p, 0])]
        top, big_j = degrees[lam] + 1, len(p) - 1  # the number of coefficients of R, deg P
        a, b = lam.numerator, lam.denominator
        parts = [[(i + j, c * a ** (i + j) * b ** (big_j - j)) for j, c in enumerate(p)]
                 for i in range(top)]
        r = combination([{y: sum(k**y * c for k, c in part) for y in range(top)}
                         for part in parts], {x: 1})
        require(r is not None, f"no {family}-orbit combination isolates n^{x} ({lam})^n")
        den = math.lcm(*(c.denominator for c in r))
        r = [c.numerator * (den // c.denominator) * b ** (i + big_j) for i, c in enumerate(r)]
        w = [sum(r[i] * p[n - i] for i in range(top) if 0 <= n - i < len(p))
             for n in range(len(p) + top - 1)]
        weights = module.orbit_weights[key] = [(n, Fraction(c, den)) for n, c in enumerate(w) if c]
    return CertStep(tuple((scale * w, (gen(family, n),)) for n, w in weights))


def dt_step(module, par: OmegaParams) -> CertStep:
    """beta^-1 (b^(lam) - g(a^(lam))) for the factor ``par``, from ``orbit_component``.

    On an s-free v the lam-parts of the b- and a-orbits are b^(lam) v =
    g(t) v + beta dv/dt and a^(lam) v = t v (the other scales, if any, are
    distinct), so the step is d/dt on C[t] (on C[t_1..t_m] in a tensor
    product), whatever the vector.  With one scale both parts are the n = 0
    images, and the step is beta^-1 (b[0] - sum_k g_k a[0]^k).
    """
    one = module.one()
    combo = list(orbit_component(module, "b", one, par.lam, 0, 1 / par.beta).combo)
    a_part = orbit_component(module, "a", one, par.lam, 0).combo
    power = ((ONE, ()),)  # a^(lam) to the power k, as weighted words
    for c in par.g:
        combo += [(-c / par.beta * w, word) for w, word in power if c]
        power = tuple((w1 * w2, x + y) for w1, x in a_part for w2, y in power)
    return CertStep(tuple(combo))


def _times_s(module: RankOneProduct, v: SparsePoly, k: int) -> tuple[CertStep, SparsePoly]:
    """The step to s_k v, the (lam_k, 0) part of the L-orbit, and its target (not yet checked).

    With distinct scales the lam_k-part of L[n] v comes from factor k alone,
    where L[n] acts as lam_k^n (s_k + n alpha_k) tau_k^n; its n^0 part is s_k v.
    """
    step = orbit_component(module, "L", v, module.factors[k - 1].lam, 0)
    return step, v.mul_var(module.svar(k))


def _top_slice(module: RankOneProduct, v: SparsePoly, k: int) -> tuple[CertStep, SparsePoly]:
    """The step to t_k times the top s_k-slice of v with s_k stripped, and its target.

    With distinct scales the lam_k-part of a[n] v comes from factor k alone,
    where a[n] acts as lam_k^n t_k tau_k^n, and the n^p coefficient of
    tau_k^n s_k^q = (s_k - n)^q is (-1)^p at q = p and 0 below it.  So with p
    the s_k-degree of v the target is (-1)^p times the (lam_k, p) part of the
    a-orbit; on an s_k-free v (p = 0) it is t_k v.
    """
    m, p = module.m, module.s_profile(v)[k - 1]
    target = {}
    for exps, c in v.terms.items():
        if exps[k - 1] == p:
            e = list(exps)
            e[k - 1] = 0
            e[m + k - 1] += 1
            target[tuple(e)] = c
    step = orbit_component(module, "a", v, module.factors[k - 1].lam, p, (-1) ** p)
    return step, SparsePoly(module.ring, target)


def _reduction_chain(module: RankOneProduct, g: SparsePoly):
    """The steps of ``tensor_reduce_to_bottom`` from g, their checks, and the constant reached.

    No step is applied here; each check pairs a step with the target it
    must reach, for one checked ``Certificate.replay``.
    """
    if not module.distinct_lambdas():
        raise NotApplicable("requires pairwise distinct lambdas")
    if g.is_zero:
        raise NotApplicable("cannot reduce the zero vector")
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
            step, v = _top_slice(module, v, k)
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
    require(set(v.terms) == {(0,) * (2 * m)}, "reduction does not end at a nonzero constant")
    return steps, checks, v


def tensor_reduce_to_bottom(module: RankOneProduct,
                            g: SparsePoly) -> tuple[Certificate, SparsePoly]:
    """Certificate chain from g to a nonzero multiple of 1.

    The s-part of the leading exponent (lexicographic on (p_1..p_m,
    q_1..q_m)) is peeled off by the steps of ``_top_slice`` (strictly
    degree-decreasing); once the vector lies in C[t_1..t_m], the derivative
    steps of ``dt_step``, built once per factor, reduce the t-part to a
    constant.  Each step's target (the shifted top slice, the
    t_k-derivative) is computed directly while the chain is built; one
    checked ``Certificate.replay`` then applies every step once and compares
    each image with its target.
    """
    steps, checks, v = _reduction_chain(module, g)
    cert = Certificate(steps)
    cert.replay(module, g, checks)
    return cert, v


def omega_reduce_to_one(module: OmegaModule, f: SparsePoly) -> Certificate:
    """Certificate carrying a nonzero vector to exactly 1.

    The chain of ``tensor_reduce_to_bottom`` with m = 1: the a-orbit steps
    of ``_top_slice`` take f into C[t], ``dt_step`` (d/dt on C[t]) takes it to a
    nonzero constant, and one rescale step, if needed, takes that to 1.  One
    checked ``Certificate.replay`` applies every step, the rescale included,
    once and compares each image with its target.
    """
    steps, checks, v = _reduction_chain(module, f)
    const = v.coefficient((0, 0))
    if const != 1:
        steps.append(CertStep(((1 / const, ()),)))
        checks.append((module.one(), "reduction replay does not end at 1"))
    cert = Certificate(steps)
    require(cert.replay(module, f, checks) == module.one(), "reduction replay does not end at 1")
    return cert


class UhRankReport(Record):
    """The probe images of L[0] and d[0], the operators they fix, and the verdict."""

    _fields = ("images", "operators", "facts")

    def __init__(self, images: list[tuple[str, SparsePoly, SparsePoly]],
                 operators: dict[str, tuple[SparsePoly, SparsePoly]], facts: dict[str, bool]):
        self.images = images  # (operator, probe, image)
        self.operators = operators  # operator -> (A, B)
        self.facts = facts

    @property
    def ok(self) -> bool:
        return all(self.facts.values())

    @property
    def rank(self) -> int | None:
        """deg_t A_d, the free rank once every fact holds."""
        return self.operators["d[0]"][0].var_degree("t") if self.ok else None


def uh_rank(module: OmegaModule) -> UhRankReport:
    """Free rank over C[L0, d0], proved in every degree from four probe images.

    ``operator_form`` reads L[0] and d[0] as X = A_X + B_X d/dt (tau^0 is
    the identity), and the probe images are A_X and t A_X + B_X.  The
    verdict checks four facts:

    1. A_L = s and B_L = 0, so L0 is multiplication by s;
    2. A_d and B_d are free of s, so d0 maps C[t] into itself and commutes
       with multiplication by s;
    3. r = deg_t A_d >= 1;
    4. deg_t B_d <= r.

    Then d0 t^q = A_d t^q + q B_d t^(q-1), and the second term has degree
    below q + r, so d0^j t^k has leading monomial a^j t^(k + j r), where a
    is the leading coefficient of A_d.  For k < r the exponents k + j r run
    over every natural number exactly once, so the vectors
    L0^i d0^j t^k = s^i d0^j t^k are a triangular basis change of the
    monomials s^i t^q.  That proves, at once and in every degree, that
    t^0 .. t^(r-1) generate C[s, t] over C[L0, d0] and are independent over
    it: the module is free of rank r.  The rank is read from the action;
    for the paper's module A_d = (t g(t) + gamma)/beta and B_d = t, so
    r = deg g + 1.  With g = 0, d0 keeps the t-degree and C[s, t] is not
    finitely generated over C[L0, d0], so the module is rejected up front.
    """
    if not module.params.g:
        raise NotApplicable("rank on an Omega spec needs a nonzero g")
    one, t = module.one(), module.ring.var("t")
    operators = {name: operator_form(module, gen(name[0], 0)) for name in ("L[0]", "d[0]")}
    # The image of t is rebuilt as t A + B, one product and sum spent on the shared reader.
    images = [entry for name, (a, b) in operators.items()
              for entry in ((name, one, a), (name, t, a.mul_var("t") + b))]
    (a_l, b_l), (a_d, b_d) = operators["L[0]"], operators["d[0]"]
    deg_a = a_d.var_degree("t")
    deg_b = b_d.var_degree("t")
    facts = {
        "L0_is_s": a_l == module.ring.var("s") and b_l.is_zero,
        "d0_free_of_s": not a_d.var_degree("s") and not b_d.var_degree("s"),
        "A_d_raises_t_degree": deg_a is not None and deg_a >= 1,
        "B_d_within_A_d": deg_b is None or deg_a is not None and deg_b <= deg_a,
    }
    return UhRankReport(images=images, operators=operators, facts=facts)


# -- classification of rank-one action data --------------------------------

RANK1_RING = PolyRing(("L0", "a0"), (False, False))


class Rank1ActionData(Frozen):
    """Candidate structure functions of a rank-one free module on basis v: lam and the
    polynomials p, B0, C0, D0 in (L0, a0), with X[n] acting on v as lam^n times the
    ``RANK1_SYMBOL`` of X[n] (so B0, C0, D0 are the images of b[0], c[0], d[0])."""

    _fields = ("lam", "p", "B0", "C0", "D0")

    def __init__(self, lam: Fraction, p: SparsePoly, B0: SparsePoly, C0: SparsePoly,
                 D0: SparsePoly):
        lam = scalar(lam)
        if lam == 0:
            raise ValueError("lambda must be nonzero")
        for f in (p, B0, C0, D0):
            if f.ring != RANK1_RING:
                raise ValueError("structure functions must live in C[L0, a0]")
        self._set(lam=lam, p=p, B0=B0, C0=C0, D0=D0)


class Degenerate(Frozen):
    _fields = ("submodule",)

    def __init__(self, submodule: str):
        self._set(submodule=submodule)


class ShiftDiffOp(LinComb):
    """Exact operators on C[L0, a0], flat: c at key (n, k, i, j) is f |-> c L0^i a0^j
    (da0^k f)(L0 - n, a0), c a Fraction or, in a symbol cleared to one denominator, an
    int.  Bracket relations are checked as identities of these coefficients."""

    __slots__ = ()

    def __init__(self, terms: dict[tuple[int, int, int, int], Fraction | int] | None = None):
        self.terms = {key: c for key, c in (terms or {}).items() if c}

    def compose(self, other: "ShiftDiffOp", out: dict | None = None, sign: int = 1):
        """self o other, or with ``out`` the nonzero part of ``out`` + sign (self o other), in
        one pass: da0^k1 (a0^j2 h) = sum_{r <= min(k1, j2)} C(k1, r) j2!/(j2 - r)! a0^(j2 - r)
        da0^(k1 - r) h, and (L0 - n1)^i2 is the cached row ``poly._shift_row(i2, n1)``."""
        out = {} if out is None else out
        get = out.get
        for (n1, k1, i1, j1), c1 in self.terms.items():
            c1 *= sign
            for (n2, k2, i2, j2), c2 in other.terms.items():
                row = _shift_row(i2, n1) if n1 else ((i2, 1),)
                c, w = c1 * c2, 1  # w = C(k1, r) j2!/(j2 - r)!, an int
                for r in range(min(k1, j2) + 1):
                    n, k, j, cw = n1 + n2, k1 + k2 - r, j1 + j2 - r, c * w
                    for i, b in row:
                        key = (n, k, i1 + i, j)
                        out[key] = get(key, 0) + cw * b
                    w = w * (k1 - r) * (j2 - r) // (r + 1)
        return self._like({key: c for key, c in out.items() if c})

    def commutator(self, other: "ShiftDiffOp") -> "ShiftDiffOp":
        out: dict = {}
        self.compose(other, out)  # both orders are summed in one dict
        return other.compose(self, out, -1)


# Each family's rank-one symbol, coefficient last as in ``homomorphisms.ab_terms``: terms (part,
# da0-order, coefficient in n, constant term first), a part being the unit L0 or a0 or a data
# polynomial named in ``Rank1ActionData._fields``; family[n] is their sum, then L0 -> L0 - n.
RANK1_SYMBOL = {
    "L": (("L0", 0, (1,)), ("p", 0, (0, 1))),
    "a": (("a0", 0, (1,)),),
    "b": (("B0", 0, (1,)), ("C0", 1, (-1,))),
    "c": (("C0", 0, (1,)),),
    "d": (("D0", 0, (1,)), ("a0", 1, (1,))),
}
_UNITS = {name: RANK1_RING.var(name).terms for name in RANK1_RING.names}  # the parts L0 and a0


def _parts(data: Rank1ActionData) -> dict[str, dict]:
    """The terms {(i, j): c} of each part of ``RANK1_SYMBOL``, by name."""
    return _UNITS | {name: getattr(data, name).terms for name in Rank1ActionData._fields[1:]}


def _symbol(family: str, n: int, parts: dict[str, dict], scale=1) -> ShiftDiffOp:
    """scale times the ``RANK1_SYMBOL`` of family[n] over ``parts``, as in ``_parts``."""
    out: dict = {}
    for part, k, coef in RANK1_SYMBOL[family]:
        c = sum(a * n**i for i, a in enumerate(coef))
        add_scaled(out, {(n, k, *e): v for e, v in parts[part].items()}, c * scale)
    return ShiftDiffOp()._like(out)


def _candidate_operator(data: Rank1ActionData, g: Generator) -> ShiftDiffOp:
    return _symbol(g.family, g.index, _parts(data), data.lam**g.index)


def rank1_data_from_action(module: OmegaModule) -> Rank1ActionData:
    """Read the structure functions off the A parts of ``operator_form``, with (s, t) as (L0, a0).

    L[1] has A = lam (s + p), so lam is its s-coefficient, and b[0], c[0]
    and d[0] have A = B0, C0 and D0.
    """
    l1, b0, c0, d0 = (SparsePoly(RANK1_RING, dict(operator_form(module, g)[0].terms))
                      for g in (gen("L", 1), *(gen(f, 0) for f in "bcd")))
    lam = l1.coefficient((1, 0))
    if lam == 0:
        raise NotAModule("round-trip", "L[1] 1 has no L0 term to read lambda from")
    return Rank1ActionData(lam=lam, p=(l1 - RANK1_RING.var("L0") * lam) * (1 / lam),
                           B0=b0, C0=c0, D0=d0)


_NAMED_RELATIONS = (
    ("(1) [b_m, c_n] = 0", "b", "c"),
    ("(2) [L_m, b_n] = n b_{m+n}", "L", "b"),
    ("(3) [b_m, d_n] = b_{m+n}", "b", "d"),
)


def rank1_grid(data: Rank1ActionData) -> list[tuple[str, str, str, int, int]]:
    """(relation, x, y, D_m, D_n) per family pair, the named relations first.

    The defect of [x_m, y_n] is lam^(m+n) times one operator with shift m + n
    whose coefficients are polynomials in (m, n).  In x_m y_n the coefficients
    of y are shifted by L0 -> L0 - m, so the m-degree is at most D_m = e_x +
    l_y, with e a family's index degree and l the largest L0-degree of its
    parts in ``RANK1_SYMBOL``; likewise D_n = e_y + l_x.  The bracket side
    c(m, n) op_z(m+n) needs no more while e_z = 0 off L: c has degree 1 in m
    only when y = L and in n only when x = L, and L has the part L0.  So the
    grid {0..D_m} x {0..D_n} proves the relation on Z^2 (``poly.vanishes``).
    """
    l0 = {name: max((i for i, _ in terms), default=0) for name, terms in _parts(data).items()}
    e = {f: homomorphisms.index_degree(RANK1_SYMBOL[f]) for f in FAMILIES}
    ell = {f: max(l0[part] for part, _, _ in RANK1_SYMBOL[f]) for f in FAMILIES}
    named = {(fx, fy): name for name, fx, fy in _NAMED_RELATIONS}
    pairs = list(named) + [(fx, fy) for fx in FAMILIES for fy in FAMILIES
                           if (fx, fy) not in named]
    return [(named.get((fx, fy), f"[{fx}_m, {fy}_n]"), fx, fy, e[fx] + ell[fy], e[fy] + ell[fx])
            for fx, fy in pairs]


def classify_rank1(data: Rank1ActionData) -> OmegaParams | Degenerate:
    """Decide which concrete module a candidate action table presents.

    Every bracket relation [x_m, y_n] is checked as an exact operator identity
    on the grid of ``rank1_grid``, which proves it for all (m, n) in Z^2; the
    named checks (1) [b,c] = 0, (2) [L,b] = n b and (3) [b,d] = b run first, so
    corruptions are reported at the relation that pins them down.  Both sides
    of [x_m, y_n] = sum c z_{m+n} carry lam^(m+n), so the grid drops it: the
    parts of ``RANK1_SYMBOL`` are cleared once to ints over den, the lcm of
    their denominators, and den^2 [x_m, y_n] must equal den sum c z_{m+n}.
    Consistent data with c[0]-image zero has an obvious proper submodule and
    is reported Degenerate; otherwise the five parameters are extracted, and
    in their module the ``operator_form`` of f[n] must give the terms of
    ``_candidate_operator`` for n = 0..max(e_f, D_f), as both are lam^n times
    polynomials in n of degree at most e_f and D_f, the ``index_degree`` of f
    in ``RANK1_SYMBOL`` (``rank1_grid``) and in the module's table.
    """
    parts = _parts(data)
    den = math.lcm(*(c.denominator for terms in parts.values() for c in terms.values()))
    cleared = {name: {e: c.numerator * (den // c.denominator) for e, c in terms.items()}
               for name, terms in parts.items()}
    ops: dict[Generator, ShiftDiffOp] = {}

    def op(g: Generator) -> ShiftDiffOp:
        if g not in ops:
            ops[g] = _symbol(g.family, g.index, cleared)
        return ops[g]

    commutators: dict[tuple[Generator, Generator], ShiftDiffOp] = {}

    def commutator(x: Generator, y: Generator) -> ShiftDiffOp:
        # [op(y), op(x)] = -[op(x), op(y)]: each unordered pair is composed once,
        # and kept only until its other order is checked.
        if (y, x) in commutators:
            return -commutators.pop((y, x))
        commutators[x, y] = c = op(x).commutator(op(y))
        return c

    for name, fx, fy, d_m, d_n in rank1_grid(data):
        for m in range(d_m + 1):
            for n in range(d_n + 1):
                x, y = gen(fx, m), gen(fy, n)
                side: dict = {}  # den sum c z_{m+n}, zero-free like the commutator
                for z, c in bracket_terms(x, y):
                    add_scaled(side, op(z).terms, c * den)
                if commutator(x, y).terms != side:
                    raise NotAModule(name, f"at (m, n) = ({m}, {n})")

    c0 = _constant_value(data.C0, "C0")
    if c0 == 0:
        return Degenerate(submodule="span{ L0^i a0^n v : i >= 0, n >= 1 }")
    beta = -c0
    alpha = _constant_value(data.p, "p")
    g_coeffs = _a0_coefficients(data.B0, "B0")
    gamma = _constant_value(data.D0 * beta - RANK1_RING.var("a0") * data.B0, "a0 B0 - beta D0")
    params = OmegaParams(alpha=alpha, beta=beta, gamma=gamma, lam=data.lam, g=g_coeffs)
    module = OmegaModule(params)
    for f in FAMILIES:
        top = max(homomorphisms.index_degree(table[f], homomorphisms.dx0_order)
                  for table, *_ in module.pullbacks)
        for n in range(max(homomorphisms.index_degree(RANK1_SYMBOL[f]), top) + 1):
            g = gen(f, n)
            flat = {(n, k, *e): c for k, part in enumerate(operator_form(module, g))
                    for e, c in part.terms.items()}
            if flat != _candidate_operator(data, g).terms:
                raise NotAModule("round-trip", "extracted parameters do not reproduce the data")
    return params


def _constant_value(p: SparsePoly, what: str) -> Fraction:
    if any(any(e) for e in p.terms):
        raise NotAModule("constancy", f"{what} is not constant")
    return p.coefficient((0, 0))


def _a0_coefficients(p: SparsePoly, what: str) -> tuple[Fraction, ...]:
    i_l0 = RANK1_RING.index("L0")
    deg = 0
    for e in p.terms:
        if e[i_l0]:
            raise NotAModule("L0-freeness", f"{what} depends on L0")
        deg = max(deg, e[1])
    return tuple(p.coefficient((0, k)) for k in range(deg + 1))
