"""Rank-one free modules on C[s, t] and their constructive certificates.

An instance is determined by parameters (alpha, beta, gamma, lambda, g)
with beta, lambda nonzero and g a polynomial in t.  The generator actions
on f(s, t) are

    L[n] f = lam^n (s + n alpha) f(s - n, t)
    d[n] f = lam^n beta^-1 (t g(t) + gamma) f(s - n, t) + lam^n t dt f(s - n, t)
    a[n] f = lam^n t f(s - n, t)
    b[n] f = lam^n g(t) f(s - n, t) + lam^n beta dt f(s - n, t)
    c[n] f = -lam^n beta f(s - n, t)

Everything here is certificate-producing: reductions to 1 and generation
from 1 return replayable exact witnesses, and the free rank over the
Cartan pair (L[0], d[0]) is proved from four probe images that a checker
can recompute.  Every orbit step of a certificate, here and in ``tensor``,
is an ``orbit_component``: the n^x lam^n part of an X-orbit, taken by one
fixed combination of N images whose weights invert a generalized
Vandermonde matrix; ``dt_step`` builds d/dt from the lam-parts of the b-
and a-orbits.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

from .certificates import CertStep, Certificate, require
from .exceptions import InvalidGenerator, InvalidSpec, NotAModule, UnsupportedOperation, ZeroVector
from .lie import FAMILIES, Generator, bracket, gen
from .linalg import combination
from .poly import PolyRing, SparsePoly, act_by_rules
from .scalars import ONE, ZERO, LinComb, add_scaled, binomial, clear_denominators, scalar


def _normalize_coeffs(coeffs) -> tuple[Fraction, ...]:
    cs = [scalar(c) for c in coeffs]
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


@dataclass(frozen=True)
class OmegaParams:
    alpha: Fraction
    beta: Fraction
    gamma: Fraction
    lam: Fraction
    g: tuple[Fraction, ...]
    # (D, alpha D, beta D, gamma D, g_0 D, ...) over one denominator D.
    ints: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "alpha", scalar(self.alpha))
        object.__setattr__(self, "beta", scalar(self.beta))
        object.__setattr__(self, "gamma", scalar(self.gamma))
        object.__setattr__(self, "lam", scalar(self.lam))
        object.__setattr__(self, "g", _normalize_coeffs(self.g))
        if self.beta == 0 or self.lam == 0:
            raise InvalidSpec("beta and lambda must be nonzero")
        nums, d = clear_denominators(dict(enumerate((self.alpha, self.beta, self.gamma, *self.g))))
        object.__setattr__(self, "ints", (d, *nums.values()))

    @property
    def g_degree(self) -> int | None:
        return len(self.g) - 1 if self.g else None

    def sort_key(self):
        return (self.lam, self.alpha, self.beta, self.gamma, self.g, len(self.g))


def omega_factor_act(
    par: OmegaParams, ring: PolyRing, svar: str, tvar: str, g: Generator, f: SparsePoly
) -> SparsePoly:
    """One-factor action in an ambient ring (shared with tensor products).

    X[n] s^p t^q is lam^n times these rules, with S_d = (s - n)^(p+d):

        L[n]:  S_1 t^q + n (alpha + 1) S_0 t^q
        d[n]:  (gamma/beta + q) S_0 t^q + sum_k g_k/beta S_0 t^(q+k+1)
        a[n]:  S_0 t^(q+1)
        b[n]:  sum_k g_k S_0 t^(q+k) + beta q S_0 t^(q-1)
        c[n]:  -beta S_0 t^q

    (L's s (s - n)^p is S_1 + n S_0.)  The rules are built per call from ``par.ints``.

    Operator form.  Every rule moves s only through the shift tau^n: s -> s - n
    and is first order in t (the q and beta q t^(q-1) parts are t d/dt and
    beta d/dt), so on C[s, t]

        X[n] = (A + B d/dt) o tau^n,  A = X[n] 1,  B = X[n] t - t X[n] 1,

    with A and B in C[s, t]; tau^n fixes 1 and t, so the images of these two
    probes fix the operator.  Here A_L = lam^n (s + n alpha), A_d = lam^n
    (t g(t) + gamma) / beta, B_d = lam^n t, A_a = lam^n t, A_b = lam^n g(t),
    B_b = lam^n beta, A_c = -lam^n beta, and B = 0 for L, a and c.  In a
    tensor product factor k acts in this form on (s_k, t_k) alone.
    """
    (D, A, B, G, *gs), n = par.ints, g.index
    if g.family == "L":
        den, rules = D, [(D, 0, 1, 0), (n * (A + D), 0, 0, 0)]
    elif g.family == "d":
        den, rules = B, [(G, B, 0, 0)] + [(c, 0, 0, k + 1) for k, c in enumerate(gs)]
    elif g.family == "a":
        den, rules = 1, [(1, 0, 0, 1)]
    elif g.family == "b":
        den, rules = D, [(c, 0, 0, k) for k, c in enumerate(gs)] + [(0, B, 0, -1)]
    elif g.family == "c":
        den, rules = D, [(-B, 0, 0, 0)]
    else:
        raise InvalidGenerator(f"unknown generator family {g.family!r}")
    i, j = ring.index(svar), ring.index(tvar)
    ops = [(k, kq, j, ((i, ds, n), (j, dt, 0))) for k, kq, ds, dt in rules]
    return act_by_rules(f, ops, den, (par.lam, n))


class OmegaModule:
    def __init__(self, params: OmegaParams):
        self.params = params
        self.ring = PolyRing(("s", "t"), (False, False))
        self.orbit_weights: dict = {}  # ``orbit_component``'s weights, by (degrees, lam, x)

    def one(self) -> SparsePoly:
        return self.ring.one()

    def act(self, g: Generator, f: SparsePoly) -> SparsePoly:
        return omega_factor_act(self.params, self.ring, "s", "t", g, f)

    def index_degrees(self, family: str, v: SparsePoly) -> dict[Fraction, int]:
        """The bounds D_lam of ``index_degrees`` for the X-orbit of v."""
        return index_degrees((self.params.lam,), (v.var_degree("s") or 0,), family)


def index_degrees(lams, profile, family: str) -> dict[Fraction, int]:
    """Bounds D_lam on the n-degree of X[n] v = sum_lam lam^n P_lam(n).

    ``lams`` are the factors' scales and ``profile`` the s-degree of v in
    each factor.  X[n] shifts s_k -> s_k - n, which contributes n^p_k, and
    L's n alpha adds one more, so D_lam = max{p_k + [X = L] : lam_k = lam}.
    """
    e = 1 if family == "L" else 0
    degrees: dict[Fraction, int] = {}
    for lam, p in zip(lams, profile):
        degrees[lam] = max(degrees.get(lam, 0), p + e)
    return degrees


def orbit_points(degrees: dict[Fraction, int]) -> int:
    """N = sum_lam (D_lam + 1) for the bounds of ``index_degrees``.

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
    see ``FModule.index_degrees``).
    """
    gens = [gen(family, n) for n in range(orbit_points(module.index_degrees(family, v)))]
    return [(g, module.act(g, v)) for g in gens]


@dataclass
class InvarianceReport:
    """Probe images of a subspace W, those that escape it, and W's properness witness."""

    probes: int = 0
    images_checked: int = 0
    max_index_degree: int = 0
    escapes: list[str] = field(default_factory=list)
    proper: bool = False

    @property
    def ok(self) -> bool:
        return self.proper and not self.escapes


def invariance_check(module, probes: list[SparsePoly], in_w: Callable[[SparsePoly], bool],
                     inside: SparsePoly, outside: SparsePoly) -> InvarianceReport:
    """Exact invariance of W under every X[n], n in Z, from the ``orbit`` of each probe.

    Each caller proves that its W, tested by ``in_w``, is invariant once
    every X[n] maps each probe into W; the probe's ``orbit`` images settle
    every n (the Vandermonde span of ``orbit``, or for an F module's
    x0-shift the grid lemma of ``FModule.index_degrees``).  W is proper
    when ``inside`` lies in it and ``outside`` does not.
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
    Q = P R with P = prod_{mu != lam} (z - mu)^(D_mu + 1), and the
    D_lam + 1 coefficients of R solve the conditions at lam, one small
    solve.  w depends on v and the family only through the index degrees, so
    the nonzero (n, w_n) are kept in ``module.orbit_weights`` under the key
    (index-degree items, lam, x): one solve serves every vector of one
    s-profile, in every family, for the life of the module instance.
    """
    degrees = module.index_degrees(family, v)
    key = (tuple(degrees.items()), lam, x)
    weights = module.orbit_weights.get(key)
    if weights is None:
        p = [ONE]  # the coefficients of P, constant term first
        for mu, d in degrees.items():
            for _ in range(d + 1 if mu != lam else 0):
                p = [a - mu * b for a, b in zip([ZERO, *p], [*p, ZERO])]
        top = degrees[lam] + 1  # the number of coefficients of R
        # (theta^y (P z^i))(lam) = sum_j p_j (i + j)^y lam^(i + j)
        parts = [[(i + j, c * lam ** (i + j)) for j, c in enumerate(p)] for i in range(top)]
        r = combination([{y: sum(k**y * c for k, c in part) for y in range(top)}
                         for part in parts], {x: ONE})
        require(r is not None, f"no {family}-orbit combination isolates n^{x} ({lam})^n")
        w = [sum(r[i] * p[n - i] for i in range(top) if 0 <= n - i < len(p))
             for n in range(len(p) + top - 1)]
        weights = module.orbit_weights[key] = [(n, c) for n, c in enumerate(w) if c]
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


def omega_reduce_to_one(module: OmegaModule, f: SparsePoly) -> Certificate:
    """Certificate carrying a nonzero vector to exactly 1.

    Stage 1 extracts the top-s coefficient (a nonzero polynomial in t): it
    is (-1)^(p+1)/beta times the n^p lam^n part of the c-orbit, p the
    s-degree; stage 2 repeatedly applies ``dt_step``, d/dt on C[t]; stage 3
    rescales.  Each step's target is computed directly (the top-s
    coefficient, the t-derivative, 1) while the chain is built, and one
    checked ``Certificate.replay`` applies every step once and compares its
    image with that target.
    """
    if f.is_zero:
        raise ZeroVector("cannot reduce the zero vector")
    par = module.params
    steps: list[CertStep] = []
    checks: list[tuple[SparsePoly, str]] = []
    v = f
    sdeg = v.var_degree("s")
    if sdeg and sdeg > 0:
        v = v.extract_var_power("s", sdeg)
        steps.append(orbit_component(module, "c", f, par.lam, sdeg,
                                     (-1) ** (sdeg + 1) / par.beta))
        checks.append((v, EXTRACTION_MISSED))
    derivative = dt_step(module, par)
    while (v.var_degree("t") or 0) > 0:
        v = v.derive("t")
        steps.append(derivative)
        checks.append((v, DERIVATIVE_MISSED))
    const = v.coefficient((0, 0))
    require(const != 0, "reduction ends at zero")
    if const != 1:
        v = v * (1 / const)
        steps.append(CertStep(((1 / const, ()),)))
        checks.append((v, "reduction replay does not end at 1"))
    cert = Certificate(steps)
    require(cert.replay(module, f, checks) == module.one(), "reduction replay does not end at 1")
    return cert


def omega_generate(module: OmegaModule, s_exp: int, t_exp: int) -> Certificate:
    """Certificate from 1 to the monomial s^p t^q.

    L[0] and a[0] act as multiplication by s and t, so a single word
    suffices; its replay is still checked.
    """
    if s_exp < 0 or t_exp < 0:
        raise ValueError("exponents must be natural numbers")
    if s_exp == 0 and t_exp == 0:
        return Certificate([])
    word = (gen("L", 0),) * s_exp + (gen("a", 0),) * t_exp
    cert = Certificate([CertStep(((ONE, word),))])
    require(
        cert.replay(module, module.one()) == module.ring.monomial({"s": s_exp, "t": t_exp}),
        "generation replay does not reach the monomial",
    )
    return cert


@dataclass
class UhRankReport:
    """The probe images of L[0] and d[0], the operators they fix, and the verdict."""

    images: list[tuple[str, SparsePoly, SparsePoly]]  # (operator, probe, image)
    operators: dict[str, tuple[SparsePoly, SparsePoly]]  # operator -> (A, B)
    facts: dict[str, bool]

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
        raise UnsupportedOperation("free-rank computation needs g != 0")
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


@dataclass(frozen=True)
class Rank1ActionData:
    """Candidate structure functions of a rank-one free module on basis v.

    lam scales the index ladder; p gives L[n] v = lam^n (L0 + n p(a0)) v;
    B0, C0, D0 are the images of b[0], c[0], d[0] on v, as polynomials in
    (L0, a0).  Higher-index data is generated by the lam^n scaling law.
    """

    lam: Fraction
    p: SparsePoly
    B0: SparsePoly
    C0: SparsePoly
    D0: SparsePoly

    def __post_init__(self):
        object.__setattr__(self, "lam", scalar(self.lam))
        if self.lam == 0:
            raise ValueError("lambda must be nonzero")
        for f in (self.p, self.B0, self.C0, self.D0):
            if f.ring != RANK1_RING:
                raise ValueError("structure functions must live in C[L0, a0]")


@dataclass(frozen=True)
class Degenerate:
    submodule: str


class ShiftDiffOp(LinComb):
    """Exact operators f |-> sum G_{n,k}(L0,a0) (da0^k f)(L0 - n, a0).

    Keys are (n, k) and coefficients the polynomials G_{n,k}.  Composition
    stays in this class, so bracket relations can be checked as coefficient
    identities rather than on sample vectors.
    """

    __slots__ = ()

    def __init__(self, terms: dict[tuple[int, int], SparsePoly] | None = None):
        self.terms = {k: p for k, p in (terms or {}).items() if p}

    __str__ = __repr__ = object.__repr__

    def compose(self, other: "ShiftDiffOp") -> "ShiftDiffOp":
        out: dict[tuple[int, int], SparsePoly] = {}
        for (n1, k1), g1 in self.terms.items():
            for (n2, k2), g2 in other.terms.items():
                for r in range(k1 + 1):
                    g2r = g2
                    for _ in range(r):
                        g2r = g2r.derive("a0")
                    if g2r.is_zero:
                        continue
                    piece = g1 * g2r.shift("L0", n1)
                    if r:
                        piece = piece * binomial(k1, r)
                    key = (n1 + n2, k1 + k2 - r)
                    q = out.get(key)
                    np = piece if q is None else q + piece
                    if np.is_zero:
                        out.pop(key, None)
                    else:
                        out[key] = np
        return self._like(out)

    def commutator(self, other: "ShiftDiffOp") -> "ShiftDiffOp":
        return self.compose(other) - other.compose(self)


def _candidate_operator(data: Rank1ActionData, g: Generator) -> ShiftDiffOp:
    n = g.index
    lam_n = data.lam**n
    L0 = RANK1_RING.var("L0")
    a0 = RANK1_RING.var("a0")
    if g.family == "L":
        return ShiftDiffOp({(n, 0): (L0 + data.p * n) * lam_n})
    if g.family == "a":
        return ShiftDiffOp({(n, 0): a0 * lam_n})
    if g.family == "b":
        return ShiftDiffOp({(n, 0): data.B0 * lam_n, (n, 1): -data.C0 * lam_n})
    if g.family == "c":
        return ShiftDiffOp({(n, 0): data.C0 * lam_n})
    if g.family == "d":
        return ShiftDiffOp({(n, 0): data.D0 * lam_n, (n, 1): a0 * lam_n})
    raise ValueError(f"unknown generator family {g.family!r}")


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

    The defect of [x_m, y_n] is lam^(m+n) times one operator with shift
    m + n whose coefficients are polynomials in (m, n).  In x_m y_n the
    coefficients of y are shifted by L0 -> L0 - m, so the m-degree is at
    most D_m = e_x + l_y, where e is a family's index degree (1 for the
    n p of L, else 0) and l the L0-degree of its coefficients; likewise
    D_n = e_y + l_x.  The bracket side c(m, n) op_z(m+n) needs no more:
    c has degree 1 in m only when y = L and in n only when x = L, e_z = 1
    only for [L, L], and l_L >= 1.  A polynomial of these degrees that
    vanishes on {0..D_m} x {0..D_n} vanishes on all of Z^2.
    """
    def l0_degree(*polys: SparsePoly) -> int:
        return max(p.var_degree("L0") or 0 for p in polys)

    ell = {
        "L": max(1, l0_degree(data.p)),
        "a": 0,
        "b": l0_degree(data.B0, data.C0),
        "c": l0_degree(data.C0),
        "d": l0_degree(data.D0),
    }
    e = {"L": 1, "a": 0, "b": 0, "c": 0, "d": 0}
    named = {(fx, fy): name for name, fx, fy in _NAMED_RELATIONS}
    pairs = list(named) + [(fx, fy) for fx in FAMILIES for fy in FAMILIES
                           if (fx, fy) not in named]
    return [(named.get((fx, fy), f"[{fx}_m, {fy}_n]"), fx, fy, e[fx] + ell[fy], e[fy] + ell[fx])
            for fx, fy in pairs]


def classify_rank1(data: Rank1ActionData) -> OmegaParams | Degenerate:
    """Decide which concrete module a candidate action table presents.

    Every bracket relation [x_m, y_n] is checked as an exact operator
    identity on the minimal grid of ``rank1_grid``, which proves it for all
    (m, n) in Z^2.  The named checks (1) [b,c] = 0, (2) [L,b] = n b and
    (3) [b,d] = b run first so corruptions are reported at the relation
    that pins them down.  Consistent data with c[0]-image zero presents a
    module with an obvious proper submodule and is reported Degenerate;
    otherwise the five parameters are extracted, and both parts of the
    ``operator_form`` of L[1] and of a, b, c, d, L at index 0 in their
    module must equal the (n, 0) and (n, 1) coefficients of the data's
    symbol.
    """
    ops: dict[Generator, ShiftDiffOp] = {}

    def op(g: Generator) -> ShiftDiffOp:
        if g not in ops:
            ops[g] = _candidate_operator(data, g)
        return ops[g]

    commutators: dict[tuple[Generator, Generator], ShiftDiffOp] = {}

    def commutator(x: Generator, y: Generator) -> ShiftDiffOp:
        # [op(y), op(x)] = -[op(x), op(y)]: each unordered pair is composed once,
        # and kept only until its other order is checked.
        if (y, x) in commutators:
            return -commutators.pop((y, x))
        commutators[x, y] = c = op(x).commutator(op(y))
        return c

    def bracket_op(x: Generator, y: Generator) -> ShiftDiffOp:
        out: dict = {}
        for g2, c in bracket(x, y).terms.items():
            add_scaled(out, op(g2).terms, c)
        return ShiftDiffOp()._like(out)

    for name, fx, fy, d_m, d_n in rank1_grid(data):
        for m in range(d_m + 1):
            for n in range(d_n + 1):
                x, y = gen(fx, m), gen(fy, n)
                if not (commutator(x, y) - bracket_op(x, y)).is_zero:
                    raise NotAModule(name, f"at (m, n) = ({m}, {n})")

    c0 = _constant_value(data.C0, "C0")
    if c0 == 0:
        return Degenerate(submodule="span{ L0^i a0^n v : i >= 0, n >= 1 }")
    beta = -c0
    alpha = _constant_value(data.p, "p")
    g_coeffs = _a0_coefficients(data.B0, "B0")
    a0 = RANK1_RING.var("a0")
    gamma_poly = -(a0 * data.B0 - data.D0 * beta)
    gamma = _constant_value(gamma_poly, "a0 B0 - beta D0")
    params = OmegaParams(alpha=alpha, beta=beta, gamma=gamma, lam=data.lam, g=g_coeffs)
    module = OmegaModule(params)
    for g in (gen("L", 1), *(gen(f, 0) for f in FAMILIES)):
        a, b = (SparsePoly(RANK1_RING, dict(x.terms)) for x in operator_form(module, g))
        if ShiftDiffOp({(g.index, 0): a, (g.index, 1): b}) != op(g):
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
