"""Rank-one free modules on C[s, t] and their constructive certificates.

An instance is determined by parameters (alpha, beta, gamma, lambda, g)
with beta, lambda nonzero and g a polynomial in t.  The generator actions
on f(s, t) are

    L[n] f = lam^n (s + n alpha) f(s - n, t)
    d[n] f = lam^n beta^-1 (t g(t) + gamma) f(s - n, t) + lam^n t dt f(s - n, t)
    a[n] f = lam^n t f(s - n, t)
    b[n] f = lam^n g(t) f(s - n, t) + lam^n beta dt f(s - n, t)
    c[n] f = -lam^n beta f(s - n, t)

Everything here is certificate-producing: reductions to 1, generation
from 1, and the free-rank computation over the Cartan pair (L[0], d[0])
all return replayable exact witnesses.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .certificates import CertStep, Certificate, require
from .exceptions import CertificateError, InvalidSpec, NotAModule, UnsupportedOperation, ZeroVector
from .lie import FAMILIES, Generator, bracket, gen
from .linalg import combination, exact_nullspace
from .poly import PolyRing, SparsePoly
from .scalars import ONE, ZERO, LinComb, add_scaled, binomial, scalar


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

    def __post_init__(self):
        object.__setattr__(self, "alpha", scalar(self.alpha))
        object.__setattr__(self, "beta", scalar(self.beta))
        object.__setattr__(self, "gamma", scalar(self.gamma))
        object.__setattr__(self, "lam", scalar(self.lam))
        object.__setattr__(self, "g", _normalize_coeffs(self.g))
        if self.beta == 0 or self.lam == 0:
            raise InvalidSpec("beta and lambda must be nonzero")

    @property
    def g_degree(self) -> int | None:
        return len(self.g) - 1 if self.g else None

    def sort_key(self):
        return (self.lam, self.alpha, self.beta, self.gamma, self.g, len(self.g))


def omega_factor_act(
    par: OmegaParams, ring: PolyRing, svar: str, tvar: str, g: Generator, f: SparsePoly
) -> SparsePoly:
    """One-factor action in an ambient ring (shared with tensor products)."""
    n = g.index
    sh = f.shift(svar, n) if n else f
    lam_n = par.lam**n
    if g.family == "L":
        return (sh.mul_var(svar) + sh * (n * par.alpha)) * lam_n
    if g.family == "d":
        out = _mul_g(par, ring, tvar, sh).mul_var(tvar) + sh * par.gamma
        out = out * (1 / par.beta)
        out = out + sh.derive(tvar).mul_var(tvar)
        return out * lam_n
    if g.family == "a":
        return sh.mul_var(tvar) * lam_n
    if g.family == "b":
        return (_mul_g(par, ring, tvar, sh) + sh.derive(tvar) * par.beta) * lam_n
    if g.family == "c":
        return sh * (-par.beta * lam_n)
    raise ValueError(f"unknown generator family {g.family!r}")


def _mul_g(par: OmegaParams, ring: PolyRing, tvar: str, f: SparsePoly) -> SparsePoly:
    out = ring.zero()
    for k, c in enumerate(par.g):
        if c:
            out = out + f.mul_var(tvar, k) * c
    return out


class OmegaModule:
    def __init__(self, params: OmegaParams):
        self.params = params
        self.ring = PolyRing(("s", "t"), (False, False))

    def one(self) -> SparsePoly:
        return self.ring.one()

    def act(self, g: Generator, f: SparsePoly) -> SparsePoly:
        return omega_factor_act(self.params, self.ring, "s", "t", g, f)

    def g_poly(self) -> SparsePoly:
        return self.ring.from_terms(((0, k), c) for k, c in enumerate(self.params.g))


def _solve_step(
    module, family: str, v: SparsePoly, target: SparsePoly, base_window: int
) -> CertStep:
    """Find target = kappa*v + sum_n kappa_n X[n] v as a certificate step.

    The base window comes from the generalized-Vandermonde bound; it is
    grown a few times before giving up so the bound never has to be tight.
    """
    for w in range(max(base_window, 1), base_window + 6):
        columns = [dict(v.terms)]
        words: list[tuple[Generator, ...]] = [()]
        for n in range(w):
            columns.append(dict(module.act(gen(family, n), v).terms))
            words.append((gen(family, n),))
        combo = combination(columns, dict(target.terms))
        if combo is not None:
            terms = tuple((c, word) for c, word in zip(combo, words) if c)
            cs = CertStep(terms)
            require(cs.apply(module, v) == target, "extraction step does not reach its target")
            return cs
    raise CertificateError("extraction window exhausted; bound violated")


def omega_reduce_to_one(module: OmegaModule, f: SparsePoly) -> Certificate:
    """Certificate carrying a nonzero vector to exactly 1.

    Stage 1 extracts the top-s coefficient (a nonzero polynomial in t)
    through a window of c-actions; stage 2 repeatedly applies
    beta^-1 (b[0] - g(a[0])), which realizes d/dt on C[t]; stage 3
    rescales.  Every step is verified during construction.
    """
    if f.is_zero:
        raise ZeroVector("cannot reduce the zero vector")
    par = module.params
    steps: list[CertStep] = []
    v = f
    sdeg = v.var_degree("s")
    if sdeg and sdeg > 0:
        target = v.extract_var_power("s", sdeg)
        cs = _solve_step(module, "c", v, target, sdeg + 1)
        steps.append(cs)
        v = target
    dt_combo = [(1 / par.beta, (gen("b", 0),))]
    for k, c in enumerate(par.g):
        if c:
            dt_combo.append((-c / par.beta, (gen("a", 0),) * k))
    dt_step = CertStep(tuple(dt_combo))
    while (v.var_degree("t") or 0) > 0:
        nxt = dt_step.apply(module, v)
        require(nxt == v.derive("t"), "derivative step is not d/dt")
        steps.append(dt_step)
        v = nxt
    const = v.coefficient((0, 0))
    require(const != 0, "reduction ends at zero")
    if const != 1:
        steps.append(CertStep(((1 / const, ()),)))
        v = v * (1 / const)
    cert = Certificate(steps)
    require(cert.replay(module, f) == module.one(), "reduction replay does not end at 1")
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
class GenerationWitness:
    """t^target as a C[d0]-combination of the basis monomials t^i."""

    target: int
    terms: list[tuple[int, dict[int, Fraction]]]

    def replay(self, module: OmegaModule) -> SparsePoly:
        out = module.ring.zero()
        for i, poly_in_d0 in self.terms:
            base = module.ring.monomial({"t": i})
            for power, coef in poly_in_d0.items():
                w = base
                for _ in range(power):
                    w = module.act(gen("d", 0), w)
                out = out + w * coef
        return out

    def to_jsonable(self):
        return {
            "target": self.target,
            "terms": [
                [i, [[p, str(c)] for p, c in sorted(cs.items())]]
                for i, cs in self.terms
            ],
        }


@dataclass
class UhRankReport:
    rank: int
    generation: list[GenerationWitness]
    generation_ok: bool
    independence_ok: bool
    recursion_matches_d0: bool


def uh_rank(module: OmegaModule, max_power: int | None = None,
            coeff_degree: int = 3) -> UhRankReport:
    """Free rank over C[L0, d0], with generation and independence witnesses.

    The generation recursion used is the derived form

        g_N t^(N+1+s) = (beta d0 - beta s - gamma) t^s - sum_{k<N} g_k t^(k+1+s)

    (leading factor g_N and the term beta*s; both differ from the usual
    informal normalization to g_N = 1, beta = 1).  It is cross-checked
    against the direct d[0] action for 0 <= s <= 6.
    """
    par = module.params
    if not par.g:
        raise UnsupportedOperation("free-rank computation needs g != 0")
    N = par.g_degree
    rank = N + 1
    top = 3 * rank if max_power is None else max_power

    # recursion vs direct action
    recursion_ok = True
    for s in range(7):
        ts = module.ring.monomial({"t": s})
        lhs = module.act(gen("d", 0), ts) * par.beta
        rhs = module.ring.zero()
        for k, c in enumerate(par.g):
            rhs = rhs + module.ring.monomial({"t": k + 1 + s}, c)
        rhs = rhs + ts * (par.beta * s + par.gamma)
        if lhs != rhs:
            recursion_ok = False

    # expressions t^j = sum_i P_{ji}(d0) t^i, built by the recursion
    exprs: list[list[dict[int, Fraction]]] = []
    for j in range(N + 1):
        exprs.append([{0: ONE} if i == j else {} for i in range(N + 1)])

    gN = par.g[-1]
    for s in range(top - N):
        # t^(N+1+s), divided through by g_N
        row = []
        for e in exprs[s]:
            r = add_scaled({}, {p + 1: c for p, c in e.items()}, par.beta / gN)
            row.append(add_scaled(r, e, -(par.beta * s + par.gamma) / gN))
        for k in range(N):
            c = -par.g[k] / gN
            for r, e in zip(row, exprs[k + 1 + s]):
                add_scaled(r, e, c)
        exprs.append(row)

    witnesses = []
    generation_ok = True
    for j in range(top + 1):
        w = GenerationWitness(j, [(i, cs) for i, cs in enumerate(exprs[j]) if cs])
        witnesses.append(w)
        if w.replay(module) != module.ring.monomial({"t": j}):
            generation_ok = False

    # independence: the only low-degree C[L0,d0]-combination of the basis
    # that vanishes is zero
    columns = []
    for k in range(N + 1):
        base = module.ring.monomial({"t": k})
        for i in range(coeff_degree + 1):
            for j in range(coeff_degree + 1):
                vec = base
                for _ in range(j):
                    vec = module.act(gen("d", 0), vec)
                for _ in range(i):
                    vec = module.act(gen("L", 0), vec)
                columns.append(dict(vec.terms))
    keys = sorted(set(itertools.chain.from_iterable(columns)))
    rows = [[col.get(k2, ZERO) for col in columns] for k2 in keys]
    independence_ok = not exact_nullspace(rows)

    return UhRankReport(
        rank=rank,
        generation=witnesses,
        generation_ok=generation_ok,
        independence_ok=independence_ok,
        recursion_matches_d0=recursion_ok,
    )


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


def rank1_data_from_omega(par: OmegaParams) -> Rank1ActionData:
    """Read the index-zero structure functions off a concrete module."""
    a0 = RANK1_RING.var("a0")
    g_at_a0 = RANK1_RING.zero()
    for k, c in enumerate(par.g):
        if c:
            g_at_a0 = g_at_a0 + a0**k * c
    return Rank1ActionData(
        lam=par.lam,
        p=RANK1_RING.const(par.alpha),
        B0=g_at_a0,
        C0=RANK1_RING.const(-par.beta),
        D0=(a0 * g_at_a0 + RANK1_RING.const(par.gamma)) * (1 / par.beta),
    )


def classify_rank1(data: Rank1ActionData, window: int = 2) -> OmegaParams | Degenerate:
    """Decide which concrete module a candidate action table presents.

    The bracket relations are checked as exact operator identities over
    the index window; the named checks (1) [b,c] = 0, (2) [L,b] = n b and
    (3) [b,d] = b run first so corruptions are reported at the relation
    that pins them down.  Consistent data with c[0]-image zero presents a
    module with an obvious proper submodule and is reported Degenerate;
    otherwise the five parameters are extracted and round-tripped.
    """
    ops: dict[Generator, ShiftDiffOp] = {}

    def op(g: Generator) -> ShiftDiffOp:
        if g not in ops:
            ops[g] = _candidate_operator(data, g)
        return ops[g]

    def bracket_op(x: Generator, y: Generator) -> ShiftDiffOp:
        out: dict = {}
        for g2, c in bracket(x, y).terms.items():
            add_scaled(out, op(g2).terms, c)
        return ShiftDiffOp()._like(out)

    idx = range(-window, window + 1)
    named = [
        ("(1) [b_m, c_n] = 0", "b", "c"),
        ("(2) [L_m, b_n] = n b_{m+n}", "L", "b"),
        ("(3) [b_m, d_n] = b_{m+n}", "b", "d"),
    ]
    for name, fx, fy in named:
        for m in idx:
            for n in idx:
                x, y = gen(fx, m), gen(fy, n)
                if not (op(x).commutator(op(y)) - bracket_op(x, y)).is_zero:
                    raise NotAModule(name, f"at (m, n) = ({m}, {n})")
    for fx in FAMILIES:
        for fy in FAMILIES:
            for m in idx:
                for n in idx:
                    x, y = gen(fx, m), gen(fy, n)
                    if not (op(x).commutator(op(y)) - bracket_op(x, y)).is_zero:
                        raise NotAModule(f"[{fx}_m, {fy}_n]", f"at (m, n) = ({m}, {n})")

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
    if rank1_data_from_omega(params) != data:
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
