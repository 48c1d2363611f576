"""Tensor products of rank-one free modules on C[s_1, t_1, ..., s_m, t_m].

Generators act by the Leibniz rule through the one-factor actions; the
k-th factor touches only (s_k, t_k).  Degrees are lexicographic on the
exponent vector (p_1..p_m, q_1..q_m), with the zero vector below every
degree.  All span extractions rest on the invertibility of generalized
Vandermonde matrices with rows n^x lam_k^n over consecutive integers n,
which is certified by the closed-form determinant of ``det_r``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .certificates import CertStep, Certificate, require
from .exceptions import CertificateError, InvalidSpec, NotApplicable, RequiresSimple, ZeroVector
from .lie import FAMILIES, Generator, gen
from .linalg import SpanBasis, combination, exact_det
from .omega import OmegaParams, omega_factor_act
from .poly import PolyRing, SparsePoly
from .scalars import ONE, scalar, superfactorial


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
        out = self.ring.zero()
        for k, par in enumerate(self.factors, start=1):
            out = out + omega_factor_act(par, self.ring, self.svar(k), self.tvar(k), g, v)
        return out

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


# -- the generalized Vandermonde determinant --------------------------------


@dataclass(frozen=True)
class DetSpec:
    alphas: tuple[Fraction, ...]
    sizes: tuple[int, ...]
    r: int

    def __post_init__(self):
        object.__setattr__(self, "alphas", tuple(scalar(a) for a in self.alphas))
        object.__setattr__(self, "sizes", tuple(int(s) for s in self.sizes))
        if len(self.alphas) != len(self.sizes):
            raise InvalidSpec("one size per alpha required")
        if any(a == 0 for a in self.alphas):
            raise InvalidSpec("alphas must be nonzero")
        if len(set(self.alphas)) != len(self.alphas):
            raise InvalidSpec("alphas must be pairwise distinct")
        if any(s < 1 for s in self.sizes):
            raise InvalidSpec("sizes must be at least 1")
        if self.r < 0:
            raise InvalidSpec("row offset must be a natural number")


def det_matrix(spec: DetSpec) -> list[list[Fraction]]:
    """Rows n = r .. r+s-1 of the functions n^x alpha_t^n, blocked by t."""
    cols = []
    for a, s in zip(spec.alphas, spec.sizes):
        for x in range(s):
            cols.append((a, x))
    size = len(cols)
    rows = []
    for p in range(spec.r, spec.r + size):
        rows.append([scalar(p) ** x * a**p for (a, x) in cols])
    return rows


@dataclass
class DetResult:
    computed: Fraction
    closed_form: Fraction

    @property
    def ok(self) -> bool:
        return self.computed == self.closed_form


def det_r(spec: DetSpec) -> DetResult:
    """Exact determinant against its closed-form product."""
    computed = exact_det(det_matrix(spec))
    closed = ONE
    for a, s in zip(spec.alphas, spec.sizes):
        e = s * (s + 2 * spec.r - 1)
        assert e % 2 == 0
        closed *= superfactorial(s - 1) * a ** (e // 2)
    for i in range(len(spec.alphas)):
        for j in range(i + 1, len(spec.alphas)):
            closed *= (spec.alphas[j] - spec.alphas[i]) ** (spec.sizes[i] * spec.sizes[j])
    return DetResult(computed=computed, closed_form=closed)


# -- spans and extractions ---------------------------------------------------


def span_NXg(module: TensorModule, family: str, g: SparsePoly,
             stable_growths: int | None = None) -> tuple[list[SparsePoly], int]:
    """Basis and dimension of span{g, X_n g : n in Z} for X in {L, a}.

    Consecutive windows starting at the Vandermonde bound are grown until
    the dimension is stable for m consecutive growths; stabilization is
    then certified by the invertibility of the coefficient system.
    """
    if family not in ("L", "a"):
        raise ValueError("the span is defined for the L and a families")
    if g.is_zero:
        raise ZeroVector("span of the zero vector")
    per_factor = 2 if family == "L" else 1
    base = sum(p + per_factor for p in module.s_profile(g)) + 1
    needed = stable_growths if stable_growths is not None else max(2, module.m)
    basis = SpanBasis()
    basis.add(g.terms)
    n = 0
    stable = 0
    window = base
    while True:
        while n < window:
            basis.add(module.act(gen(family, n), g).terms)
            n += 1
        dim_before = basis.dim
        window += 1
        basis.add(module.act(gen(family, n), g).terms)
        n += 1
        stable = stable + 1 if basis.dim == dim_before else 0
        if stable >= needed:
            break
    vectors = [SparsePoly(module.ring, dict(v)) for v in basis.vectors()]
    return vectors, basis.dim


def _solve_in_orbit(module: TensorModule, family: str, v: SparsePoly,
                    target: SparsePoly, base_window: int) -> CertStep:
    for w in range(max(base_window, 1), base_window + module.m + 6):
        columns = [dict(v.terms)]
        words: list[tuple[Generator, ...]] = [()]
        for n in range(w):
            columns.append(dict(module.act(gen(family, n), v).terms))
            words.append((gen(family, n),))
        combo = combination(columns, dict(target.terms))
        if combo is not None:
            cs = CertStep(tuple((c, word) for c, word in zip(combo, words) if c))
            require(cs.apply(module, v) == target, "extraction step does not reach its target")
            return cs
    raise CertificateError("extraction window exhausted; Vandermonde bound violated")


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
    """
    if not module.distinct_lambdas():
        raise NotApplicable("requires pairwise distinct lambdas")
    if g.is_zero:
        raise ZeroVector("extraction from the zero vector")
    if not 1 <= k <= module.m:
        raise ValueError("factor index out of range")
    family = "L" if which == 9 else "a"
    per_factor = 2 if which == 9 else 1
    base = sum(p + per_factor for p in module.s_profile(g))
    target = _shifted_target(module, g, which, k)
    step = _solve_in_orbit(module, family, g, target, base)
    return target, Certificate([step])


def tensor_reduce_to_bottom(module: TensorModule,
                            g: SparsePoly) -> tuple[Certificate, SparsePoly]:
    """Certificate chain from g to a nonzero multiple of 1.

    The s-part of the leading exponent is peeled off by top-slice
    extractions (strictly degree-decreasing); once the vector lies in
    C[t_1..t_m], derivative steps assembled from the b-orbit and t-power
    words reduce the t-part to a constant.
    """
    if not module.distinct_lambdas():
        raise NotApplicable("requires pairwise distinct lambdas")
    if g.is_zero:
        raise ZeroVector("cannot reduce the zero vector")
    m = module.m
    steps: list[CertStep] = []
    v = g
    while True:
        deg = v.degree()
        p_part, q_part = deg[:m], deg[m:]
        if any(p_part):
            k = next(i for i, p in enumerate(p_part) if p) + 1
            target = _shifted_target(module, v, 11, k)
            base = sum(p + 1 for p in module.s_profile(v))
            steps.append(_solve_in_orbit(module, "a", v, target, base))
            v = target
        elif any(q_part):
            k = next(i for i, q in enumerate(q_part) if q) + 1
            step, v = _derivative_step(module, v, k)
            steps.append(step)
        else:
            break
    cert = Certificate(steps)
    require(cert.replay(module, g) == v, "reduction replay does not reach the bottom vector")
    require(set(v.terms) == {(0,) * (2 * m)}, "reduction does not end at a nonzero constant")
    return cert, v


def _t_power_words(module: TensorModule, v: SparsePoly, k: int,
                   max_power: int) -> list[list[tuple[Fraction, tuple[Generator, ...]]]]:
    """Word combinations realizing t_k^j v for j = 0..max_power.

    Valid for vectors with no s-dependence: each level is one a-orbit
    extraction, and levels compose into words.
    """
    chains = [[(ONE, ())]]
    current = v
    for _ in range(max_power):
        target = current.mul_var(module.tvar(k))
        step = _solve_in_orbit(module, "a", current, target, module.m)
        flattened = []
        for c2, w2 in step.combo:
            for c1, w1 in chains[-1]:
                flattened.append((c2 * c1, w2 + w1))
        chains.append(flattened)
        current = target
    return chains


def _derivative_step(module: TensorModule, v: SparsePoly,
                     k: int) -> tuple[CertStep, SparsePoly]:
    """d/dt_k on an s-free vector, as a b-orbit plus t-power combination."""
    par = module.factors[k - 1]
    target = v.derive(module.tvar(k))
    gdeg = len(par.g) - 1 if par.g else -1
    chains = _t_power_words(module, v, k, max(gdeg, 0))
    for w in range(module.m, 2 * module.m + 6):
        columns = []
        owners: list[tuple[str, int]] = []
        for n in range(w):
            columns.append(dict(module.act(gen("b", n), v).terms))
            owners.append(("b", n))
        tpowers = [v]
        for j in range(1, max(gdeg, 0) + 1):
            tpowers.append(tpowers[-1].mul_var(module.tvar(k)))
        for j, tp in enumerate(tpowers):
            columns.append(dict(tp.terms))
            owners.append(("t", j))
        combo = combination(columns, dict(target.terms))
        if combo is None:
            continue
        terms: list[tuple[Fraction, tuple[Generator, ...]]] = []
        for c, owner in zip(combo, owners):
            if not c:
                continue
            kind, n = owner
            if kind == "b":
                terms.append((c, (gen("b", n),)))
            else:
                for cw, word in chains[n]:
                    terms.append((c * cw, word))
        step = CertStep(tuple(terms))
        require(step.apply(module, v) == target, "derivative step is not d/dt")
        return step, target
    raise CertificateError("derivative step window exhausted")


def tensor_generate(module: TensorModule, exponents: Sequence[int]) -> Certificate:
    """Certificate from 1 to the monomial with the given exponent vector."""
    if not module.distinct_lambdas():
        raise NotApplicable("requires pairwise distinct lambdas")
    m = module.m
    exps = tuple(int(e) for e in exponents)
    if len(exps) != 2 * m or any(e < 0 for e in exps):
        raise ValueError("expected a natural exponent vector of length 2m")
    steps: list[CertStep] = []
    v = module.one()
    for k in range(1, m + 1):
        for _ in range(exps[k - 1]):
            target = v.mul_var(module.svar(k))
            base = sum(p + 2 for p in module.s_profile(v))
            steps.append(_solve_in_orbit(module, "L", v, target, base))
            v = target
    for k in range(1, m + 1):
        for _ in range(exps[m + k - 1]):
            target = v.mul_var(module.tvar(k))
            base = sum(p + 1 for p in module.s_profile(v))
            steps.append(_solve_in_orbit(module, "a", v, target, base))
            v = target
    cert = Certificate(steps)
    require(
        cert.replay(module, module.one()) == SparsePoly(module.ring, {exps: ONE}),
        "generation replay does not reach the monomial",
    )
    return cert


def r_g(module: TensorModule, g: SparsePoly) -> int:
    """dim span{g, a_n g, c_n g : n in Z}, at least m + 1 for nonzero g."""
    if g.is_zero:
        raise ZeroVector("rank of the zero vector")
    base = sum(p + 1 for p in module.s_profile(g))
    needed = max(2, module.m)
    basis = SpanBasis()
    basis.add(g.terms)
    n = 0
    window = max(base, 1)
    stable = 0
    while True:
        while n < window:
            basis.add(module.act(gen("a", n), g).terms)
            basis.add(module.act(gen("c", n), g).terms)
            n += 1
        before = basis.dim
        window += 1
        basis.add(module.act(gen("a", n), g).terms)
        basis.add(module.act(gen("c", n), g).terms)
        n += 1
        stable = stable + 1 if basis.dim == before else 0
        if stable >= needed:
            return basis.dim


# -- simplicity and isomorphism ----------------------------------------------


@dataclass
class WInvarianceReport:
    pair: tuple[int, int]
    basis_size: int
    images_checked: int
    escapes: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.escapes


def w_witness_basis(module: TensorModule, i: int, j: int,
                    max_total_degree: int) -> list[SparsePoly]:
    """Basis of the invariant witness subspace up to a total degree.

    Elements are (s_i + s_j)^p t_i^{qi} t_j^{qj} times arbitrary monomials
    in the remaining factors; each basis vector is homogeneous, so degree
    truncation respects the subspace.
    """
    m = module.m
    others = [k for k in range(1, m + 1) if k not in (i, j)]
    out = []

    def monos(budget: int, vars_left: list[str]):
        if not vars_left:
            yield {}
            return
        v = vars_left[0]
        for e in range(budget + 1):
            for rest in monos(budget - e, vars_left[1:]):
                d = dict(rest)
                if e:
                    d[v] = e
                yield d

    other_vars = [module.svar(k) for k in others] + [module.tvar(k) for k in others]
    si = module.ring.var(module.svar(i))
    sj = module.ring.var(module.svar(j))
    for p in range(max_total_degree + 1):
        core = (si + sj) ** p
        for qi in range(max_total_degree - p + 1):
            for qj in range(max_total_degree - p - qi + 1):
                head = core.mul_var(module.tvar(i), qi).mul_var(module.tvar(j), qj)
                budget = max_total_degree - p - qi - qj
                for d in monos(budget, other_vars):
                    w = head
                    for name, e in d.items():
                        w = w.mul_var(name, e)
                    out.append(w)
    return out


def w_invariance_check(module: TensorModule, i: int, j: int,
                       max_total_degree: int = 6, window: int = 3) -> WInvarianceReport:
    """Exact invariance of the witness subspace under a generator window.

    Generator images of degree-bounded basis vectors are tested for
    membership in the witness space spanned up to the bumped degree, so
    the check is exact with no truncation loss.
    """
    bump = 1 + max((len(f.g) for f in module.factors), default=1)
    extended = SpanBasis()
    for w in w_witness_basis(module, i, j, max_total_degree + bump):
        extended.add(w.terms)
    report = WInvarianceReport(pair=(i, j), basis_size=0, images_checked=0)
    for w in w_witness_basis(module, i, j, max_total_degree):
        report.basis_size += 1
        for fam in FAMILIES:
            for n in range(-window, window + 1):
                image = module.act(gen(fam, n), w)
                report.images_checked += 1
                if not extended.contains(image.terms):
                    report.escapes.append(f"{fam}[{n}] on {w}")
    return report


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
    invariance: WInvarianceReport | None = None
    note: str = ""


def simplicity_decision(module: TensorModule, seed: int = 0,
                        samples: int = 5, max_degree: int = 2) -> SimplicityResult:
    """Certificate-based simplicity evidence, or an exact invariant subspace.

    With pairwise distinct lambdas the decision is backed by replayable
    reduction and generation certificates from sampled vectors (desk-scale
    evidence for the universal statement, not an exhaustive proof); with a
    repeated lambda the witness subspace is verified invariant exactly.
    """
    from .axioms import random_vector

    if module.distinct_lambdas():
        rng = random.Random(seed)
        evidence = []
        for _ in range(samples):
            v = random_vector(module.ring, rng, max_total_degree=max_degree, terms=3)
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
        note=f"witness subspace C[t{i},t{j}](s{i}+s{j})^p (x) rest is invariant",
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
