"""Representation-property checking shared by every concrete module.

A module object only needs a ``ring`` attribute and an ``act(gen, vec)``
method; the check verifies x(y v) - y(x v) = [x, y] v exactly for every
generator pair in an index window, on a supplied list of sample vectors.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

from .lie import FAMILIES, Generator, UEnvElement, bracket, gen
from .poly import PolyRing, SparsePoly, monomials_within
from .scalars import ONE, add_scaled, scalar


def apply_uenv(module, u: UEnvElement, v: SparsePoly) -> SparsePoly:
    """Act with an enveloping-algebra element, rightmost letter first."""
    out = module.ring.zero()
    for word, c in u.terms.items():
        w = v
        for g in reversed(word):
            w = module.act(g, w)
        out = out + w * c
    return out


@dataclass
class AxiomReport:
    window: int
    vectors: int
    pairs_checked: int = 0
    violations: list[tuple[str, str, int]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def memoized_action(module):
    """``act(g, v)`` computed as sum_e v[e] * image(g, e), linearly.

    Each monomial image comes from ``module.act`` once and is kept in a dict
    local to the returned function; nothing is stored on the module, so the
    memo is freed with the function.
    """
    ring = module.ring
    images: dict[tuple[Generator, tuple[int, ...]], dict] = {}

    def act(g: Generator, v: SparsePoly) -> SparsePoly:
        out: dict[tuple[int, ...], Fraction] = {}
        for e, c in v.terms.items():
            image = images.get((g, e))
            if image is None:
                image = images[(g, e)] = module.act(g, SparsePoly(ring, {e: ONE})).terms
            add_scaled(out, image, c)
        return v._like(out)

    return act


def module_axiom_check(module, window: int, vectors) -> AxiomReport:
    """x(y v) - y(x v) = [x, y] v for all generator pairs in the window.

    The check runs on a per-call memoized action.  So that a memo cannot make
    a non-linear ``act`` pass, the memoized x v is first compared with
    ``module.act(x, v)`` for every window generator x and sample vector v; a
    mismatch is reported as the violation ``(x, "linearity", index of v)``.
    """
    if window < 1:
        raise ValueError("window must be at least 1")
    if not vectors:
        raise ValueError("at least one sample vector is required")
    gens = [gen(f, n) for f in FAMILIES for n in range(-window, window + 1)]
    report = AxiomReport(window=window, vectors=len(vectors))
    act = memoized_action(module)
    first = {}
    for x in gens:
        for idx, v in enumerate(vectors):
            first[x, idx] = act(x, v)
            if first[x, idx] != module.act(x, v):
                report.violations.append((str(x), "linearity", idx))
    for i, x in enumerate(gens):
        for y in gens[i:]:
            br = bracket(x, y)
            for idx, v in enumerate(vectors):
                report.pairs_checked += 1
                lhs = act(x, first[y, idx]) - act(y, first[x, idx])
                rhs = module.ring.zero()
                for g2, c in br.terms.items():
                    rhs = rhs + act(g2, v) * c
                if lhs != rhs:
                    report.violations.append((str(x), str(y), idx))
    return report


def random_vector(
    ring: PolyRing,
    rng: random.Random,
    max_total_degree: int = 3,
    terms: int = 3,
) -> SparsePoly:
    """Random nonzero vector with small rational coefficients."""
    pool = list(monomials_within(ring, max_total_degree))
    chosen = rng.sample(pool, min(terms, len(pool)))
    out = {}
    for exps in chosen:
        num = rng.choice([-3, -2, -1, 1, 2, 3])
        den = rng.choice([1, 1, 2, 3])
        out[exps] = scalar(num) / den
    return SparsePoly(ring, out)


def sample_vectors(ring: PolyRing, rng: random.Random, count: int = 4,
                   max_total_degree: int = 3) -> list[SparsePoly]:
    """A spread of test vectors: the unit, a few monomials, random mixes."""
    vecs = [ring.one()]
    pool = [e for e in monomials_within(ring, max_total_degree) if any(e)]
    for exps in rng.sample(pool, min(2, len(pool))):
        vecs.append(SparsePoly(ring, {exps: ONE}))
    while len(vecs) < count + 1:
        vecs.append(random_vector(ring, rng, max_total_degree))
    return vecs
