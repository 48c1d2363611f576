"""Representation-property checking shared by every concrete module.

A module object only needs a ``ring`` attribute and an ``act(gen, vec)``
method; the check verifies x(y v) - y(x v) = [x, y] v exactly for every
generator pair in an index window, on a supplied list of sample vectors.
It runs fraction-free: each monomial image is memoized once per call as
integer numerators over one denominator, and for each pair the difference
x(y v) - y(x v) - [x, y] v is one integer combination tested for zero.  A
linearity cross-check against the direct ``module.act`` keeps the memo
honest.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .lie import Generator, UEnvElement, bracket, generators_in_window
from .poly import PolyRing, SparsePoly, monomials_within
from .scalars import ONE, Record, clear_denominators, integer_combination, scalar


def apply_uenv(module, u: UEnvElement, v: SparsePoly) -> SparsePoly:
    """Act with an enveloping-algebra element, rightmost letter first."""
    out = module.ring.zero()
    for word, c in u.terms.items():
        w = v
        for g in reversed(word):
            w = module.act(g, w)
        out = out + w * c
    return out


class AxiomReport(Record):
    _fields = ("window", "vectors", "pairs_checked", "violations")

    def __init__(self, window: int, vectors: int, pairs_checked: int = 0,
                 violations: list[tuple[str, str, int]] | None = None):
        self.window = window
        self.vectors = vectors
        self.pairs_checked = pairs_checked
        self.violations = [] if violations is None else violations

    @property
    def ok(self) -> bool:
        return not self.violations


def _integer_action(module):
    """``act(g, (nums, den))``: the linear extension of the monomial images, in ints.

    A vector is its integer numerators over one positive denominator, as
    ``scalars.clear_denominators`` gives it.  Each monomial image comes from
    ``module.act`` once and is kept, cleared the same way, in a dict local to
    the returned function; nothing is stored on the module, so the memo is
    freed with the function.  The sum of ``v[e] * image(g, e)`` is formed over
    a common denominator by ``scalars.integer_combination``.
    """
    ring = module.ring
    images: dict[tuple[Generator, tuple[int, ...]], tuple[dict, int]] = {}

    def act(g: Generator, v: tuple[dict, int]) -> tuple[dict, int]:
        nums, den = v
        parts = []
        for e, n in nums.items():
            image = images.get((g, e))
            if image is None:
                image = images[(g, e)] = clear_denominators(
                    module.act(g, SparsePoly(ring, {e: ONE})).terms)
            parts.append((n, den * image[1], image[0]))
        return integer_combination(parts)

    return act


def _fractions(v: tuple[dict, int]) -> dict:
    nums, den = v
    return {k: Fraction(n, den) for k, n in nums.items()}


def module_axiom_check(module, window: int, vectors) -> AxiomReport:
    """x(y v) - y(x v) = [x, y] v for all generator pairs in the window.

    The check runs on a per-call memoized action over integer numerators
    (see ``_integer_action``): each sample vector is cleared to integers
    once, and for each pair ``x(y v) - y(x v) - sum_g c_g g v`` is formed as
    one integer combination over a common denominator, with the numerator
    and denominator of every bracket coefficient c_g folded in, and tested
    for zero.  So that a memo cannot make a non-linear ``act`` pass, the
    memoized x v is first converted back to rationals and compared with
    ``module.act(x, v)`` for every window generator x and sample vector v; a
    mismatch is reported as the violation ``(x, "linearity", index of v)``.
    """
    if window < 1:
        raise ValueError("window must be at least 1")
    if not vectors:
        raise ValueError("at least one sample vector is required")
    gens = generators_in_window(window)
    report = AxiomReport(window=window, vectors=len(vectors))
    act = _integer_action(module)
    cleared = [clear_denominators(v.terms) for v in vectors]
    first = {}
    for x in gens:
        for idx, v in enumerate(vectors):
            first[x, idx] = act(x, cleared[idx])
            if v._like(_fractions(first[x, idx])) != module.act(x, v):
                report.violations.append((str(x), "linearity", idx))
    for i, x in enumerate(gens):
        for y in gens[i:]:
            br = bracket(x, y)
            for idx in range(len(vectors)):
                report.pairs_checked += 1
                xy, xy_den = act(x, first[y, idx])
                yx, yx_den = act(y, first[x, idx])
                parts = [(1, xy_den, xy), (-1, yx_den, yx)]
                for g2, c in br.terms.items():
                    gv = first.get((g2, idx))
                    if gv is None:
                        gv = first[g2, idx] = act(g2, cleared[idx])
                    parts.append((-c.numerator, c.denominator * gv[1], gv[0]))
                if integer_combination(parts)[0]:
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


def simplicity_samples(ring: PolyRing, max_total_degree: int) -> list[SparsePoly]:
    """The five vectors behind sampled simplicity evidence, drawn from ``random.Random(0)``.

    The seed and the count are fixed, so every report built on them reproduces.
    """
    rng = random.Random(0)
    return [random_vector(ring, rng, max_total_degree) for _ in range(5)]

