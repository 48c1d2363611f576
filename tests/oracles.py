"""Agreement oracles: earlier or naive versions of engines that ``src`` runs another way.

``FractionSpanBasis`` is the sparse eliminator with every row held as
Fractions with pivot coefficient 1, and ``fraction_closure`` is the truncated
closure that acts through ``module.act`` on ``SparsePoly`` vectors and
truncates each image as a polynomial; ``span_vectors`` reads the rows of a
``linalg.SpanBasis`` in the first one's form.  The tests check that ``linalg``
and ``oracle`` give the same answers.  ``free_word_oracle`` straightens a word by
naive single-inversion rewriting, a cross-check for ``lie.pbw_normalize``.
``ab_table`` and ``abgg_table`` are the generator tables of the two maps of
``homomorphisms`` written out as literal dicts, the reference for the tables
that the maps build as data (``ab_terms``, ``abgg_terms``, read by ``evaluate``).
"""

from __future__ import annotations

from fractions import Fraction

from wittdiamond.exceptions import InvalidGenerator, NotApplicable
from wittdiamond.lie import Generator, UEnvElement, bracket, generators_in_window
from wittdiamond.oracle import ClosureReport
from wittdiamond.poly import SparsePoly, monomials_within
from wittdiamond.scalars import ONE, ZERO, add_scaled, scalar


class FractionSpanBasis:
    """Incremental exact span over Fractions, rows fully reduced with pivot (largest key) 1."""

    def __init__(self):
        self.rows: dict = {}

    @property
    def dim(self) -> int:
        return len(self.rows)

    def reduce(self, vec) -> dict:
        v = {k: scalar(c) for k, c in vec.items() if c}
        for pk in [k for k in v if k in self.rows]:
            c = v.get(pk)
            if c:
                add_scaled(v, self.rows[pk], -c)
        return v

    def contains(self, vec) -> bool:
        return not self.reduce(vec)

    def add(self, vec) -> bool:
        v = self.reduce(vec)
        if not v:
            return False
        pk = max(v)
        pc = v[pk]
        row = {k: c / pc for k, c in v.items()}
        for orow in self.rows.values():
            c = orow.get(pk)
            if c:
                add_scaled(orow, row, -c)
        self.rows[pk] = row
        return True

    def vectors(self) -> list[dict]:
        return [dict(row) for _, row in sorted(self.rows.items())]


def span_vectors(basis) -> list[dict]:
    """The rows of a ``linalg.SpanBasis`` as Fractions, pivot coefficient 1, by pivot: the
    same list as ``FractionSpanBasis.vectors`` for the same span."""
    return [{k: Fraction(c, row[pk]) for k, c in row.items()}
            for pk, row in sorted(basis._rows.items())]


def _coordinate_rows(vectors, target) -> dict:
    """Reduced rows of [v_0 .. v_{n-1} | target], column j keyed -j and the target -n."""
    n = len(vectors)
    rows: dict = {}
    for j, v in enumerate(vectors):
        for k, c in v.items():
            rows.setdefault(k, {})[-j] = c
    for k, c in target.items():
        rows.setdefault(k, {})[-n] = c
    basis = FractionSpanBasis()
    for row in rows.values():
        basis.add(row)
    return basis.rows


def fraction_combination(vectors, target) -> list[Fraction] | None:
    n = len(vectors)
    reduced = _coordinate_rows(vectors, target)
    if -n in reduced:
        return None
    x = [ZERO] * n
    for pivot, row in reduced.items():
        x[-pivot] = row.get(-n, ZERO)
    return x


def fraction_nullspace(vectors) -> list[list[Fraction]]:
    n = len(vectors)
    reduced = _coordinate_rows(vectors, {})
    basis = []
    for free in range(n):
        if -free in reduced:
            continue
        x = [ZERO] * n
        x[free] = ONE
        for pivot, row in reduced.items():
            c = row.get(-free)
            if c:
                x[-pivot] = -c
        basis.append(x)
    return basis


def _truncate(p: SparsePoly, max_degree: int) -> tuple[SparsePoly, bool]:
    inside = {}
    spilled = False
    for exps, c in p.terms.items():
        if sum(abs(e) for e in exps) <= max_degree:
            inside[exps] = c
        else:
            spilled = True
    return SparsePoly(p.ring, inside), spilled


def fraction_closure(module, start: SparsePoly, policy) -> ClosureReport:
    """``oracle.truncated_closure`` through ``module.act`` and a ``FractionSpanBasis``."""
    if start.is_zero:
        raise NotApplicable("closure of the zero vector")
    if any(sum(abs(e) for e in exps) > policy.max_total_degree for exps in start.terms):
        raise ValueError("start vector lies outside the truncation")
    ambient = sum(1 for _ in monomials_within(module.ring, policy.max_total_degree))
    ops = generators_in_window(policy.generator_window)
    basis = FractionSpanBasis()
    basis.add(start.terms)
    frontier = [start]
    overflow = 0
    rounds = 0
    while frontier and rounds < policy.max_steps and basis.dim < ambient:
        rounds += 1
        new = []
        for vec in frontier:
            for g in ops:
                inside, spilled = _truncate(module.act(g, vec), policy.max_total_degree)
                if spilled:
                    overflow += 1
                if inside.terms and basis.dim < ambient and basis.add(inside.terms):
                    new.append(inside)
        frontier = new
    if basis.dim >= ambient:
        verdict = ClosureReport.FILLS
    elif not frontier:
        verdict = ClosureReport.PROPER
    else:
        verdict = ClosureReport.INCONCLUSIVE
    return ClosureReport(
        start=str(start),
        reached_dim=basis.dim,
        ambient_dim=ambient,
        verdict=verdict,
        overflow_count=overflow,
        rounds=rounds,
        exact_invariant=(verdict == ClosureReport.PROPER and overflow == 0),
    )


def free_word_oracle(word) -> UEnvElement:
    """Naive straightening by repeated single-inversion rewriting.

    Independent of the production straightener: scans the whole term dict
    each round and rewrites one inversion at a time.
    """
    terms: dict[tuple[Generator, ...], Fraction] = {tuple(word): ONE}
    while True:
        found = None
        for w in sorted(terms, key=lambda w: (-len(w), [g.sort_key() for g in w])):
            for i in range(len(w) - 1):
                if w[i].sort_key() > w[i + 1].sort_key():
                    found = (w, i)
                    break
            if found:
                break
        if not found:
            return UEnvElement(terms)
        w, i = found
        c = terms.pop(w)
        swapped = w[:i] + (w[i + 1], w[i]) + w[i + 2 :]
        nv = terms.get(swapped, ZERO) + c
        if nv:
            terms[swapped] = nv
        else:
            terms.pop(swapped, None)
        for g2, bc in bracket(w[i], w[i + 1]).terms.items():
            short = w[:i] + (g2,) + w[i + 2 :]
            nv = terms.get(short, ZERO) + c * bc
            if nv:
                terms[short] = nv
            else:
                terms.pop(short, None)


def ab_table(family: str, n: int, alpha: Fraction, beta: Fraction) -> dict:
    """family[n]'s image under ``PhiAB(alpha, beta)`` as {key: coefficient}, zeros kept.

    Keys are ((x0, x1 exponents), (dx0, dx1 exponents)) (x) (h, e exponents).
    """
    one, h, e, no_d = (0, 0), (1, 0), (0, 1), (0, 0)
    if family == "L":
        return {
            (((n + 1, 0), (1, 0)), one): ONE,
            (((n, 0), no_d), one): n * alpha,
            (((n, 0), no_d), h): Fraction(n),
        }
    if family == "d":
        return {(((n, 1), (0, 1)), one): ONE, (((n, 0), no_d), e): Fraction(n)}
    if family == "a":
        return {
            (((n, 2), (0, 1)), one): beta,
            (((n, 1), no_d), h): -beta,
            (((n, 1), no_d), e): beta * n,
        }
    if family == "b":
        return {(((n, -1), no_d), one): ONE}
    if family == "c":
        return {(((n, 0), no_d), one): -beta}
    raise InvalidGenerator(f"unknown generator family {family!r}")


def abgg_table(family: str, n: int, alpha: Fraction, beta: Fraction, gamma: Fraction,
               g: tuple[Fraction, ...]) -> dict:
    """family[n]'s image under ``PhiABGG(alpha, beta, gamma, g)`` as {key: coefficient}, zeros kept.

    Keys are (x0 exponent, dx0 exponent) (x) (t exponent, dt exponent), each a one-tuple.
    """
    x0n, one = ((n,), (0,)), ((0,), (0,))
    if family == "L":
        return {(((n + 1,), (1,)), one): ONE, (x0n, one): n * alpha}
    if family == "d":
        terms = {(x0n, ((k + 1,), (0,))): c / beta for k, c in enumerate(g)}
        terms[x0n, one] = gamma / beta
        terms[x0n, ((1,), (1,))] = ONE
        return terms
    if family == "a":
        return {(x0n, ((1,), (0,))): ONE}
    if family == "b":
        terms = {(x0n, ((k,), (0,))): c for k, c in enumerate(g)}
        terms[x0n, ((0,), (1,))] = beta
        return terms
    if family == "c":
        return {(x0n, one): -beta}
    raise InvalidGenerator(f"unknown generator family {family!r}")
