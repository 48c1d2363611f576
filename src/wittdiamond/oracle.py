"""Independent brute-force oracles.

These deliberately re-derive results through naive routes: truncated
submodule closure (a desk-scale stand-in for simplicity statements, on
integer numerator vectors, exact as no answer depends on a vector's scale),
and cofactor determinants (cross-check for elimination).  Constructive
results are only trusted once an oracle here agrees.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .exceptions import NotApplicable
from .lie import generators_in_window
from .linalg import SpanBasis
from .poly import SparsePoly, act_numerators, monomials_within
from .scalars import ONE, Frozen, Record, clear_denominators


class TruncationPolicy(Frozen):
    _fields = ("max_total_degree", "generator_window", "max_steps")

    def __init__(self, max_total_degree: int = 4, generator_window: int = 2, max_steps: int = 64):
        if max_total_degree < 1 or generator_window < 1 or max_steps < 1:
            raise ValueError("policy fields must be positive")
        self._set(max_total_degree=max_total_degree, generator_window=generator_window,
                  max_steps=max_steps)


class ClosureReport(Record):
    _fields = ("start", "reached_dim", "ambient_dim", "verdict", "overflow_count", "rounds",
               "exact_invariant")

    FILLS = "fills-truncation"
    PROPER = "proper-at-truncation"
    INCONCLUSIVE = "inconclusive"

    def __init__(self, start: str, reached_dim: int, ambient_dim: int, verdict: str,
                 overflow_count: int, rounds: int, exact_invariant: bool):
        self.start = start
        self.reached_dim = reached_dim
        self.ambient_dim = ambient_dim
        self.verdict = verdict
        self.overflow_count = overflow_count
        self.rounds = rounds
        self.exact_invariant = exact_invariant


def truncated_closure(module, start: SparsePoly, policy: TruncationPolicy) -> ClosureReport:
    """Exact span closure of the truncated generator action.

    Generators are applied to each new span vector, degrees beyond the
    policy bound are projected away (counted as overflow), and the span
    is grown exactly until a fixpoint.  A fixpoint below the ambient
    truncated dimension is a proper invariant subspace of the truncated
    action; it is an exact submodule of the full action only when the
    overflow count is zero, which the report exposes separately.

    Vectors are int numerator dicts acted on by ``poly.act_numerators`` with
    ``module.rules(g)``, and no denominator is applied: a vector's scale
    changes neither its span, nor which images spill, nor whether the basis
    grows.  A kept vector is divided by its gcd, so numerators stay bounded.
    """
    if start.is_zero:
        raise NotApplicable("closure of the zero vector")
    top = policy.max_total_degree
    if any(sum(map(abs, exps)) > top for exps in start.terms):
        raise ValueError("start vector lies outside the truncation")
    ambient = sum(1 for _ in monomials_within(module.ring, top))
    rules = [module.rules(g)[0] for g in generators_in_window(policy.generator_window)]
    basis = SpanBasis()
    frontier = [clear_denominators(start.terms)[0]]
    basis.add(frontier[0])
    overflow = 0
    rounds = 0
    while frontier and rounds < policy.max_steps and basis.dim < ambient:
        rounds += 1
        new = []
        for vec in frontier:
            for rule in rules:
                inside = {}
                spilled = False
                for exps, c in act_numerators(vec, rule).items():
                    if not c:
                        continue
                    if sum(map(abs, exps)) <= top:
                        inside[exps] = c
                    else:
                        spilled = True
                if spilled:
                    overflow += 1
                # A full basis cannot grow, but overflow still counts every pair.
                if inside and basis.dim < ambient and basis.add(inside):
                    common = gcd(*inside.values())
                    new.append({exps: c // common for exps, c in inside.items()})
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


def naive_det(matrix) -> Fraction:
    """Cofactor expansion with minor memoization; oracle for small sizes.

    Entries are ints or Fractions (any other type raises ``TypeError``); the
    input is not modified.  Each row is multiplied by the lcm of its entries'
    denominators, so the expansion runs over Python ints with an integer sign;
    the result is divided by the product of those row scales once, at the end.
    The expansion runs along the first remaining row, over that row's nonzero
    entries only; the minor of the rows below is memoized on the bitmask of
    its columns, which also fixes its first row.
    """
    n = len(matrix)
    if n == 0:
        return ONE
    if any(len(row) != n for row in matrix):
        raise ValueError("determinant requires a square matrix")
    rows: list[list[tuple[int, int]]] = []  # (column bit, entry) of each nonzero entry
    scale = 1
    for row in matrix:
        try:
            row_scale = lcm(*(x.denominator for x in row))
            row = [x.numerator * row_scale // x.denominator for x in row]
        except AttributeError:
            raise TypeError("determinant entries must be ints or Fractions") from None
        scale *= row_scale
        rows.append([(1 << col, x) for col, x in enumerate(row) if x])
    cache = {0: 1}  # column bitmask -> minor; the minor on no columns is 1

    def minor(row: int, cols: int) -> int:
        total = 0
        for bit, entry in rows[row]:
            if cols & bit:
                rest = cols ^ bit
                sub = cache.get(rest)
                if sub is None:
                    sub = minor(row + 1, rest)
                # The sign is that of the column's place among the remaining ones.
                total += -entry * sub if (cols & (bit - 1)).bit_count() & 1 else entry * sub
        cache[cols] = total
        return total

    return Fraction(minor(0, (1 << n) - 1), scale)
