"""Exact linear algebra over the rationals.

Everything here is deterministic and exact.  One sparse eliminator,
:class:`SpanBasis`, answers every span question: membership, dimension,
solutions (``combination``) and relations (``exact_nullspace``).  The two
queries insert the coordinate rows of the matrix whose columns are the input
vectors, so the reduced rows are its reduced row echelon form.  Determinants
are a separate operation: a fraction-free Bareiss elimination over Python
ints.  Its entries may be ints or Fractions; each row is cleared to ints by
reading the entries' numerators and denominators, with no per-entry coercion.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Hashable, Mapping, Sequence

from .scalars import ONE, ZERO, add_scaled, scalar

Row = Sequence[int | Fraction]


def exact_det(matrix: Sequence[Row]) -> Fraction:
    """Determinant via fraction-free Bareiss after clearing row denominators.

    Entries may be ints or Fractions: each is read through its
    ``numerator`` and ``denominator``, with no per-entry coercion, so a
    matrix of ints is eliminated as it is.  The input rows are not modified.
    Any other entry type raises ``TypeError``.
    """
    n = len(matrix)
    if n == 0:
        return ONE
    if any(len(row) != n for row in matrix):
        raise ValueError("determinant requires a square matrix")
    m: list[list[int]] = []
    scale = 1
    for row in matrix:
        try:
            mult = lcm(*[x.denominator for x in row])
            m.append([x.numerator * (mult // x.denominator) for x in row])
        except AttributeError as exc:
            raise TypeError(f"determinant entries must be ints or Fractions: {exc}") from None
        scale *= mult
    sign = 1
    prev = 1
    for k in range(n - 1):
        pivot_row = m[k]
        if pivot_row[k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if swap is None:
                return ZERO
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
            pivot_row = m[k]
        pivot = pivot_row[k]
        for i in range(k + 1, n):
            row = m[i]
            f = row[k]
            for j in range(k + 1, n):
                row[j] = (row[j] * pivot - f * pivot_row[j]) // prev
        prev = pivot
    return Fraction(sign * m[n - 1][n - 1], scale)


class SpanBasis:
    """Incremental exact span of sparse vectors keyed by sortable coordinates.

    Rows are kept fully reduced (each stored row is the unique representative
    with its pivot coefficient 1 and no other row's pivot in its support), so
    membership tests are a single elimination pass.
    """

    def __init__(self):
        self._rows: dict[Hashable, dict[Hashable, Fraction]] = {}

    @property
    def dim(self) -> int:
        return len(self._rows)

    def reduce(self, vec: Mapping[Hashable, Fraction]) -> dict[Hashable, Fraction]:
        v = {k: c for k, c in vec.items() if c}
        for pk in [k for k in v if k in self._rows]:
            c = v.get(pk)
            if c:
                add_scaled(v, self._rows[pk], -c)
        return v

    def contains(self, vec: Mapping[Hashable, Fraction]) -> bool:
        return not self.reduce(vec)

    def add(self, vec: Mapping[Hashable, Fraction]) -> bool:
        """Insert the vector; True if the dimension grew."""
        v = self.reduce(vec)
        if not v:
            return False
        pk = max(v)
        pc = v[pk]
        row = {k: c / pc for k, c in v.items()}
        for orow in self._rows.values():
            c = orow.get(pk)
            if c:
                add_scaled(orow, row, -c)
        self._rows[pk] = row
        return True

    def vectors(self) -> list[dict[Hashable, Fraction]]:
        return [dict(row) for _, row in sorted(self._rows.items())]


def _coordinate_span(
    vectors: Sequence[Mapping[Hashable, Fraction]],
    target: Mapping[Hashable, Fraction],
) -> dict[int, dict[int, Fraction]]:
    """Reduced rows of the matrix [v_0 .. v_{n-1} | target], keyed by pivot.

    Each coordinate k gives the row {-j: v_j[k]} plus {-n: target[k]}.
    SpanBasis pivots on the largest key, so columns are taken in index order
    and the result is the reduced row echelon form of the augmented matrix.
    """
    n = len(vectors)
    rows: dict[Hashable, dict[int, Fraction]] = {}
    for j, v in enumerate(vectors):
        for k, c in v.items():
            rows.setdefault(k, {})[-j] = scalar(c)
    for k, c in target.items():
        rows.setdefault(k, {})[-n] = scalar(c)
    basis = SpanBasis()
    for row in rows.values():
        basis.add(row)
    return basis._rows


def combination(
    vectors: Sequence[Mapping[Hashable, Fraction]],
    target: Mapping[Hashable, Fraction],
) -> list[Fraction] | None:
    """Coefficients expressing target as a combination of vectors, or None.

    Only vectors independent of the earlier ones (the pivot columns) get
    nonzero coefficients, so the answer is deterministic.
    """
    n = len(vectors)
    reduced = _coordinate_span(vectors, target)
    if -n in reduced:
        return None
    x = [ZERO] * n
    for pivot, row in reduced.items():
        x[-pivot] = row.get(-n, ZERO)
    return x


def exact_nullspace(vectors: Sequence[Mapping[Hashable, Fraction]]) -> list[list[Fraction]]:
    """Basis of the relations x with sum_j x_j vectors[j] = 0, as dense lists.

    One basis vector per vector that depends on the earlier ones (a free
    column), in index order, with coefficient 1 on that vector.
    """
    n = len(vectors)
    reduced = _coordinate_span(vectors, {})
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
