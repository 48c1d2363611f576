"""Exact linear algebra over the rationals.

Everything here is deterministic and exact: Gaussian elimination over
Fraction entries for rank / kernel / solving, and a fraction-free
Bareiss elimination (after clearing row denominators) for determinants.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Hashable, Mapping, Sequence

from .scalars import ONE, ZERO, add_scaled, scalar

Row = Sequence[Fraction]


def _rref(rows: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """In-place reduced row echelon form; returns (rows, pivot columns)."""
    if not rows:
        return rows, []
    ncols = len(rows[0])
    pivots: list[int] = []
    r = 0
    for col in range(ncols):
        pivot_row = next((i for i in range(r, len(rows)) if rows[i][col] != 0), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        pv = rows[r][col]
        rows[r] = [x / pv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def _copy(rows: Sequence[Row]) -> list[list[Fraction]]:
    return [[scalar(x) for x in row] for row in rows]


def exact_rank(rows: Sequence[Row]) -> int:
    if not rows:
        return 0
    _, pivots = _rref(_copy(rows))
    return len(pivots)


def exact_nullspace(rows: Sequence[Row]) -> list[list[Fraction]]:
    """Basis of the right kernel; empty input has empty kernel basis."""
    if not rows:
        return []
    ncols = len(rows[0])
    red, pivots = _rref(_copy(rows))
    pivot_set = set(pivots)
    free_cols = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for fc in free_cols:
        vec = [ZERO] * ncols
        vec[fc] = ONE
        for r, pc in enumerate(pivots):
            vec[pc] = -red[r][fc]
        basis.append(vec)
    return basis


def solve_exact(columns: Sequence[Row], target: Row) -> list[Fraction] | None:
    """One exact solution x of sum_j x_j * columns[j] = target, or None.

    Free variables are set to zero, so the answer is deterministic.
    """
    nrows = len(target)
    ncols = len(columns)
    aug = [[scalar(columns[j][i]) for j in range(ncols)] + [scalar(target[i])] for i in range(nrows)]
    red, pivots = _rref(aug)
    if ncols in pivots:
        return None
    x = [ZERO] * ncols
    for r, pc in enumerate(pivots):
        x[pc] = red[r][ncols]
    return x


def exact_det(matrix: Sequence[Row]) -> Fraction:
    """Determinant via fraction-free Bareiss after clearing denominators."""
    n = len(matrix)
    if n == 0:
        return ONE
    if any(len(row) != n for row in matrix):
        raise ValueError("determinant requires a square matrix")
    m: list[list[int]] = []
    scale = ONE
    for row in matrix:
        fr = [scalar(x) for x in row]
        mult = lcm(*(f.denominator for f in fr)) if fr else 1
        scale *= mult
        m.append([int(f * mult) for f in fr])
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if swap is None:
                return ZERO
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return Fraction(sign * m[n - 1][n - 1]) / scale


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


def combination(
    vectors: Sequence[Mapping[Hashable, Fraction]],
    target: Mapping[Hashable, Fraction],
) -> list[Fraction] | None:
    """Coefficients expressing target as a combination of vectors, or None."""
    keys: set[Hashable] = set(target)
    for v in vectors:
        keys.update(v)
    order = sorted(keys)
    columns = [[v.get(k, ZERO) for k in order] for v in vectors]
    goal = [target.get(k, ZERO) for k in order]
    return solve_exact(columns, goal)
