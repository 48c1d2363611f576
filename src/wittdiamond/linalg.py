"""Exact linear algebra over the rationals, computed in Python ints.

One sparse eliminator, :class:`SpanBasis`, answers every span question:
membership, dimension, solutions (``combination``) and relations
(``exact_nullspace``).  Its rows are integer numerators over a positive
denominator; a Fraction is built only for a value returned.  The two queries
insert the coordinate rows of the matrix whose columns are the input vectors,
so the reduced rows are its reduced row echelon form.  Determinants are a
separate, dense operation, ``exact_det``: the adjacent-row elimination of the
generalized Vandermonde lemma's proof, over Python ints, which reads a row of
ints as it is.  Only ``tensor.det_r`` calls it, on rows where every step's
multiplier is 1.  Inputs may be ints or Fractions; any other row is read
through its entries' numerators and denominators, with no per-entry
coercion.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Hashable, Mapping, Sequence

from .scalars import ONE, ZERO, clear_denominators

Row = Sequence[int | Fraction]
Vector = Mapping[Hashable, int | Fraction]


def exact_det(matrix: Sequence[Row]) -> Fraction:
    """Determinant by adjacent-row elimination over Python ints.

    A row whose entries are all ``int`` is used as it is.  Any other row is
    cleared to integers: each entry is read through its ``numerator`` and
    ``denominator``, with no per-entry coercion, and the row is multiplied by
    the lcm of its denominators, which divides the result once at the end.
    So a ``bool`` or ``Fraction`` entry is eliminated as its integer value,
    and an entry of any other type raises ``TypeError``.

    Each column is cleared bottom-up, row i with row i - 1 above it, as in
    the proof of the generalized Vandermonde lemma:
    ``R_i <- a R_i - b R_{i-1}`` with ``g = gcd(x, y)``, ``a = y / g`` and
    ``b = x / g`` for the lower entry x and the upper entry y.  That step
    multiplies the determinant by a, which the denominator collects.  When
    the upper entry divides the lower one, as on every column of
    ``tensor.det_rows`` (each column below the pivot is geometric with an
    integer ratio), a is 1 and the step is one big-by-small multiply and one
    subtraction per entry, with no division.  A row built with a != 1 is
    divided by the gcd of its entries, which the numerator collects; there is
    no exact division, so unstructured dense input still grows faster than
    under an elimination that has one.  An upper entry 0 swaps the two rows
    and negates the sign.  The cleared column is dropped as the rows are
    rebuilt, so the pivots (the top entries) and the last 2 x 2 block give
    the determinant.  New rows are built each step; the input rows are not
    modified.
    """
    n = len(matrix)
    if n == 0:
        return ONE
    if any(len(row) != n for row in matrix):
        raise ValueError("determinant requires a square matrix")
    rows: list[Row] = []  # bottom row first
    scale = 1
    for row in reversed(matrix):
        if all(type(x) is int for x in row):
            rows.append(row)
            continue
        try:
            mult = lcm(*[x.denominator for x in row])
            rows.append([x.numerator * (mult // x.denominator) for x in row])
        except AttributeError as exc:
            raise TypeError(f"determinant entries must be ints or Fractions: {exc}") from None
        scale *= mult
    if n == 1:
        return Fraction(rows[0][0], scale)
    det = 1
    for _ in range(n - 2):
        lower = rows[0]
        cleared = []
        for upper in rows[1:]:
            x = lower[0]
            if not x:
                cleared.append(lower[1:])
                lower = upper
                continue
            y = upper[0]
            if not y:
                cleared.append(upper[1:])
                det = -det
                continue
            pairs = zip(lower, upper)
            next(pairs)
            b = x // y
            if b * y == x:
                # A loop, not a comprehension: before Python 3.12 a comprehension
                # builds a function per row, a tenth of a small block's time.
                row = []
                for u, v in pairs:
                    row.append(u - b * v)
            else:
                g = gcd(x, y)
                a, b = y // g, x // g
                scale *= a
                row = [a * u - b * v for u, v in pairs]
                content = gcd(*row)
                if content > 1:
                    row = [u // content for u in row]
                    det *= content
            cleared.append(row)
            lower = upper
        det *= lower[0]
        rows = cleared
    (a, b), (c, d) = rows[1], rows[0]
    return Fraction(det * (a * d - b * c), scale)


class SpanBasis:
    """Incremental exact span of sparse vectors keyed by sortable coordinates.

    Each row is integer numerators over one positive denominator, with no
    common factor: the pivot (largest key) has numerator equal to the
    denominator, so the row read as Fractions has pivot coefficient 1.  Rows
    are fully reduced (no row holds another's pivot), so membership is a
    single elimination pass, and all of it runs in Python ints.
    """

    def __init__(self):
        self._rows: dict[Hashable, dict[Hashable, int]] = {}  # pivot -> numerators

    @property
    def dim(self) -> int:
        return len(self._rows)

    def _reduce(self, vec: Vector) -> dict[Hashable, int]:
        """Numerators of a nonzero multiple of vec minus its part in the span."""
        v, _ = clear_denominators({k: c for k, c in vec.items() if c})
        rows = self._rows
        for pk in [k for k in v if k in rows]:
            c = v.get(pk)
            if c:
                _eliminate(v, rows[pk], pk, c)
        return v

    def contains(self, vec: Vector) -> bool:
        return not self._reduce(vec)

    def add(self, vec: Vector) -> bool:
        """Insert the vector; True if the dimension grew."""
        v = self._reduce(vec)
        if not v:
            return False
        pk = max(v)
        row = _primitive(v, pk)
        rows = self._rows
        for ok, orow in rows.items():
            c = orow.get(pk)
            if c:
                _eliminate(orow, row, pk, c)
                rows[ok] = _primitive(orow, ok)
        rows[pk] = row
        return True


def _eliminate(v: dict, row: dict, pk: Hashable, c: int) -> None:
    """v <- (d/g) v - (c/g) row in place, with d = row[pk] and g = gcd(c, d): v[pk] becomes 0."""
    d = row[pk]
    g = gcd(c, d)
    a, b = d // g, c // g
    if a != 1:
        for k in v:
            v[k] *= a
    get = v.get
    for k, x in row.items():
        y = get(k, 0) - b * x
        if y:
            v[k] = y
        else:
            del v[k]


def _primitive(v: dict, pk: Hashable) -> dict:
    """v over the gcd of its values, signed so that v[pk] > 0."""
    g = gcd(*v.values())
    if v[pk] < 0:
        g = -g
    return v if g == 1 else {k: c // g for k, c in v.items()}


def _coordinate_span(vectors: Sequence[Vector], target: Vector) -> dict[int, dict[int, int]]:
    """Reduced rows of the matrix [v_0 .. v_{n-1} | target], keyed by pivot.

    Each coordinate k gives the row {-j: v_j[k]} plus {-n: target[k]}.
    SpanBasis pivots on the largest key, so columns are taken in index order
    and the result is the reduced row echelon form of the augmented matrix,
    as numerators over each row's row[pivot].
    """
    n = len(vectors)
    rows: dict[Hashable, dict[int, int | Fraction]] = {}
    for j, v in enumerate(vectors):
        for k, c in v.items():
            rows.setdefault(k, {})[-j] = c
    for k, c in target.items():
        rows.setdefault(k, {})[-n] = c
    basis = SpanBasis()
    for row in rows.values():
        basis.add(row)
    return basis._rows


def combination(vectors: Sequence[Vector], target: Vector) -> list[Fraction] | None:
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
        x[-pivot] = Fraction(row.get(-n, 0), row[pivot])
    return x


def exact_nullspace(vectors: Sequence[Vector]) -> list[list[Fraction]]:
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
                x[-pivot] = Fraction(-c, row[pivot])
        basis.append(x)
    return basis
