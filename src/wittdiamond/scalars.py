"""Exact rational scalars, finite linear combinations, combinatorial helpers.

Everything in this package computes over arbitrary-precision rationals;
no floating point appears anywhere in the core.  Rationals serialize as
"p/q" (or "p" when the denominator is 1), which is exactly what
``fractions.Fraction`` parses and prints.

Every element class of the package is a finite linear combination of
basis keys, and :class:`LinComb` holds their shared linear structure.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Mapping

from .exceptions import AlgebraMismatch

Scalar = Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


def scalar(value: int | str | Fraction) -> Fraction:
    """Coerce an int, Fraction or "p/q" string to an exact rational."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"not a rational: {value!r}") from exc
    raise TypeError(f"cannot interpret {type(value).__name__} as a rational")


def add_scaled(out: dict, terms: Mapping, c=None) -> dict:
    """Add ``c * terms`` into ``out`` in place, dropping zero sums; return ``out``.

    ``c`` None adds the terms as they are, with no multiplication; ``c`` zero
    adds nothing.  The values of ``terms`` must be nonzero.
    """
    if c is not None and not c:
        return out
    get = out.get
    for k, v in terms.items():
        if c is not None:
            v = v * c
        prev = get(k)
        if prev is None:
            out[k] = v
        else:
            v = prev + v
            if v:
                out[k] = v
            else:
                del out[k]
    return out


class LinComb:
    """A finite linear combination: ``terms`` maps basis keys to nonzero coefficients.

    Sum, difference, negation, scaling, equality and printing live here once.
    A subclass supplies ``_like(terms)``, which wraps terms already free of
    zeros as an element of its own space, and where it needs them
    ``_space()`` (what two operands must share, checked by ``_check``),
    ``_coerce`` (bare scalars as elements), ``_format_key`` and
    ``_sort_key`` (printing).  Combinations of another class or another space
    are rejected: the first gives NotImplemented, the second ``_mismatch``.
    """

    __slots__ = ("terms",)
    _mismatch = AlgebraMismatch

    def _like(self, terms: dict) -> "LinComb":
        new = object.__new__(type(self))
        new.terms = terms
        return new

    def _space(self):
        return None

    def _coerce(self, other):
        return other

    def _check(self, other) -> None:
        a, b = self._space(), other._space()
        if a is not b and a != b:
            raise self._mismatch(f"cannot combine elements of {a} and {b}")

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __add__(self, other):
        if type(other) is not type(self) and type(other := self._coerce(other)) is not type(self):
            return NotImplemented
        self._check(other)
        return self._like(add_scaled(dict(self.terms), other.terms))

    def __sub__(self, other):
        if type(other) is not type(self) and type(other := self._coerce(other)) is not type(self):
            return NotImplemented
        self._check(other)
        return self._like(add_scaled(dict(self.terms), other.terms, -1))

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __neg__(self):
        return self._like({k: -c for k, c in self.terms.items()})

    def scaled(self, c):
        c = scalar(c)
        return self._like({k: v * c for k, v in self.terms.items()} if c else {})

    def __rmul__(self, c):
        return self.scaled(c) if isinstance(c, (int, Fraction)) else NotImplemented

    def __eq__(self, other):
        if type(other) is not type(self) and type(other := self._coerce(other)) is not type(self):
            return NotImplemented
        return self.terms == other.terms and self._space() == other._space()

    def _sort_key(self, key):
        return key

    def _format_key(self, key) -> str:
        """Text of a basis key; the empty string stands for the unit."""
        return str(key)

    def __str__(self):
        if not self.terms:
            return "0"
        pieces = []
        for k in sorted(self.terms, key=self._sort_key):
            c = self.terms[k]
            body, mag = self._format_key(k), abs(c)
            piece = str(mag) if not body else body if mag == 1 else f"{mag} {body}"
            pieces.append(("- " if c < 0 else "+ ") + piece)
        text = " ".join(pieces)
        return text[2:] if text[0] == "+" else "-" + text[2:]

    def __repr__(self):
        return str(self)


def binomial(n: int, k: int) -> int:
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


def superfactorial(n: int) -> int:
    """1! * 2! * ... * n!, with the empty product for n <= 0."""
    out = 1
    fact = 1
    for i in range(1, n + 1):
        fact *= i
        out *= fact
    return out
