"""Exact rational scalars and small combinatorial helpers.

Everything in this package computes over arbitrary-precision rationals;
no floating point appears anywhere in the core.  Rationals serialize as
"p/q" (or "p" when the denominator is 1), which is exactly what
``fractions.Fraction`` parses and prints.
"""

from __future__ import annotations

import math
from fractions import Fraction

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
