"""Exact rational scalars, finite linear combinations, combinatorial helpers.

Everything in this package computes over arbitrary-precision rationals;
no floating point appears anywhere in the core.  Rationals serialize as
"p/q" (or "p" when the denominator is 1), as ``fractions.Fraction`` prints
them, and ``RATIONAL`` is the one text form every reader takes.

Every element class of the package is a finite linear combination of
basis keys, and :class:`LinComb` holds their shared linear structure.
Every value type and result record is a plain class on :class:`Frozen` or
:class:`Record`, which give it equality by class and fields (and, when
frozen, a hash and blocked assignment) without generating any code.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Mapping

from .exceptions import AlgebraMismatch

ZERO = Fraction(0)
ONE = Fraction(1)


# The one text form of a rational: "p" or "p/q", with q positive and no sign,
# space, point or exponent.  Spec fields, data fields, options and the
# coefficients of written sums all take exactly this form.
RATIONAL = re.compile(r"(-?[0-9]+)(?:/([1-9][0-9]*))?")


def scalar(value: int | str | Fraction) -> Fraction:
    """Coerce an int, Fraction or ``RATIONAL`` string to an exact rational."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        m = RATIONAL.fullmatch(value)
        if m is None:
            raise ValueError(f'{value!r} is not a rational "p" or "p/q"')
        num, den = m.groups()
        try:
            return Fraction(int(num), int(den) if den else 1)
        except ValueError:  # above Python's limit on the digits of an int string
            raise ValueError("a rational with more digits than Python converts") from None
    raise TypeError(f"cannot interpret {type(value).__name__} as a rational")


# A sign starts a term unless it follows "^" (as in x^-1) or sits inside
# brackets (as in d[-1]).
_TERM_SPLIT = re.compile(r"(?<!\^)(?=[+-](?![^\[\]]*\]))")
_SIGN_AFTER_STAR = re.compile(r"\*\s*[+-]")


def signed_terms(text: str, atom: re.Pattern) -> list[tuple[Fraction, list[re.Match]]]:
    """The terms of a written sum such as "2 x^2 y - 3/2 z + 1" as (coefficient, atoms).

    A term is split into words at spaces and "*".  A word that ``atom``
    matches in full is an atom, kept as its match, in order; every other word
    is a ``RATIONAL`` factor of the coefficient, with the term's leading
    sign.  "" and "0" have no terms; a sign followed by nothing, or by
    another sign (as in "s - -3 t"), and a sign right after "*" (as in
    "2*-3 s"), are a ValueError.
    """
    text = text.strip()
    if not text or text == "0":
        return []
    if _SIGN_AFTER_STAR.search(text):
        raise ValueError(f'a sign right after "*" in {text!r}')
    terms = []
    for raw in _TERM_SPLIT.split(text.replace("*", " ")):
        raw = raw.strip()
        if not raw:
            continue
        coef = -ONE if raw[0] == "-" else ONE
        if raw[0] in "+-":
            raw = raw[1:].lstrip()
            if not raw:
                raise ValueError(f"a sign with no term after it in {text!r}")
        atoms = []
        for word in raw.split():
            m = atom.fullmatch(word)
            if m:
                atoms.append(m)
            else:
                coef *= scalar(word)
        terms.append((coef, atoms))
    return terms


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


def clear_denominators(terms: Mapping) -> tuple[dict, int]:
    """``terms`` as integer numerators over one denominator: ``(nums, den)``.

    ``den`` is the lcm of the values' denominators (1 for no terms) and
    ``nums[k] == terms[k] * den`` for every key, so ``nums[k] / den`` gives
    back each value exactly.
    """
    den = 1
    for c in terms.values():
        den = math.lcm(den, c.denominator)
    return {k: c.numerator * (den // c.denominator) for k, c in terms.items()}, den


def integer_combination(parts: list) -> tuple[dict, int]:
    """``sum(scale * nums / den)`` over the parts ``(scale, den, nums)``, in Python ints.

    ``scale`` and the values of ``nums`` are ints and ``den`` is a positive
    int.  Returns ``(out, common)``: ``common`` is the lcm of the parts'
    denominators and ``out`` holds the nonzero numerators of the sum over
    ``common``, so the sum is zero exactly when ``out`` is empty.
    """
    common = 1
    for _, den, _ in parts:
        common = math.lcm(common, den)
    out: dict = {}
    get = out.get
    for scale, den, nums in parts:
        s = scale * (common // den)
        for k, n in nums.items():
            out[k] = get(k, 0) + s * n
    return {k: n for k, n in out.items() if n}, common


class Record:
    """A plain record class: ``__init__`` sets the attributes named in ``_fields``.

    Two records are equal when they are of the same class and their fields
    are equal; attributes outside ``_fields`` take no part in equality or in
    the ``Name(field=value, ...)`` repr.  A record is mutable and unhashable.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    __hash__ = None

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self):
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({shown})"


class Frozen(Record):
    """An immutable record that hashes by its fields; ``__init__`` sets its
    attributes once, through ``_set``, and assigning one raises AttributeError."""

    __slots__ = ()

    def _set(self, **attributes) -> None:
        for name, value in attributes.items():
            object.__setattr__(self, name, value)

    def __hash__(self):
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r} of a frozen {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r} of a frozen {type(self).__name__}")


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


def superfactorial(n: int) -> int:
    """1! * 2! * ... * n!, with the empty product for n <= 0."""
    out = 1
    fact = 1
    for i in range(1, n + 1):
        fact *= i
        out *= fact
    return out
