"""Sparse multivariate (Laurent-)polynomials over exact rationals.

A :class:`PolyRing` fixes an ordered tuple of named indeterminates, each
flagged either polynomial (exponents in N) or Laurent (exponents in Z).
Elements store only nonzero terms, keyed by exponent vector, and are
immutable in practice: every operation returns a fresh element.

The term order used throughout (for degrees, leading terms and printing)
is the lexicographic order on exponent vectors in the ring's variable
order, so extracting the degree of a vector is a single max() scan.
"""

from __future__ import annotations

import functools
import itertools
import math
import re
from fractions import Fraction
from typing import Iterable, Iterator, Mapping

from .exceptions import UnsupportedVariable, VariableMismatch
from .scalars import (ONE, ZERO, Frozen, LinComb, add_scaled, clear_denominators,
                      scalar, signed_terms)


class PolyRing(Frozen):
    """Variable signature: names plus a Laurent flag per variable."""

    _fields = ("names", "laurent")

    def __init__(self, names: tuple[str, ...], laurent: tuple[bool, ...]):
        if len(names) != len(laurent):
            raise ValueError("names and laurent flags must have equal length")
        if len(set(names)) != len(names):
            raise ValueError("variable names must be distinct")
        self._set(names=names, laurent=laurent)

    @property
    def nvars(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise UnsupportedVariable(f"no variable named {name!r}") from None

    def zero(self) -> "SparsePoly":
        return SparsePoly(self, {})

    def const(self, c) -> "SparsePoly":
        c = scalar(c)
        if c == 0:
            return self.zero()
        return SparsePoly(self, {(0,) * self.nvars: c})

    def one(self) -> "SparsePoly":
        return self.const(1)

    def var(self, name: str, power: int = 1) -> "SparsePoly":
        return self.monomial({name: power})

    def monomial(self, powers: Mapping[str, int], coef=ONE) -> "SparsePoly":
        exps = [0] * self.nvars
        for name, p in powers.items():
            exps[self.index(name)] = p
        c = scalar(coef)
        if c == 0:
            return self.zero()
        return SparsePoly(self, {tuple(exps): c})

    def from_terms(self, terms: Iterable[tuple[tuple[int, ...], Fraction]]) -> "SparsePoly":
        acc: dict[tuple[int, ...], Fraction] = {}
        for exps, c in terms:
            c = scalar(c)
            if c:
                add_scaled(acc, {tuple(exps): c})
        return SparsePoly(self, acc)


@functools.cache
def _shift_row(k: int, off: int | Fraction) -> tuple[tuple[int, int | Fraction], ...]:
    """The expansion of x^k under x -> x - off: pairs (j, C(k, j) (-off)^(k-j)).

    ``off`` is nonzero, so every coefficient is; an integer offset is passed
    as an int, so its row holds ints, and a rational one (``SparsePoly.shift``)
    gives a row of Fractions.  The row is a tuple, so no caller can change
    what the cache hands to the next.
    """
    m = -off
    return tuple((j, math.comb(k, j) * m ** (k - j)) for j in range(k + 1))


def act_by_rules(f: "SparsePoly", rules, den: int) -> "SparsePoly":
    """The sum over the rules (k, polys, raises, shifts) and the terms c x^e of f of k c prod
    p(e_j) over (j, p) in polys, times x^e with x_j^e_j -> x_j^(e_j + d) for each (j, d) in
    raises and then x_j -> x_j - n for each (j, n) in shifts, over den.  k and the
    coefficients of each p (highest degree first) are ints, as ``operators.pullback_rules``
    gives them: f is cleared to ints once, ``act_numerators`` sums in ints, and each key
    gets one Fraction.  A shift n may also be a Fraction, as in ``SparsePoly.shift``:
    then the sums hold Fraction terms, and the final division keeps them exact.
    """
    nums, f_den = clear_denominators(f.terms)
    den *= f_den
    return f._like({y: Fraction(a, den) for y, a in act_numerators(nums, rules).items() if a})


def act_numerators(nums: dict, rules) -> dict:
    """The integer kernel of ``act_by_rules``: the image of the numerators ``nums`` under
    ``rules``, by key, with no denominator applied; a key whose sum cancels keeps a zero.
    The sums are ints when every shift is, and may be Fractions otherwise.

    A rule names each variable at most once in its raises and at most once in its
    shifts, as ``pullback_rules`` makes them (each factor action is bound to its own
    variable), so the raises are applied to one exponent list in place.  A rule with no
    shift writes one key, and one with a single shift walks its ``_shift_row`` in place;
    only a rule with two or more shifts builds its keys by slicing.
    """
    acc: dict[tuple[int, ...], int] = {}
    get = acc.get
    for e, c in nums.items():
        for k, polys, raises, shifts in rules:
            k *= c
            for j, p in polys:
                x, v = e[j], 0
                for a in p:
                    v = v * x + a
                k *= v
            if not k:
                continue
            y = list(e)
            for j, d in raises:
                y[j] += d
            if not shifts:
                y = tuple(y)
                acc[y] = get(y, 0) + k
            elif len(shifts) == 1:
                ((j, n),) = shifts
                for y[j], b in _shift_row(y[j], n):
                    key = tuple(y)
                    acc[key] = get(key, 0) + k * b
            else:
                part = [(tuple(y), k)]
                for j, n in shifts:
                    part = [(z[:j] + (x,) + z[j + 1 :], a * b)
                            for z, a in part for x, b in _shift_row(z[j], n)]
                for z, a in part:
                    acc[z] = get(z, 0) + a
    return acc


class SparsePoly(LinComb):
    """A finite rational linear combination of monomials in a fixed ring."""

    __slots__ = ("ring",)
    _mismatch = VariableMismatch

    def __init__(self, ring: PolyRing, terms: dict[tuple[int, ...], Fraction]):
        for exps in terms:
            for flag, e in zip(ring.laurent, exps):
                if not flag and e < 0:
                    raise UnsupportedVariable(
                        "negative exponent on a polynomial-flagged variable"
                    )
        self.ring = ring
        self.terms = terms

    def _like(self, terms):
        new = object.__new__(SparsePoly)
        new.ring = self.ring
        new.terms = terms
        return new

    def _space(self):
        return self.ring

    def _coerce(self, other):
        if isinstance(other, (int, Fraction)):
            return self.ring.const(other)
        return other

    # -- ring operations ------------------------------------------------

    def __add__(self, other):
        # SparsePoly's own function, so that perfbench/tracer.py counts
        # polynomial sums apart from the other linear combinations.
        return LinComb.__add__(self, other)

    __radd__ = __add__

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scaled(other)
        self._check(other)
        out: dict[tuple[int, ...], Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                key = tuple(a + b for a, b in zip(e1, e2))
                nv = out.get(key, ZERO) + c1 * c2
                if nv:
                    out[key] = nv
                else:
                    out.pop(key, None)
        return self._like(out)

    __rmul__ = __mul__

    # -- structure ------------------------------------------------------

    def coefficient(self, exps: tuple[int, ...]) -> Fraction:
        return self.terms.get(tuple(exps), ZERO)

    def degree(self) -> tuple[int, ...] | None:
        """Lexicographic degree; None plays the role of the bottom element."""
        if not self.terms:
            return None
        return max(self.terms)

    def var_degree(self, name: str) -> int | None:
        if not self.terms:
            return None
        i = self.ring.index(name)
        return max(e[i] for e in self.terms)

    def shift(self, name: str, offset) -> "SparsePoly":
        """Substitute ``name`` by ``name - offset``: one ``act_by_rules`` rule whose only
        op is that shift, so ``_shift_row`` expands every power."""
        i = self.ring.index(name)
        if self.ring.laurent[i]:
            raise UnsupportedVariable(f"cannot shift Laurent variable {name!r}")
        off = scalar(offset)
        if off == 0:
            return self
        if off.denominator == 1:
            off = off.numerator
        return act_by_rules(self, [(1, (), (), ((i, off),))], 1)

    def derive(self, name: str) -> "SparsePoly":
        """Formal derivative: x^n -> n x^(n-1), for every integer n on a Laurent variable."""
        i = self.ring.index(name)
        return self._like(
            {e[:i] + (e[i] - 1,) + e[i + 1 :]: c * e[i] for e, c in self.terms.items() if e[i]}
        )

    def mul_var(self, name: str, power: int = 1) -> "SparsePoly":
        """Multiply by ``name ** power``; Laurent variables accept any sign.

        The result is always a fresh element.  Only a negative power of a
        polynomial-flagged variable goes through the validating constructor,
        which rejects a negative exponent in the result.
        """
        i = self.ring.index(name)
        out = {e[:i] + (e[i] + power,) + e[i + 1 :]: c for e, c in self.terms.items()}
        if power < 0 and not self.ring.laurent[i]:
            return SparsePoly(self.ring, out)
        return self._like(out)

    # -- display --------------------------------------------------------

    def _sort_key(self, exps):
        # Lexicographically largest exponent vector first.
        return tuple(-e for e in exps)

    def _format_key(self, exps) -> str:
        return " ".join(
            name if e == 1 else f"{name}^{e}" for name, e in zip(self.ring.names, exps) if e
        )

    def __repr__(self):
        return f"SparsePoly({str(self)!r})"


def vanishes(p: SparsePoly) -> tuple[int, ...] | None:
    """None when the polynomial p is zero, else a point of {0..D_1} x ... x {0..D_k}, D_i
    the degree of p in its i-th variable, where p is nonzero.  It exists by the grid lemma
    (Alon 1999, Combinatorial Nullstellensatz, Lemma 2.1): a polynomial of degree at most
    D_i in each variable i that vanishes on D_i + 1 points per variable is zero.
    """
    grid = itertools.product(*(range((p.var_degree(v) or 0) + 1) for v in p.ring.names))
    return next((x for x in grid
                 if sum(c * math.prod(map(pow, x, e)) for e, c in p.terms.items())), None)


_FACTOR = re.compile(r"([A-Za-z][A-Za-z0-9]*)(?:\^(-?[0-9]+))?")


def parse_poly(ring: PolyRing, text: str) -> SparsePoly:
    """Parse "2 x0^2 x1^-1 - 1/3 h" style monomial sums in ``ring``."""
    total = ring.zero()
    for coef, factors in signed_terms(text, _FACTOR):
        powers: dict[str, int] = {}
        for m in factors:
            name, e = m[1], int(m[2] or 1)
            powers[name] = powers.get(name, 0) + e
        total = total + ring.monomial(powers, coef)
    return total


def monomials_within(ring: PolyRing, max_total_degree: int) -> Iterator[tuple[int, ...]]:
    """All exponent vectors with sum of absolute exponents <= the bound."""

    def rec(i: int, budget: int, prefix: tuple[int, ...]):
        if i == ring.nvars:
            yield prefix
            return
        lo = -budget if ring.laurent[i] else 0
        for e in range(lo, budget + 1):
            yield from rec(i + 1, budget - abs(e), prefix + (e,))

    yield from rec(0, max_total_degree, ())
