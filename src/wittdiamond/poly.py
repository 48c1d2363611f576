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

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Mapping

from .exceptions import UnsupportedVariable, VariableMismatch
from .scalars import ONE, ZERO, LinComb, add_scaled, binomial, scalar


@dataclass(frozen=True)
class PolyRing:
    """Variable signature: names plus a Laurent flag per variable."""

    names: tuple[str, ...]
    laurent: tuple[bool, ...]

    def __post_init__(self):
        if len(self.names) != len(self.laurent):
            raise ValueError("names and laurent flags must have equal length")
        if len(set(self.names)) != len(self.names):
            raise ValueError("variable names must be distinct")

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

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("only natural powers are supported")
        out = self.ring.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

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

    def total_degree(self) -> int | None:
        """Max over terms of the sum of absolute exponents."""
        if not self.terms:
            return None
        return max(sum(abs(x) for x in e) for e in self.terms)

    def extract_var_power(self, name: str, k: int) -> "SparsePoly":
        """Terms whose ``name``-exponent equals k, with that exponent zeroed."""
        i = self.ring.index(name)
        out = {}
        for e, c in self.terms.items():
            if e[i] == k:
                key = e[:i] + (0,) + e[i + 1 :]
                out[key] = c
        return self._like(out)

    def shift(self, name: str, offset) -> "SparsePoly":
        """Substitute ``name`` by ``name - offset`` (binomial expansion)."""
        i = self.ring.index(name)
        if self.ring.laurent[i]:
            raise UnsupportedVariable(f"cannot shift Laurent variable {name!r}")
        off = scalar(offset)
        if off == 0:
            return self
        out: dict[tuple[int, ...], Fraction] = {}
        for e, c in self.terms.items():
            k = e[i]
            for j in range(k + 1):
                coef = c * binomial(k, j) * (-off) ** (k - j)
                if coef == 0:
                    continue
                key = e[:i] + (j,) + e[i + 1 :]
                nv = out.get(key, ZERO) + coef
                if nv:
                    out[key] = nv
                else:
                    out.pop(key, None)
        return self._like(out)

    def derive(self, name: str) -> "SparsePoly":
        """Formal derivative: x^n -> n x^(n-1), for every integer n on a Laurent variable."""
        i = self.ring.index(name)
        return self._like(
            {e[:i] + (e[i] - 1,) + e[i + 1 :]: c * e[i] for e, c in self.terms.items() if e[i]}
        )

    def mul_var(self, name: str, power: int = 1) -> "SparsePoly":
        """Multiply by ``name ** power``; Laurent variables accept any sign."""
        i = self.ring.index(name)
        out = {}
        for e, c in self.terms.items():
            out[e[:i] + (e[i] + power,) + e[i + 1 :]] = c
        return SparsePoly(self.ring, out)

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


_TERM_SPLIT = re.compile(r"(?<!\^)(?=[+-])")
_FACTOR = re.compile(r"^([A-Za-z][A-Za-z0-9]*)(?:\^(-?\d+))?$")


def parse_poly(ring: PolyRing, text: str) -> SparsePoly:
    """Parse "2 x0^2 x1^-1 - 1/3 h" style monomial sums in ``ring``."""
    text = text.strip()
    if not text or text == "0":
        return ring.zero()
    total = ring.zero()
    for raw in _TERM_SPLIT.split(text.replace("*", " ")):
        raw = raw.strip()
        if not raw:
            continue
        sign = ONE
        while raw and raw[0] in "+-":
            if raw[0] == "-":
                sign = -sign
            raw = raw[1:].strip()
        coef = sign
        powers: dict[str, int] = {}
        for tok in raw.split():
            m = _FACTOR.match(tok)
            if m:
                name, e = m.group(1), int(m.group(2) or 1)
                powers[name] = powers.get(name, 0) + e
            else:
                coef *= scalar(tok)
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
