"""Normal-ordered exact computation in the target operator algebras.

Three kinds of algebra share one element class:

* Weyl-type algebras with a per-variable Laurent flag.  Monomial keys are
  (xexp, dexp) pairs of exponent tuples, normal order has all coordinate
  powers to the left of all derivation powers, and products are expanded
  with [d_x, x^n] = n x^(n-1) for any integer n.  This covers the degree-2
  Laurent Weyl algebra, its degree-1 piece, and the polynomial
  differential-operator algebra on one variable.
* The enveloping algebra of the solvable 2-dimensional algebra with
  bracket [h, e] = e; keys are (h-exponent, e-exponent) with h left of e,
  and reordering uses e h = (h - 1) e.
* Tensor products of a Weyl-type algebra with a second algebra, stored as
  sums of pure tensors with both sides normal-ordered eagerly.

The product of two monomials has integer coefficients in both kinds of
algebra, whatever the parameters of the maps into them.  ``weyl_product``
and ``ub_product`` compute it as a tuple of (key, int) pairs and cache it
per key pair, so each structure constant is worked out once per process.
Element products scale a table entry by one rational per pair of terms and
skip the multiplication where the constant is 1, as most of them are.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Hashable, Mapping

from .poly import PolyRing, SparsePoly
from .scalars import ONE, LinComb, scalar


@functools.cache
def weyl_product(k1, k2) -> tuple:
    """Normal-ordered product of two Weyl monomials, as (key, int) pairs.

    (x^a d^b)(x^c d^e) = sum over k of prod_i C(b_i, k_i) (c_i)_(k_i)
    x^(a+c-k) d^(b+e-k).  The falling factorial (c_i)_(k_i) of an integer
    is an integer, for negative (Laurent) c_i too; for 0 <= c_i < k_i it
    vanishes, and so does every later factor.  Distinct k give distinct
    keys, so no two pairs share a key.
    """
    (a, b), (c, e) = k1, k2
    per_coordinate = []
    for bi, ci in zip(b, c):
        choices, fall = [], 1
        for k in range(bi + 1):
            if not fall:
                break
            choices.append((k, math.comb(bi, k) * fall))
            fall *= ci - k
        per_coordinate.append(choices)
    out = []
    for choice in itertools.product(*per_coordinate):
        ks = [k for k, _ in choice]
        key = (
            tuple(ai + ci - k for ai, ci, k in zip(a, c, ks)),
            tuple(bi + ei - k for bi, ei, k in zip(b, e, ks)),
        )
        out.append((key, math.prod(ck for _, ck in choice)))
    return tuple(out)


@functools.cache
def ub_product(k1, k2) -> tuple:
    """Normal-ordered product of two U(b) monomials, as (key, int) pairs.

    e^j h = (h - j) e^j, so h^i1 e^j1 h^i2 e^j2 = h^i1 (h - j1)^i2 e^(j1+j2)
    = sum over r of C(i2, r) (-j1)^(i2-r) h^(i1+r) e^(j1+j2).
    """
    (i1, j1), (i2, j2) = k1, k2
    return tuple(
        ((i1 + r, j1 + j2), math.comb(i2, r) * (-j1) ** (i2 - r))
        for r in range(i2 + 1)
        if j1 or r == i2
    )


@dataclass(frozen=True)
class WeylAlgebra:
    names: tuple[str, ...]
    laurent: tuple[bool, ...]

    @property
    def one_key(self):
        z = (0,) * len(self.names)
        return (z, z)

    def mul_keys(self, k1, k2) -> tuple:
        """Normal-ordered product of two monomials; see ``weyl_product``."""
        return weyl_product(k1, k2)

    def format_key(self, key) -> str:
        xexp, dexp = key
        bits = []
        for name, p in zip(self.names, xexp):
            if p:
                bits.append(name if p == 1 else f"{name}^{p}")
        for name, p in zip(self.names, dexp):
            if p:
                bits.append(f"d{name}" if p == 1 else f"d{name}^{p}")
        return " ".join(bits) if bits else "1"

    def act_key(self, key, p: SparsePoly) -> SparsePoly:
        """Apply a normal-ordered monomial to a (Laurent) polynomial."""
        xexp, dexp = key
        out = p
        for name, k in zip(self.names, dexp):
            for _ in range(k):
                out = out.derive(name)
        for name, k in zip(self.names, xexp):
            if k:
                out = out.mul_var(name, k)
        return out

    def poly_ring(self) -> PolyRing:
        return PolyRing(self.names, self.laurent)


@dataclass(frozen=True)
class UbAlgebra:
    """U(b) for b = span{h, e} with [h, e] = e; normal form h^i e^j."""

    @property
    def one_key(self):
        return (0, 0)

    def mul_keys(self, k1, k2) -> tuple:
        """Normal-ordered product of two monomials; see ``ub_product``."""
        return ub_product(k1, k2)

    def format_key(self, key) -> str:
        i, j = key
        bits = []
        if i:
            bits.append("h" if i == 1 else f"h^{i}")
        if j:
            bits.append("e" if j == 1 else f"e^{j}")
        return " ".join(bits) if bits else "1"

    def act_key(self, key, p: SparsePoly) -> SparsePoly:
        """Faithful action on C[h]: h multiplies, e shifts h by -1."""
        i, j = key
        out = p.shift("h", j) if j else p
        if i:
            out = out.mul_var("h", i)
        return out


R0 = WeylAlgebra(("x0",), (True,))
R2 = WeylAlgebra(("x0", "x1"), (True, True))
DIFFOP = WeylAlgebra(("t",), (False,))
UB = UbAlgebra()


class OperatorElement(LinComb):
    """Normal-ordered element of a single operator algebra."""

    __slots__ = ("algebra",)

    def __init__(self, algebra, terms: Mapping[Hashable, Fraction] | None = None):
        self.algebra = algebra
        self.terms = {k: c for k, c in (terms or {}).items() if c}

    def _like(self, terms):
        new = object.__new__(OperatorElement)
        new.algebra = self.algebra
        new.terms = terms
        return new

    def _space(self):
        return self.algebra

    def _format_key(self, key) -> str:
        return self.algebra.format_key(key)

    @classmethod
    def one(cls, algebra) -> "OperatorElement":
        return cls(algebra, {algebra.one_key: ONE})

    @classmethod
    def monomial(cls, algebra, key, coef=ONE) -> "OperatorElement":
        return cls(algebra, {key: scalar(coef)})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scaled(other)
        self._check(other)
        out: dict = {}
        mul_keys = self.algebra.mul_keys
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                c12 = c1 * c2
                for k3, c3 in mul_keys(k1, k2):
                    term = c12 if c3 == 1 else c12 * c3
                    prev = out.get(k3)
                    nv = term if prev is None else prev + term
                    if nv:
                        out[k3] = nv
                    else:
                        del out[k3]
        return self._like(out)

    def act(self, p: SparsePoly) -> SparsePoly:
        out = p.ring.zero()
        for k, c in self.terms.items():
            out = out + self.algebra.act_key(k, p) * c
        return out


class TensorElement(LinComb):
    """Sum of pure tensors A (x) B with both sides normal-ordered."""

    __slots__ = ("left_algebra", "right_algebra")

    def __init__(self, left_algebra, right_algebra, terms=None):
        self.left_algebra = left_algebra
        self.right_algebra = right_algebra
        self.terms = {k: c for k, c in (terms or {}).items() if c}

    def _like(self, terms):
        new = object.__new__(TensorElement)
        new.left_algebra = self.left_algebra
        new.right_algebra = self.right_algebra
        new.terms = terms
        return new

    def _space(self):
        return (self.left_algebra, self.right_algebra)

    def _format_key(self, key) -> str:
        kl, kr = key
        return f"({self.left_algebra.format_key(kl)})(x)({self.right_algebra.format_key(kr)})"

    @classmethod
    def one(cls, left_algebra, right_algebra) -> "TensorElement":
        return cls(
            left_algebra,
            right_algebra,
            {(left_algebra.one_key, right_algebra.one_key): ONE},
        )

    @classmethod
    def pure(cls, left: OperatorElement, right: OperatorElement) -> "TensorElement":
        terms = {
            (kl, kr): cl * cr for kl, cl in left.terms.items() for kr, cr in right.terms.items()
        }
        return cls(left.algebra, right.algebra, terms)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scaled(other)
        self._check(other)
        out: dict = {}
        left_mul, right_mul = self.left_algebra.mul_keys, self.right_algebra.mul_keys
        for (l1, r1), c1 in self.terms.items():
            for (l2, r2), c2 in other.terms.items():
                c12 = c1 * c2
                rf = right_mul(r1, r2)
                for kl, cl in left_mul(l1, l2):
                    for kr, cr in rf:
                        key = (kl, kr)
                        n = cl * cr
                        term = c12 if n == 1 else c12 * n
                        prev = out.get(key)
                        nv = term if prev is None else prev + term
                        if nv:
                            out[key] = nv
                        else:
                            del out[key]
        return self._like(out)


def commutator(u, v):
    """uv - vu in whichever algebra u and v share."""
    return u * v - v * u
