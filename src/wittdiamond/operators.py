"""Normal-ordered exact computation in the target operator algebras.

Three kinds of algebra share one element class, ``OperatorElement``:

* Weyl-type algebras with a per-variable Laurent flag.  Monomial keys are
  (xexp, dexp) pairs of exponent tuples, normal order has all coordinate
  powers to the left of all derivation powers, and products are expanded
  with [d_x, x^n] = n x^(n-1) for any integer n.  This covers the degree-2
  Laurent Weyl algebra, its degree-1 piece, and the polynomial
  differential-operator algebra on one variable.
* The enveloping algebra of the solvable 2-dimensional algebra with
  bracket [h, e] = e; keys are (h-exponent, e-exponent) with h left of e,
  and reordering uses e h = (h - 1) e.
* The tensor product of two such algebras, ``TensorAlgebra(left, right)``,
  with (left key, right key) pairs as keys; ``tensor_algebra`` gives the
  one instance of each pair.  Its elements are ``TensorElement``s, a
  subclass whose only method, ``__mul__``, gives the ``operators.tensor_mul``
  span of ``perfbench/tracer.py`` a method to wrap.

Every algebra gives ``one_key``, ``format_key`` and ``mul_keys``, the
product of two monomials, with integer coefficients whatever the parameters
of the maps into it.  ``weyl_product`` and ``ub_product`` compute it as a
tuple of (key, int) pairs and cache it per key pair, and a tensor algebra
multiplies the two side tables.  Element products scale a table entry by
one rational per pair of terms and skip the multiplication where the
constant is 1, as most of them are.
Each tensor algebra owns one ``BracketTables`` as ``brackets``: int ids for
its keys (``brackets.id(key)``, with ``brackets.keys`` mapping them back)
and one row per id, ``brackets.rows[i1]``, from a second id to the integer
bracket table of the pair, worked out on first use.  A caller that holds a
row finds a table by hashing one int, so the bracket check of
``homomorphisms.verify_hom`` needs no rational arithmetic and hashes no
nested key tuple.
The generator images of ``homomorphisms`` are read from tables of such keys.
``commutator`` is ``uv - vu`` for every kind of element.
The last section acts with monomials on the factors of the modules, and
``pullback_rules`` compiles a table of ``homomorphisms`` into the rules of
``poly.act_by_rules``: every module action is such a pullback.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction
from typing import Hashable, Mapping

from .scalars import ONE, Frozen, LinComb, scalar


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


class WeylAlgebra(Frozen):
    _fields = ("names", "laurent")

    def __init__(self, names: tuple[str, ...], laurent: tuple[bool, ...]):
        self._set(names=names, laurent=laurent)

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


class UbAlgebra(Frozen):
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


R0 = WeylAlgebra(("x0",), (True,))
R2 = WeylAlgebra(("x0", "x1"), (True, True))
DIFFOP = WeylAlgebra(("t",), (False,))
UB = UbAlgebra()


class TensorAlgebra(Frozen):
    """The tensor product of two algebras: keys are (left key, right key) pairs.

    ``tensor_algebra`` gives the one instance of each pair, which owns the
    pair's ``BracketTables`` as ``brackets``.
    """

    _fields = ("left", "right")

    def __init__(self, left, right):
        self._set(left=left, right=right, brackets=BracketTables(self))

    @property
    def one_key(self):
        return (self.left.one_key, self.right.one_key)

    def mul_keys(self, k1, k2) -> list:
        """(l1 (x) r1)(l2 (x) r2) = l1 l2 (x) r1 r2, from the two side tables."""
        (l1, r1), (l2, r2) = k1, k2
        rf = self.right.mul_keys(r1, r2)
        return [((kl, kr), cl * cr) for kl, cl in self.left.mul_keys(l1, l2) for kr, cr in rf]

    def format_key(self, key) -> str:
        kl, kr = key
        return f"({self.left.format_key(kl)})(x)({self.right.format_key(kr)})"


@functools.cache
def tensor_algebra(left, right) -> TensorAlgebra:
    """The one ``TensorAlgebra`` of a pair of algebras in this process."""
    return TensorAlgebra(left, right)


class OperatorElement(LinComb):
    """Normal-ordered element of an operator algebra or of a tensor product of two.

    The constructor drops zero coefficients, so a table of terms may hold them.
    """

    __slots__ = ("algebra",)

    def __init__(self, algebra, terms: Mapping[Hashable, Fraction] | None = None):
        self.algebra = algebra
        self.terms = {k: c for k, c in (terms or {}).items() if c}

    def _like(self, terms):
        new = object.__new__(type(self))
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


class TensorElement(OperatorElement):
    """An element of a ``TensorAlgebra``: a sum of pure tensors A (x) B."""

    __slots__ = ()

    def __mul__(self, other):
        # Only so that the operators.tensor_mul span of perfbench/tracer.py has a
        # function of this class to wrap.
        return OperatorElement.__mul__(self, other)


class BracketTables:
    """The integer bracket tables of one tensor algebra, one row per key id.

    ``id(key)`` gives a key of the algebra its int id on first sight, and
    ``keys[i]`` maps the id back.  ``rows[i1]`` is a dict from a second id
    ``i2`` to the table of [keys[i1], keys[i2]], ``mul_keys(k1, k2)`` minus
    ``mul_keys(k2, k1)``, as (id, int) pairs with zeros dropped; it is empty
    when the monomials commute.  ``tables[i1, i2]`` reads that table and
    works out a pair not seen before, which its row then keeps, so a caller
    that holds a row finds a table by hashing one int.
    """

    __slots__ = ("algebra", "_ids", "keys", "rows")

    def __init__(self, algebra: TensorAlgebra):
        self.algebra = algebra
        self._ids: dict = {}
        self.keys: list = []
        self.rows: list[dict] = []

    def id(self, key) -> int:
        i = self._ids.get(key)
        if i is None:
            i = self._ids[key] = len(self.keys)
            self.keys.append(key)
            self.rows.append({})
        return i

    def __getitem__(self, ids) -> tuple:
        i1, i2 = ids
        row = self.rows[i1]
        table = row.get(i2)
        if table is None:
            k1, k2 = self.keys[i1], self.keys[i2]
            out = dict(self.algebra.mul_keys(k1, k2))
            for key, n in self.algebra.mul_keys(k2, k1):
                out[key] = out.get(key, 0) - n
            table = row[i2] = tuple((self.id(key), n) for key, n in out.items() if n)
        return table


def commutator(u, v):
    """uv - vu in whichever algebra u and v share."""
    return u * v - v * u


# -- the action of monomials on the factors of the modules -------------------


def falling(u: int, q: int, b: int) -> tuple:
    """The int p, highest degree first, with p(y) / q^b = (y + w)(y + w - 1)...(y + w - b + 1)
    for w = u/q."""
    p = (1,)
    for r in range(b):
        p = tuple(q * hi + (u - r * q) * lo for hi, lo in zip((*p, 0), (0, *p)))
    return p


def weight_factor(j: int, w):
    """M(w) on variable j, x^e standing for x^(w + e): x^a dx^b x^e = (w + e)...(w + e - b + 1)
    x^(e + a - b).  M(0) on a polynomial variable is C[t]."""
    u, q = w.numerator, w.denominator
    return lambda a, b: [(1, q**b, ((j, falling(u, q, b)),) if b else (),
                          ((j, a - b, 0),) if a != b else ())]


def shift_factor(j: int, lam):
    """Omega(lam) on variable y = y_j: x^k is lam^k (y -> y - k) and x dx is y, so x^a dx^b =
    x^(a - b) y(y - 1)...(y - b + 1)."""
    u, q = lam.numerator, lam.denominator

    def act(a, b):
        k = a - b
        lam_num, lam_den = (u**k, q**k) if k >= 0 else (q**-k, u**-k)
        return [(c * lam_num, lam_den, (), ((j, b - i, k),) if b - i or k else ())
                for i, c in enumerate(falling(0, 1, b)) if c]
    return act


def whittaker_factor(j: int):
    """C[h] on variable j: h multiplies and e is h -> h - 1, so h^a e^b = e^b (h + b)^a."""
    return lambda a, b: [(math.comb(a, r) * b ** (a - r), 1, (), ((j, r, b),) if r or b else ())
                         for r in range(a + 1)]


def scalar_factor(eps):
    """C_eps: h acts as eps and e as 0."""
    u, q = eps.numerator, eps.denominator
    return lambda a, b: [] if b else [(u**a, q**a, (), ())]


def monomial_parts(key) -> tuple:
    """The parts (a, b) of a monomial key, one per coordinate: x^a dx^b for each Weyl
    coordinate, h^a e^b for U(b), and a tensor key's left parts before its right ones."""
    left, right = key
    if type(left) is int:
        return (key,)
    if type(left[0]) is int:
        return tuple(zip(left, right))
    return monomial_parts(left) + monomial_parts(right)


def pullback_rules(pullbacks) -> tuple[list, int]:
    """``(rules, den)`` for ``poly.act_by_rules``: the sum of c m over the terms of each
    (terms, factors) in ``pullbacks``, factor by factor.

    ``terms`` yields (key, c), as the items of a table of ``homomorphisms``
    or of an element's terms; ``factors`` holds one action per part of the
    key (``monomial_parts``).  An action maps its part to terms (u, q, polys,
    ops) on its variable: u/q times the polys of ``act_by_rules`` and an op (j, d, n),
    x_j^e -> (x_j - n)^(e + d).  One term per factor makes a rule, whose ops become the
    raises (j, d) and shifts (j, n) of ``act_by_rules``; every action is bound to its
    own variable, so a rule names each variable once.  A product module passes one
    pullback per factor, on that factor's variables, and every rule is cleared to ints
    over one denominator.
    """
    rules = []
    for terms, factors in pullbacks:
        for key, c in terms:
            choices = [(c.numerator, c.denominator, (), ())]
            for act, part in zip(factors, monomial_parts(key)):
                choices = [(n * u, d * q, ps + p, os + o)
                           for n, d, ps, os in choices for u, q, p, o in act(*part)]
            rules += [rule for rule in choices if rule[0]]
    den = math.lcm(*(d for _, d, _, _ in rules))
    return [(n * (den // d), polys, tuple((j, e) for j, e, _ in ops if e),
             tuple((j, s) for j, _, s in ops if s)) for n, d, polys, ops in rules], den
