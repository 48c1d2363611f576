"""The two operator-algebra homomorphisms out of the enveloping algebra.

``PhiAB`` sends the algebra into (degree-2 Laurent Weyl algebra) (x) U(b);
``PhiABGG`` sends it onto (degree-1 Laurent Weyl algebra) (x) (polynomial
differential operators).  Both are defined on generators, by the tables
``ab_table`` and ``abgg_table``, and extended to PBW words
multiplicatively, in the ``operators.TensorAlgebra`` each map holds as
``algebra``.  ``verify_hom`` checks that the tables respect every bracket, on
an index window that a degree bound proves complete, in integers from the
key ids and bracket tables that the algebra owns as ``brackets``.  The
witness lists exhibit preimages of the standard generating operators, each
replayable exactly.  The witness targets and the ``CorruptedPhiAB`` control
are keys of the same tables, and the module actions of ``fock`` and
``omega`` are their pullbacks.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from .exceptions import InvalidGenerator, InvalidSpec
from .lie import Generator, UEnvElement, bracket, gen, generators_in_window
from .operators import (
    DIFFOP,
    R0,
    R2,
    UB,
    TensorElement,
    integer_commutator,
    tensor_algebra,
)
from .scalars import ONE, Frozen, Record, add_scaled, scalar


def ab_table(family: str, n: int, alpha: Fraction, beta: Fraction) -> dict:
    """family[n]'s image under ``PhiAB(alpha, beta)`` as {key: coefficient}, zeros kept.

    Keys are ((x0, x1 exponents), (dx0, dx1 exponents)) (x) (h, e exponents).
    """
    one, h, e, no_d = (0, 0), (1, 0), (0, 1), (0, 0)
    if family == "L":
        return {
            (((n + 1, 0), (1, 0)), one): ONE,
            (((n, 0), no_d), one): n * alpha,
            (((n, 0), no_d), h): Fraction(n),
        }
    if family == "d":
        return {(((n, 1), (0, 1)), one): ONE, (((n, 0), no_d), e): Fraction(n)}
    if family == "a":
        return {
            (((n, 2), (0, 1)), one): beta,
            (((n, 1), no_d), h): -beta,
            (((n, 1), no_d), e): beta * n,
        }
    if family == "b":
        return {(((n, -1), no_d), one): ONE}
    if family == "c":
        return {(((n, 0), no_d), one): -beta}
    raise InvalidGenerator(f"unknown generator family {family!r}")


def abgg_table(family: str, n: int, alpha: Fraction, beta: Fraction, gamma: Fraction,
               g: tuple[Fraction, ...]) -> dict:
    """family[n]'s image under ``PhiABGG(alpha, beta, gamma, g)`` as {key: coefficient}, zeros kept.

    Keys are (x0 exponent, dx0 exponent) (x) (t exponent, dt exponent), each a one-tuple.
    """
    x0n, one = ((n,), (0,)), ((0,), (0,))
    if family == "L":
        return {(((n + 1,), (1,)), one): ONE, (x0n, one): n * alpha}
    if family == "d":
        terms = {(x0n, ((k + 1,), (0,))): c / beta for k, c in enumerate(g)}
        terms[x0n, one] = gamma / beta
        terms[x0n, ((1,), (1,))] = ONE
        return terms
    if family == "a":
        return {(x0n, ((1,), (0,))): ONE}
    if family == "b":
        terms = {(x0n, ((k,), (0,))): c for k, c in enumerate(g)}
        terms[x0n, ((0,), (1,))] = beta
        return terms
    if family == "c":
        return {(x0n, one): -beta}
    raise InvalidGenerator(f"unknown generator family {family!r}")


class PhiAB(Frozen):
    """The map into (Weyl degree 2) (x) U(b); its generator table is ``ab_table``.

    With d0 and d1 denoting the Euler operators x_i d/dx_i:

        L[n] -> x0^n (d0 + n alpha) (x) 1  +  n x0^n (x) h
        d[n] -> x0^n d1 (x) 1  +  n x0^n (x) e
        a[n] -> beta x0^n x1 d1 (x) 1  -  beta x0^n x1 (x) (h - n e)
        b[n] -> x0^n x1^-1 (x) 1
        c[n] -> -beta x0^n (x) 1

    The n-linear tensor terms form a cocycle for the zero-index part: the
    U(b) coefficients attached to L, d and a are forced (up to one global
    scale, fixed here so that d[n] carries exactly n x0^n (x) e) by the
    bracket relations together with the images of b and c.  In particular
    the h-part of a[n] must carry the factor -beta: the commutator of two
    a-images acquires a (beta + eigenvalue-of-ad-h) factor on its e-term,
    and only eigenvalue -beta cancels it.
    """

    _fields = ("alpha", "beta")
    algebra = tensor_algebra(R2, UB)

    def __init__(self, alpha: Fraction, beta: Fraction):
        alpha, beta = scalar(alpha), scalar(beta)
        if beta == 0:
            raise InvalidSpec("beta must be nonzero")
        self._set(alpha=alpha, beta=beta)

    def one(self) -> TensorElement:
        return TensorElement.one(self.algebra)

    def image(self, g: Generator) -> TensorElement:
        return TensorElement(self.algebra, ab_table(g.family, g.index, self.alpha, self.beta))

    def apply(self, u: UEnvElement) -> TensorElement:
        return _apply(self, u)


class CorruptedPhiAB(PhiAB):
    """Negative control: the image of d[n] is missing its n x0^n (x) e term."""

    def image(self, g: Generator) -> TensorElement:
        table = ab_table(g.family, g.index, self.alpha, self.beta)
        if g.family == "d":
            del table[((g.index, 0), (0, 0)), (0, 1)]
        return TensorElement(self.algebra, table)


class PhiABGG(Frozen):
    """The surjection onto (Weyl degree 1) (x) diff ops; its generator table is ``abgg_table``.

    ``g`` is the coefficient tuple of a polynomial g(t) in the differential
    variable, constant term first.  With d0 = x0 d/dx0 and dt = d/dt:

        L[n] -> x0^n (d0 + n alpha) (x) 1
        d[n] -> x0^n (x) ((t g(t) + gamma) / beta + t dt)
        a[n] -> x0^n (x) t
        b[n] -> x0^n (x) (g(t) + beta dt)
        c[n] -> -beta x0^n (x) 1
    """

    _fields = ("alpha", "beta", "gamma", "g")
    algebra = tensor_algebra(R0, DIFFOP)

    def __init__(self, alpha: Fraction, beta: Fraction, gamma: Fraction, g: tuple[Fraction, ...]):
        alpha, beta, gamma = scalar(alpha), scalar(beta), scalar(gamma)
        g = tuple(scalar(c) for c in g)
        if beta == 0:
            raise InvalidSpec("beta must be nonzero")
        self._set(alpha=alpha, beta=beta, gamma=gamma, g=g)

    def one(self) -> TensorElement:
        return TensorElement.one(self.algebra)

    def image(self, g: Generator) -> TensorElement:
        return TensorElement(self.algebra, abgg_table(g.family, g.index, self.alpha, self.beta,
                                                      self.gamma, self.g))

    def apply(self, u: UEnvElement) -> TensorElement:
        return _apply(self, u)


def _apply(phi, u: UEnvElement) -> TensorElement:
    total: dict = {}
    for word, c in u.terms.items():
        acc = phi.one()
        for letter in word:
            acc = acc * phi.image(letter)
        add_scaled(total, acc.terms, c)
    return TensorElement(phi.algebra)._like(total)


class HomReport(Record):
    _fields = ("window", "pairs_checked", "violations")

    def __init__(self, window: int, pairs_checked: int, violations: list[tuple[str, str]]):
        self.window = window
        self.pairs_checked = pairs_checked
        self.violations = violations

    @property
    def ok(self) -> bool:
        return not self.violations


def verify_hom(phi, window: int = 1) -> HomReport:
    """Check the bracket compatibility of the generator table.

    For every generator pair with indices in [-window, window], the
    commutator of the images must equal the image of the bracket.  The
    bracket is a linear combination of generators and the map is linear,
    so its image is the same combination of generator images, whose indices
    lie in [-2 window, 2 window].

    The check does no rational arithmetic per pair.  Every image of that
    doubled window is cleared once to integer numerators over one
    denominator ``den``, the lcm of all their coefficients' denominators,
    keyed by the ids of ``phi.algebra.brackets``.  For each pair the
    commutator of the two images is summed in Python ints by
    ``operators.integer_commutator``, over ``den**2``; then each bracket term
    ``c_g g`` is subtracted into that same dict as ``c_g den`` times the
    numerators of ``phi(g)``.  ``[phi(x), phi(y)] - sum_g c_g phi(g)`` is
    zero, and the pair passes, exactly when every value left is zero.

    The default window 1 settles every index pair in Z for the tables of
    this module.  Each image of ``x[n]`` is ``x0^n`` times an operator whose
    coefficients have degree at most 1 in n, and each of its terms has
    ``d/dx0``-order at most 1 (only ``L`` carries ``x0^(n+1) dx0``).  Moving
    ``x0^n`` past ``d/dx0`` adds one factor linear in n, and the integer
    structure constants of both target algebras do not depend on the index.
    So ``[phi(x_m), phi(y_n)] - phi([x_m, y_n])``, divided by ``x0^(m+n)``,
    has coefficients of degree at most 2 in m and in n, and three indices
    per variable decide whether it vanishes on Z (a polynomial of degree at
    most d in each variable that vanishes on d+1 points per variable is
    zero; Alon 1999, Combinatorial Nullstellensatz, Lemma 2.1).
    """
    if window < 1:
        raise ValueError("window must be at least 1")
    gens = generators_in_window(window)
    tables = phi.algebra.brackets
    images = {g: phi.image(g).terms for g in generators_in_window(2 * window)}
    den = math.lcm(*(c.denominator for terms in images.values() for c in terms.values()))
    nums = {g: {tables.id(k): c.numerator * (den // c.denominator) for k, c in terms.items()}
            for g, terms in images.items()}
    violations = []
    for i, x in enumerate(gens):
        for y in gens[i:]:
            out = integer_commutator(tables, nums[x], nums[y])
            get = out.get
            for g, c in bracket(x, y).terms.items():
                s = c * den
                for k, n in nums[g].items():
                    out[k] = get(k, 0) - s * n
            if any(out.values()):
                violations.append((str(x), str(y)))
    pairs = len(gens) * (len(gens) + 1) // 2
    return HomReport(window=window, pairs_checked=pairs, violations=violations)


class Witness(Record):
    """A named target operator together with preimage(s) under the map."""

    _fields = ("name", "pairs")

    def __init__(self, name: str, pairs: list[tuple[TensorElement, UEnvElement]]):
        self.name = name
        self.pairs = pairs

    def check(self, phi) -> bool:
        return all(phi.apply(pre) == target for target, pre in self.pairs)


def _word(*gens: Generator) -> UEnvElement:
    return UEnvElement.from_word(gens)


def _witnesses(phi, rows) -> list[Witness]:
    """``Witness`` records from rows (name, [(target key, preimage), ...]).

    Each target is one key of the table format of ``phi`` (``ab_table`` or
    ``abgg_table``), with coefficient 1.
    """
    return [Witness(name, [(TensorElement(phi.algebra, {key: ONE}), pre) for key, pre in pairs])
            for name, pairs in rows]


def image_witnesses(phi: PhiAB) -> list[Witness]:
    """The seven operators exhibited inside the image of the degree-2 map.

    The preimages of x1 (x) e, 1 (x) e and 1 (x) h carry normalizations
    induced by the -beta factor on the U(b)-part of the a-images.
    """
    binv = 1 / phi.beta
    c1, cm1, c0 = gen("c", 1), gen("c", -1), gen("c", 0)
    a0, a1, b0, d0, L0 = gen("a", 0), gen("a", 1), gen("b", 0), gen("d", 0), gen("L", 0)
    one, h, e, zero = (0, 0), (1, 0), (0, 1), (0, 0)
    x1e_pre = (_word(cm1, a1) - _word(c0, a0)).scaled(-binv * binv)
    return _witnesses(phi, [
        ("x0^{+1,-1} (x) 1", [((((1, 0), zero), one), _word(c1).scaled(-binv)),
                              ((((-1, 0), zero), one), _word(cm1).scaled(-binv))]),
        ("dx0 (x) 1", [(((zero, (1, 0)), one), _word(cm1, L0).scaled(-binv))]),
        ("x1 (x) e", [((((0, 1), zero), e), x1e_pre)]),
        ("x1^-1 (x) 1", [((((0, -1), zero), one), _word(b0))]),
        ("1 (x) e", [(((zero, zero), e), x1e_pre * _word(b0))]),
        ("1 (x) h", [(((zero, zero), h), _word(d0) - _word(b0, a0).scaled(binv))]),
        ("dx1 (x) 1", [(((zero, (0, 1)), one), _word(b0, d0))]),
    ])


def surjectivity_witnesses(phi: PhiABGG) -> list[Witness]:
    """Preimages of the four generators of the target tensor algebra."""
    binv = 1 / phi.beta
    a0 = gen("a", 0)
    one, zero = ((0,), (0,)), (0,)
    g_of_a0 = UEnvElement({(a0,) * k: c for k, c in enumerate(phi.g)})
    return _witnesses(phi, [
        ("x0^{+1,-1} (x) 1", [((((1,), zero), one), _word(gen("c", 1)).scaled(-binv)),
                              ((((-1,), zero), one), _word(gen("c", -1)).scaled(-binv))]),
        ("d0 (x) 1", [((((1,), (1,)), one), _word(gen("L", 0)))]),
        ("1 (x) t", [((one, ((1,), zero)), _word(a0))]),
        ("1 (x) dt", [((one, (zero, (1,))), (_word(gen("b", 0)) - g_of_a0).scaled(binv))]),
    ])


def check_all_witnesses(phi, witnesses: Sequence[Witness]) -> list[str]:
    """Names of witnesses that fail to round-trip (empty list means all pass)."""
    return [w.name for w in witnesses if not w.check(phi)]
