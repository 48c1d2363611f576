"""The two operator-algebra homomorphisms out of the enveloping algebra.

``PhiAB`` sends the algebra into (degree-2 Laurent Weyl algebra) (x) U(b);
``PhiABGG`` sends it onto (degree-1 Laurent Weyl algebra) (x) (polynomial
differential operators).  Both are defined on generators, by the tables
``ab_table`` and ``abgg_table``, and extended to PBW words
multiplicatively; ``verify_hom`` checks that the tables respect every
bracket, on an index window that a degree bound proves complete, and the
witness lists exhibit preimages of the standard generating operators, each
replayable exactly.  The module actions of ``fock`` and ``omega`` are
pullbacks of the same two tables.
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
    OperatorElement,
    TensorElement,
    bracket_tables,
    integer_commutator,
    key_id,
)
from .scalars import ONE, Frozen, Record, add_scaled, clear_denominators, scalar


def _weyl(algebra, xexp, dexp) -> OperatorElement:
    return OperatorElement.monomial(algebra, (tuple(xexp), tuple(dexp)))


def _ub(i: int, j: int) -> OperatorElement:
    return OperatorElement.monomial(UB, (i, j))


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

    def __init__(self, alpha: Fraction, beta: Fraction):
        alpha, beta = scalar(alpha), scalar(beta)
        if beta == 0:
            raise InvalidSpec("beta must be nonzero")
        self._set(alpha=alpha, beta=beta)

    @property
    def left_algebra(self):
        return R2

    @property
    def right_algebra(self):
        return UB

    def one(self) -> TensorElement:
        return TensorElement.one(R2, UB)

    def image(self, g: Generator) -> TensorElement:
        return TensorElement(R2, UB, ab_table(g.family, g.index, self.alpha, self.beta))

    def apply(self, u: UEnvElement) -> TensorElement:
        return _apply(self, u)


class CorruptedPhiAB(PhiAB):
    """Negative control: the image of d[n] is missing its n x0^n (x) e term."""

    def image(self, g: Generator) -> TensorElement:
        if g.family == "d":
            return TensorElement(R2, UB, {(((g.index, 1), (0, 1)), (0, 0)): ONE})
        return super().image(g)


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

    def __init__(self, alpha: Fraction, beta: Fraction, gamma: Fraction, g: tuple[Fraction, ...]):
        alpha, beta, gamma = scalar(alpha), scalar(beta), scalar(gamma)
        g = tuple(scalar(c) for c in g)
        if beta == 0:
            raise InvalidSpec("beta must be nonzero")
        self._set(alpha=alpha, beta=beta, gamma=gamma, g=g)

    @property
    def left_algebra(self):
        return R0

    @property
    def right_algebra(self):
        return DIFFOP

    def one(self) -> TensorElement:
        return TensorElement.one(R0, DIFFOP)

    def image(self, g: Generator) -> TensorElement:
        return TensorElement(R0, DIFFOP, abgg_table(g.family, g.index, self.alpha, self.beta,
                                                     self.gamma, self.g))

    def apply(self, u: UEnvElement) -> TensorElement:
        return _apply(self, u)

    def g_of_a0(self) -> UEnvElement:
        """The polynomial g evaluated at a[0] inside the enveloping algebra."""
        return UEnvElement({(gen("a", 0),) * k: c for k, c in enumerate(self.g)})


def _apply(phi, u: UEnvElement) -> TensorElement:
    total: dict = {}
    for word, c in u.terms.items():
        acc = phi.one()
        for letter in word:
            acc = acc * phi.image(letter)
        add_scaled(total, acc.terms, c)
    return TensorElement(phi.left_algebra, phi.right_algebra)._like(total)


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
    so its image is the same combination of generator images; images of
    bracket indices outside the window are added to the table on demand.

    The check does no rational arithmetic per pair.  Each image is cleared
    once to integer numerators over one denominator
    (``scalars.clear_denominators``), keyed by the int ids of
    ``operators.key_id``, and the ``operators.bracket_tables`` of the two
    target algebras are fetched once per call.  For each pair the commutator
    of the two images is summed in Python ints by
    ``operators.integer_commutator``, over the product ``den`` of their
    denominators; then each bracket term ``c_g g`` is subtracted into that
    same dict, over ``lcm(den, c_g.denominator * den_g)`` (the dict is
    rescaled only when the lcm exceeds ``den``).  ``[phi(x), phi(y)] -
    sum_g c_g phi(g)`` is zero, and the pair passes, exactly when every
    value left is zero.

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
    tables = bracket_tables(phi.left_algebra, phi.right_algebra)

    def cleared(g):
        return clear_denominators({key_id(k): c for k, c in phi.image(g).terms.items()})

    images = {g: cleared(g) for g in gens}
    violations = []
    checked = 0
    for i, x in enumerate(gens):
        x_nums, x_den = images[x]
        for y in gens[i:]:
            checked += 1
            y_nums, y_den = images[y]
            out = integer_commutator(tables, x_nums, y_nums)
            den = x_den * y_den
            for g, c in bracket(x, y).terms.items():
                image = images.get(g)
                if image is None:
                    image = images[g] = cleared(g)
                g_nums, g_den = image
                g_den *= c.denominator
                common = math.lcm(den, g_den)
                if common != den:
                    up = common // den
                    for k in out:
                        out[k] *= up
                    den = common
                s = c.numerator * (common // g_den)
                get = out.get
                for k, n in g_nums.items():
                    out[k] = get(k, 0) - s * n
            if any(out.values()):
                violations.append((str(x), str(y)))
    return HomReport(window=window, pairs_checked=checked, violations=violations)


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


def image_witnesses(phi: PhiAB) -> list[Witness]:
    """The seven operators exhibited inside the image of the degree-2 map.

    The preimages of x1 (x) e, 1 (x) e and 1 (x) h carry normalizations
    induced by the -beta factor on the U(b)-part of the a-images.
    """
    binv = 1 / phi.beta
    c1, cm1, c0 = gen("c", 1), gen("c", -1), gen("c", 0)
    a0, a1, b0, d0, L0 = gen("a", 0), gen("a", 1), gen("b", 0), gen("d", 0), gen("L", 0)
    ub1 = _ub(0, 0)
    x1e_pre = (_word(cm1, a1) - _word(c0, a0)).scaled(-binv * binv)
    return [
        Witness(
            "x0^{+1,-1} (x) 1",
            [
                (TensorElement.pure(_weyl(R2, (1, 0), (0, 0)), ub1), _word(c1).scaled(-binv)),
                (TensorElement.pure(_weyl(R2, (-1, 0), (0, 0)), ub1), _word(cm1).scaled(-binv)),
            ],
        ),
        Witness(
            "dx0 (x) 1",
            [(TensorElement.pure(_weyl(R2, (0, 0), (1, 0)), ub1), _word(cm1, L0).scaled(-binv))],
        ),
        Witness(
            "x1 (x) e",
            [(TensorElement.pure(_weyl(R2, (0, 1), (0, 0)), _ub(0, 1)), x1e_pre)],
        ),
        Witness(
            "x1^-1 (x) 1",
            [(TensorElement.pure(_weyl(R2, (0, -1), (0, 0)), ub1), _word(b0))],
        ),
        Witness(
            "1 (x) e",
            [(TensorElement.pure(_weyl(R2, (0, 0), (0, 0)), _ub(0, 1)), x1e_pre * _word(b0))],
        ),
        Witness(
            "1 (x) h",
            [
                (
                    TensorElement.pure(_weyl(R2, (0, 0), (0, 0)), _ub(1, 0)),
                    _word(d0) - _word(b0, a0).scaled(binv),
                )
            ],
        ),
        Witness(
            "dx1 (x) 1",
            [(TensorElement.pure(_weyl(R2, (0, 0), (0, 1)), ub1), _word(b0, d0))],
        ),
    ]


def surjectivity_witnesses(phi: PhiABGG) -> list[Witness]:
    """Preimages of the four generators of the target tensor algebra."""
    binv = 1 / phi.beta
    one_d = OperatorElement.one(DIFFOP)
    return [
        Witness(
            "x0^{+1,-1} (x) 1",
            [
                (
                    TensorElement.pure(_weyl(R0, (1,), (0,)), one_d),
                    _word(gen("c", 1)).scaled(-binv),
                ),
                (
                    TensorElement.pure(_weyl(R0, (-1,), (0,)), one_d),
                    _word(gen("c", -1)).scaled(-binv),
                ),
            ],
        ),
        Witness(
            "d0 (x) 1",
            [(TensorElement.pure(_weyl(R0, (1,), (1,)), one_d), _word(gen("L", 0)))],
        ),
        Witness(
            "1 (x) t",
            [
                (
                    TensorElement.pure(
                        OperatorElement.one(R0), OperatorElement.monomial(DIFFOP, ((1,), (0,)))
                    ),
                    _word(gen("a", 0)),
                )
            ],
        ),
        Witness(
            "1 (x) dt",
            [
                (
                    TensorElement.pure(
                        OperatorElement.one(R0), OperatorElement.monomial(DIFFOP, ((0,), (1,)))
                    ),
                    (_word(gen("b", 0)) - phi.g_of_a0()).scaled(binv),
                )
            ],
        ),
    ]


def check_all_witnesses(phi, witnesses: Sequence[Witness]) -> list[str]:
    """Names of witnesses that fail to round-trip (empty list means all pass)."""
    return [w.name for w in witnesses if not w.check(phi)]
