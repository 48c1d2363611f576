"""The two operator-algebra homomorphisms out of the enveloping algebra.

``PhiAB`` sends the algebra into (degree-2 Laurent Weyl algebra) (x) U(b);
``PhiABGG`` sends it onto (degree-1 Laurent Weyl algebra) (x) (polynomial
differential operators).  Both are defined on generators and extended to
PBW words multiplicatively; ``verify_hom`` re-checks that this respects
every bracket on a finite index window, and the witness lists exhibit
preimages of the standard generating operators, each replayable exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .exceptions import InvalidSpec
from .lie import FAMILIES, Generator, UEnvElement, bracket, gen
from .operators import DIFFOP, R0, R2, UB, OperatorElement, TensorElement, commutator
from .scalars import ONE, add_scaled, scalar


def _weyl(algebra, xexp, dexp, coef=ONE) -> OperatorElement:
    return OperatorElement.monomial(algebra, (tuple(xexp), tuple(dexp)), coef)


def _ub(i: int, j: int, coef=ONE) -> OperatorElement:
    return OperatorElement.monomial(UB, (i, j), coef)


@dataclass(frozen=True)
class PhiAB:
    """Generator table of the map into (Weyl degree 2) (x) U(b).

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

    alpha: Fraction
    beta: Fraction

    def __post_init__(self):
        object.__setattr__(self, "alpha", scalar(self.alpha))
        object.__setattr__(self, "beta", scalar(self.beta))
        if self.beta == 0:
            raise InvalidSpec("beta must be nonzero")

    @property
    def left_algebra(self):
        return R2

    @property
    def right_algebra(self):
        return UB

    def one(self) -> TensorElement:
        return TensorElement.one(R2, UB)

    def image(self, g: Generator) -> TensorElement:
        n = g.index
        ub1 = _ub(0, 0)
        if g.family == "L":
            left = _weyl(R2, (n + 1, 0), (1, 0)) + _weyl(R2, (n, 0), (0, 0), n * self.alpha)
            out = TensorElement.pure(left, ub1)
            if n:
                out = out + TensorElement.pure(_weyl(R2, (n, 0), (0, 0), n), _ub(1, 0))
            return out
        if g.family == "d":
            out = TensorElement.pure(_weyl(R2, (n, 1), (0, 1)), ub1)
            if n:
                out = out + TensorElement.pure(_weyl(R2, (n, 0), (0, 0), n), _ub(0, 1))
            return out
        if g.family == "a":
            out = TensorElement.pure(_weyl(R2, (n, 2), (0, 1), self.beta), ub1)
            out = out + TensorElement.pure(_weyl(R2, (n, 1), (0, 0), -self.beta), _ub(1, 0))
            if n:
                out = out + TensorElement.pure(_weyl(R2, (n, 1), (0, 0), self.beta * n), _ub(0, 1))
            return out
        if g.family == "b":
            return TensorElement.pure(_weyl(R2, (n, -1), (0, 0)), ub1)
        if g.family == "c":
            return TensorElement.pure(_weyl(R2, (n, 0), (0, 0), -self.beta), ub1)
        raise InvalidSpec(f"no image for generator family {g.family!r}")

    def apply(self, u: UEnvElement) -> TensorElement:
        return _apply(self, u)


@dataclass(frozen=True)
class CorruptedPhiAB(PhiAB):
    """Negative control: the image of d[n] is missing its n x0^n (x) e term."""

    def image(self, g: Generator) -> TensorElement:
        if g.family == "d":
            return TensorElement.pure(_weyl(R2, (g.index, 1), (0, 1)), _ub(0, 0))
        return super().image(g)


@dataclass(frozen=True)
class PhiABGG:
    """Generator table of the surjection onto (Weyl degree 1) (x) diff ops.

    ``g`` is the coefficient tuple of a polynomial in the differential
    variable, constant term first.
    """

    alpha: Fraction
    beta: Fraction
    gamma: Fraction
    g: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "alpha", scalar(self.alpha))
        object.__setattr__(self, "beta", scalar(self.beta))
        object.__setattr__(self, "gamma", scalar(self.gamma))
        object.__setattr__(self, "g", tuple(scalar(c) for c in self.g))
        if self.beta == 0:
            raise InvalidSpec("beta must be nonzero")

    @property
    def left_algebra(self):
        return R0

    @property
    def right_algebra(self):
        return DIFFOP

    def one(self) -> TensorElement:
        return TensorElement.one(R0, DIFFOP)

    def g_operator(self) -> OperatorElement:
        return OperatorElement(DIFFOP, {((k,), (0,)): c for k, c in enumerate(self.g) if c})

    def image(self, g: Generator) -> TensorElement:
        n = g.index
        one_d = OperatorElement.one(DIFFOP)
        if g.family == "L":
            left = _weyl(R0, (n + 1,), (1,)) + _weyl(R0, (n,), (0,), n * self.alpha)
            return TensorElement.pure(left, one_d)
        x0n = _weyl(R0, (n,), (0,))
        if g.family == "d":
            op = OperatorElement(
                DIFFOP,
                {((k + 1,), (0,)): c / self.beta for k, c in enumerate(self.g) if c},
            )
            op = op + OperatorElement(DIFFOP, {((0,), (0,)): self.gamma / self.beta})
            op = op + OperatorElement(DIFFOP, {((1,), (1,)): ONE})
            return TensorElement.pure(x0n, op)
        if g.family == "a":
            return TensorElement.pure(x0n, OperatorElement.monomial(DIFFOP, ((1,), (0,))))
        if g.family == "b":
            op = self.g_operator() + OperatorElement(DIFFOP, {((0,), (1,)): self.beta})
            return TensorElement.pure(x0n, op)
        if g.family == "c":
            return TensorElement.pure(_weyl(R0, (n,), (0,), -self.beta), one_d)
        raise InvalidSpec(f"no image for generator family {g.family!r}")

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


@dataclass
class HomReport:
    window: int
    pairs_checked: int
    violations: list[tuple[str, str]]

    @property
    def ok(self) -> bool:
        return not self.violations


def verify_hom(phi, window: int) -> HomReport:
    """Check the bracket compatibility of the generator table.

    For every generator pair with indices in [-window, window], the
    commutator of the images must equal the image of the bracket.  The
    bracket is a linear combination of generators and the map is linear,
    so its image is the same combination of generator images; images of
    bracket indices outside the window are added to the table on demand.
    """
    if window < 1:
        raise ValueError("window must be at least 1")
    gens = [gen(f, n) for f in FAMILIES for n in range(-window, window + 1)]
    images = {g: phi.image(g) for g in gens}
    zero = TensorElement(phi.left_algebra, phi.right_algebra)
    violations = []
    checked = 0
    for i, x in enumerate(gens):
        for y in gens[i:]:
            checked += 1
            lhs = commutator(images[x], images[y])
            rhs: dict = {}
            for g, c in bracket(x, y).terms.items():
                if g not in images:
                    images[g] = phi.image(g)
                add_scaled(rhs, images[g].terms, c)
            if lhs != zero._like(rhs):
                violations.append((str(x), str(y)))
    return HomReport(window=window, pairs_checked=checked, violations=violations)


@dataclass
class Witness:
    """A named target operator together with preimage(s) under the map."""

    name: str
    pairs: list[tuple[TensorElement, UEnvElement]]

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
