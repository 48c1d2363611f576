"""Normal-ordered operator algebras and their faithful-action oracles."""

import random
from fractions import Fraction as F

import pytest

from wittdiamond.exceptions import AlgebraMismatch
from wittdiamond.operators import (
    DIFFOP,
    R0,
    R2,
    UB,
    OperatorElement,
    TensorElement,
    commutator,
)
from wittdiamond.poly import PolyRing, SparsePoly


def weyl(alg, xexp, dexp, coef=1):
    return OperatorElement.monomial(alg, (tuple(xexp), tuple(dexp)), F(coef))


def ub(i, j, coef=1):
    return OperatorElement.monomial(UB, (i, j), F(coef))


def test_weyl_euler_relation():
    # (x0 d/dx0) x0^n = x0^n (x0 d/dx0) + n x0^n for all integer n
    euler = weyl(R2, (1, 0), (1, 0))
    for n in (-3, -1, 0, 2, 5):
        xn = weyl(R2, (n, 0), (0, 0))
        assert commutator(euler, xn) == weyl(R2, (n, 0), (0, 0), n)


def test_weyl_canonical_commutation():
    dx0 = weyl(R2, (0, 0), (1, 0))
    x0 = weyl(R2, (1, 0), (0, 0))
    assert dx0 * x0 == x0 * dx0 + OperatorElement.one(R2)


def test_weyl_inverse_cancellation():
    # x1^-1 (x1 d/dx1) = d/dx1 once reordered
    x1inv = weyl(R2, (0, -1), (0, 0))
    euler1 = weyl(R2, (0, 1), (0, 1))
    assert x1inv * euler1 == weyl(R2, (0, 0), (0, 1))


def test_diffop_relations():
    tdt = weyl(DIFFOP, (1,), (1,))
    t2 = weyl(DIFFOP, (2,), (0,))
    dt = weyl(DIFFOP, (0,), (1,))
    t = weyl(DIFFOP, (1,), (0,))
    assert commutator(tdt, t2) == weyl(DIFFOP, (2,), (0,), 2)
    assert commutator(tdt, dt) == -dt
    assert commutator(dt, t) == OperatorElement.one(DIFFOP)


def test_ub_relations():
    h, e = ub(1, 0), ub(0, 1)
    assert e * h == ub(1, 1) - e
    assert h * e == ub(1, 1)
    assert e * (h * h) == ub(2, 1) - ub(1, 1, 2) + e
    assert commutator(h, e) == e


def test_associativity_random_monomials():
    rng = random.Random(2)
    for _ in range(30):
        ms = [
            weyl(
                R2,
                (rng.randint(-2, 2), rng.randint(-2, 2)),
                (rng.randint(0, 2), rng.randint(0, 2)),
                rng.randint(1, 3),
            )
            for _ in range(3)
        ]
        assert (ms[0] * ms[1]) * ms[2] == ms[0] * (ms[1] * ms[2])
    for _ in range(30):
        us = [ub(rng.randint(0, 3), rng.randint(0, 3), rng.randint(-2, 2) or 1) for _ in range(3)]
        assert (us[0] * us[1]) * us[2] == us[0] * (us[1] * us[2])


def test_weyl_mul_agrees_with_action_on_laurent_polynomials():
    rng = random.Random(6)
    ring = R2.poly_ring()
    for _ in range(20):
        u = weyl(R2, (rng.randint(-2, 2), rng.randint(-2, 2)), (rng.randint(0, 2), rng.randint(0, 2)), rng.randint(-3, 3) or 1)
        v = weyl(R2, (rng.randint(-2, 2), rng.randint(-2, 2)), (rng.randint(0, 2), rng.randint(0, 2)), rng.randint(-3, 3) or 1)
        p = SparsePoly(
            ring,
            {
                (rng.randint(-3, 3), rng.randint(-3, 3)): F(rng.randint(-3, 3) or 1)
                for _ in range(3)
            },
        )
        assert (u * v).act(p) == u.act(v.act(p))


def test_ub_mul_agrees_with_whittaker_action():
    rng = random.Random(7)
    hring = PolyRing(("h",), (False,))
    for _ in range(25):
        u = ub(rng.randint(0, 3), rng.randint(0, 3), rng.randint(-3, 3) or 1)
        v = ub(rng.randint(0, 3), rng.randint(0, 3), rng.randint(-3, 3) or 1)
        p = SparsePoly(hring, {(rng.randint(0, 3),): F(rng.randint(-3, 3) or 1)})
        assert (u * v).act(p) == u.act(v.act(p))


def test_tensor_product_componentwise():
    x0 = TensorElement.pure(weyl(R2, (1, 0), (0, 0)), ub(0, 0))
    e = TensorElement.pure(OperatorElement.one(R2), ub(0, 1))
    assert x0 * e == TensorElement.pure(weyl(R2, (1, 0), (0, 0)), ub(0, 1))


def test_tensor_commutator_example():
    # [x0^n d1 (x) 1, x0^m x1 (x) h] = x0^(n+m) x1 (x) h
    n, m = 2, -1
    lhs = commutator(
        TensorElement.pure(weyl(R2, (n, 1), (0, 1)), ub(0, 0)),
        TensorElement.pure(weyl(R2, (m, 1), (0, 0)), ub(1, 0)),
    )
    assert lhs == TensorElement.pure(weyl(R2, (n + m, 1), (0, 0)), ub(1, 0))


def test_commutator_self_is_zero():
    u = TensorElement.pure(weyl(R2, (1, 2), (1, 0), 3), ub(1, 1))
    assert commutator(u, u).is_zero


def test_algebra_mismatch():
    with pytest.raises(AlgebraMismatch):
        weyl(R2, (0, 0), (0, 0)) * weyl(R0, (0,), (0,))
    with pytest.raises(AlgebraMismatch):
        TensorElement.pure(weyl(R2, (0, 0), (0, 0)), ub(0, 0)) + TensorElement.pure(
            weyl(R0, (0,), (0,)), ub(0, 0)
        )


def test_operator_text_format():
    assert str(weyl(R2, (2, -1), (1, 0))) == "x0^2 x1^-1 dx0"
    assert str(weyl(DIFFOP, (1,), (2,))) == "t dt^2"
    assert str(ub(2, 1)) == "h^2 e"
    elem = TensorElement.pure(weyl(R2, (0, 1), (0, 0)), ub(0, 1))
    assert str(elem) == "(x1)(x)(e)"
