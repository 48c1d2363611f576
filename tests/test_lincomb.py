"""The shared linear-combination core: add_scaled, LinComb and the integer helpers."""

from fractions import Fraction as F

import pytest

from wittdiamond.exceptions import AlgebraMismatch, VariableMismatch
from wittdiamond.lie import LElement, UEnvElement, gen
from wittdiamond.omega import RANK1_RING, ShiftDiffOp
from wittdiamond.operators import DIFFOP, R0, UB, OperatorElement, TensorElement, tensor_algebra
from wittdiamond.poly import PolyRing
from wittdiamond.scalars import add_scaled, clear_denominators, integer_combination

R0_UB = tensor_algebra(R0, UB)


def test_clear_denominators_round_trips_coprime_denominators():
    terms = {"x": F(1, 2), "y": F(1, 3), "z": F(-5, 6), "w": F(4)}
    nums, den = clear_denominators(terms)
    assert (nums, den) == ({"x": 3, "y": 2, "z": -5, "w": 24}, 6)
    assert all(type(n) is int for n in nums.values())
    assert {k: F(n, den) for k, n in nums.items()} == terms
    assert clear_denominators({}) == ({}, 1)


def test_integer_combination_cancels_only_over_the_common_denominator():
    # 1/2 + 1/3 - 5/6 = 0, but the numerators 1 + 1 - 5 alone do not cancel.
    parts = [(1, 2, {"x": 1}), (1, 3, {"x": 1}), (-5, 6, {"x": 1})]
    assert integer_combination(parts) == ({}, 6)
    # (3/2) * (2 x + y) / 3 - y / 2 = x.
    assert integer_combination([(3, 6, {"x": 2, "y": 1}), (-1, 2, {"y": 1})]) == ({"x": 6}, 6)


def test_add_scaled_drops_zeros_in_place():
    out = {"x": F(1), "y": F(2)}
    assert add_scaled(out, {"x": F(-1), "z": F(3)}) is out
    assert out == {"y": F(2), "z": F(3)}
    add_scaled(out, {"y": F(1), "w": F(1, 2)}, F(-2))
    assert out == {"z": F(3), "w": F(-1)}
    add_scaled(out, {"z": F(7)}, 0)
    assert out == {"z": F(3), "w": F(-1)}
    add_scaled(out, {"z": F(3), "w": F(1), "v": F(2)}, -1)
    assert out == {"w": F(-2), "v": F(-2)}


def test_add_scaled_without_factor_stores_the_given_objects():
    c = F(5, 7)
    out = add_scaled({}, {"x": c})
    assert out["x"] is c


def _samples():
    ring = PolyRing(("s", "t"), (False, False))
    a0, b0 = gen("a", 0), gen("b", 0)
    return [
        (ring.from_terms([((1, 0), 2), ((0, 2), F(-1, 3))]),
         ring.from_terms([((1, 0), -2), ((0, 0), 5)])),
        (LElement({a0: F(1), b0: F(2)}), LElement({a0: F(-1), gen("c", 1): F(1)})),
        (UEnvElement({(a0, b0): F(3), (): F(1)}), UEnvElement({(a0, b0): F(-3)})),
        (OperatorElement(DIFFOP, {((1,), (0,)): F(1), ((0,), (1,)): F(2)}),
         OperatorElement(DIFFOP, {((1,), (0,)): F(4)})),
        (TensorElement(R0_UB, {(((1,), (0,)), (0, 1)): F(1)}),
         TensorElement(R0_UB, {(((1,), (0,)), (0, 1)): F(-1), (((0,), (0,)), (1, 0)): F(2)})),
        (ShiftDiffOp({(1, 0): RANK1_RING.var("L0"), (0, 1): RANK1_RING.one()}),
         ShiftDiffOp({(1, 0): -RANK1_RING.var("L0")})),
    ]


@pytest.mark.parametrize("u, v", _samples(), ids=lambda x: type(x).__name__)
def test_linear_structure(u, v):
    assert u - v == u + (-v)
    assert u + v - v == u
    assert (u - u).is_zero and not (u - u) and u
    assert u.scaled(F(3, 2)) == u + u.scaled(F(1, 2))
    assert u.scaled(0).is_zero and u.scaled(1) == u
    assert all(c for c in (u + v).terms.values())
    assert u + v == v + u
    if not isinstance(u, ShiftDiffOp):
        assert str(u - u) == "0"


def test_operands_of_another_class_or_space_are_rejected():
    ring = PolyRing(("s", "t"), (False, False))
    p = ring.one()
    with pytest.raises(VariableMismatch):
        p + PolyRing(("x",), (True,)).one()
    with pytest.raises(AlgebraMismatch):
        OperatorElement.one(R0) - OperatorElement.one(DIFFOP)
    with pytest.raises(AlgebraMismatch):
        TensorElement.one(R0_UB) + TensorElement.one(tensor_algebra(R0, DIFFOP))
    with pytest.raises(TypeError):
        OperatorElement.one(R0) + 1
    with pytest.raises(TypeError):
        1 - LElement({gen("a", 0): F(1)})
    assert LElement() != UEnvElement()
    assert OperatorElement.one(R0) != OperatorElement.one(DIFFOP)


def test_polynomials_take_scalars():
    ring = PolyRing(("s", "t"), (False, False))
    s = ring.var("s")
    assert s + 1 == 1 + s == ring.from_terms([((1, 0), 1), ((0, 0), 1)])
    assert 1 - s == -(s - 1)
    assert ring.const(3) == 3 and ring.zero() == 0
