"""Sparse polynomial arithmetic: ring axioms, shift, derive, parsing."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from wittdiamond.exceptions import UnsupportedVariable, VariableMismatch
from wittdiamond.poly import PolyRing, SparsePoly, monomials_within, parse_poly

RING = PolyRing(("s", "t"), (False, False))
LRING = PolyRing(("x0", "x1"), (True, True))
MIXED = PolyRing(("x0", "h"), (True, False))


def poly_strategy(ring, max_exp=3, max_terms=4):
    lo = -max_exp if ring.laurent[0] else 0
    exp = st.tuples(
        *(
            st.integers(min_value=(-max_exp if flag else 0), max_value=max_exp)
            for flag in ring.laurent
        )
    )
    coef = st.fractions(
        min_value=-4, max_value=4, max_denominator=3
    ).filter(lambda c: c != 0)
    return st.dictionaries(exp, coef, max_size=max_terms).map(
        lambda d: ring.from_terms(d.items())
    )


@settings(max_examples=60, deadline=None)
@given(poly_strategy(MIXED), poly_strategy(MIXED), poly_strategy(MIXED))
def test_ring_axioms(p, q, r):
    assert (p + q) + r == p + (q + r)
    assert p + q == q + p
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert p * MIXED.one() == p
    assert (p - p).is_zero


@settings(max_examples=40, deadline=None)
@given(poly_strategy(RING), st.fractions(min_value=-3, max_value=3, max_denominator=2))
def test_shift_round_trip(p, offset):
    assert p.shift("s", offset).shift("s", -offset) == p


def test_add_examples():
    s, t = RING.var("s"), RING.var("t")
    assert (s + t) + (-s) == t
    assert s * s * 2 + s * s * 3 == RING.monomial({"s": 2}, 5)
    xinv = LRING.var("x0", -1)
    assert xinv + xinv == LRING.monomial({"x0": -1}, 2)


def test_shift_examples():
    s, t = RING.var("s"), RING.var("t")
    assert (s * s).shift("s", 1) == s * s - 2 * s + RING.one()
    assert (t ** 3).derive("t") == 3 * t * t
    assert (s * t).shift("s", 2) == s * t - 2 * t


def test_laurent_restrictions():
    p = LRING.var("x0")
    with pytest.raises(UnsupportedVariable):
        p.shift("x0", 1)
    assert LRING.var("x0", -2).derive("x0") == LRING.var("x0", -3) * -2
    with pytest.raises(UnsupportedVariable):
        SparsePoly(RING, {(-1, 0): F(1)})


def test_signature_mismatch():
    with pytest.raises(VariableMismatch):
        RING.one() + LRING.one()


def test_degree_is_lexicographic():
    p = RING.from_terms([((1, 5), F(1)), ((2, 0), F(1))])
    assert p.degree() == (2, 0)
    assert RING.zero().degree() is None
    assert p.var_degree("t") == 5
    assert p.total_degree() == 6


def test_extract_var_power():
    p = RING.from_terms([((2, 1), F(3)), ((2, 0), F(1)), ((1, 4), F(5))])
    top = p.extract_var_power("s", 2)
    assert top == RING.from_terms([((0, 1), F(3)), ((0, 0), F(1))])


def test_parse_and_format_round_trip():
    for text in ["2 x0^2 x1^-1 - 1/3 x1 + 4", "x0", "-x1^-2", "0"]:
        p = parse_poly(LRING, text)
        assert parse_poly(LRING, str(p)) == p


def test_monomials_within_counts():
    assert len(list(monomials_within(RING, 2))) == 6
    assert len(list(monomials_within(LRING, 1))) == 5
    assert len(list(monomials_within(MIXED, 1))) == 4
