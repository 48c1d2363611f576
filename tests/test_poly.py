"""Sparse polynomial arithmetic: ring axioms, shift, derive, parsing."""

import itertools
import math
import random
from fractions import Fraction as F

import pytest
from conftest import FORMER_POLY_SPLIT, former_terms
from hypothesis import given, settings, strategies as st

from wittdiamond.axioms import random_vector
from wittdiamond.exceptions import UnsupportedVariable, VariableMismatch
from wittdiamond.fock import FModule, MFactor, OmegaFactor, OneDim, Whittaker
from wittdiamond.lie import generators_in_window
from wittdiamond.omega import OmegaModule, OmegaParams
from wittdiamond.poly import (
    PolyRing, SparsePoly, _shift_row, act_by_rules, monomials_within, parse_poly, vanishes
)
from wittdiamond.scalars import clear_denominators
from wittdiamond.tensor import TensorModule

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
    assert RING.var("t", 3).derive("t") == 3 * t * t
    assert (s * t).shift("s", 2) == s * t - 2 * t


RING3 = PolyRing(("x", "y", "z"), (False, False, True))


def shift_by_formula(p, i, off):
    """sum_j c binomial(k, j) (-off)^(k-j) on each term c x^e with e_i = k."""
    out = {}
    for e, c in p.terms.items():
        k = e[i]
        for j in range(k + 1):
            key = e[:i] + (j,) + e[i + 1 :]
            out[key] = out.get(key, 0) + c * math.comb(k, j) * F(-off) ** (k - j)
    return {key: c for key, c in out.items() if c}


def test_shift_matches_binomial_formula_on_seeded_grid():
    # y is polynomial and sits between x and a Laurent z; offsets are ints
    # of both signs, Fractions with denominator 1 and proper Fractions.
    rng = random.Random(47)
    offsets = [1, -1, 2, -3, 5, F(4), F(-6, 2), F(1, 2), F(-2, 3), F(7, 5)]
    for _ in range(30):
        terms = {}
        for _ in range(rng.randint(1, 6)):
            e = (rng.randint(0, 3), rng.randint(0, 5), rng.randint(-2, 2))
            terms[e] = F(rng.randint(-5, 5) or 1, rng.randint(1, 4))
        p = RING3.from_terms(terms.items())
        for off in offsets:
            assert p.shift("y", off).terms == shift_by_formula(p, 1, off), (p, off)
            assert p.shift("x", off).terms == shift_by_formula(p, 0, off), (p, off)
    # (y + 1)^2 under y -> y - 1 cancels down to y^2.
    q = RING3.from_terms([((0, 2, 0), F(1)), ((0, 1, 0), F(2)), ((0, 0, 0), F(1))])
    assert q.shift("y", 1) == RING3.var("y", 2)
    y2 = RING3.var("y") + 2
    assert q.shift("y", F(-1)) == y2 * y2


def test_shift_results_are_independent_of_each_other():
    p = RING3.from_terms([((1, 3, -1), F(2, 3)), ((0, 2, 0), F(-1))])
    before = dict(p.terms)
    first = p.shift("y", -2)
    expected = dict(first.terms)
    first.terms.clear()
    second = p.shift("y", -2)
    second.terms[(9, 9, 9)] = F(1)
    assert p.shift("y", -2).terms == expected == shift_by_formula(p, 1, -2)
    assert p.terms == before


def test_mul_var_returns_fresh_terms_and_keeps_negative_power_rejection():
    p = MIXED.from_terms([((-1, 2), F(2, 3)), ((1, 0), F(-1))])
    before = dict(p.terms)
    for name, power in (("x0", 0), ("h", 0), ("x0", -2), ("x0", 3), ("h", 1)):
        q = p.mul_var(name, power)
        assert q.terms is not p.terms
        q.terms[(9, 9)] = F(1)
        assert p.terms == before
    with pytest.raises(UnsupportedVariable):
        p.mul_var("h", -1)
    q = MIXED.from_terms([((-1, 2), F(2, 3))])
    assert q.mul_var("h", -2) == MIXED.from_terms([((-1, 0), F(2, 3))])
    assert q.mul_var("h", -2).terms is not q.terms


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


def test_parse_and_format_round_trip():
    for text in ["2 x0^2 x1^-1 - 1/3 x1 + 4", "x0", "-x1^-2", "0"]:
        p = parse_poly(LRING, text)
        assert parse_poly(LRING, str(p)) == p


def _seeded_poly_text(rng):
    """A sum of monomials of MIXED with negative exponents and rational
    coefficients, signs and spacing varied, as "2 x0^2 h^3 - 1/3 x0^-1 + 4".

    Each term has one sign, before its coefficient (the first term may have
    none): a second sign, as in "- -2 x0", is refused by ``parse_poly``."""
    pieces = []
    for i in range(rng.randint(1, 5)):
        factors = [f"{name}^{rng.randint(-4 if name == 'x0' else 0, 4)}"
                   if rng.random() < 0.7 else name
                   for name in rng.sample(["x0", "h"], rng.randint(0, 2))]
        coef = rng.choice(["", "3", "2", "1/3", "5/4", "0"])
        words = ([coef] if coef else []) + factors or ["1"]
        sign = rng.choice(["+", "-"]) if i else rng.choice(["", "-"])
        pieces.append(sign + rng.choice(["", " "]) + rng.choice([" ", "*"]).join(words))
    return rng.choice([" ", ""]).join(pieces)


def test_parse_poly_matches_the_former_splitter_on_seeded_texts():
    rng = random.Random(39)
    for _ in range(300):
        text = _seeded_poly_text(rng)
        want = MIXED.zero()
        for coef, words in former_terms(text, FORMER_POLY_SPLIT):
            powers = {}
            for word in words:
                name, _, e = word.partition("^")
                powers[name] = powers.get(name, 0) + int(e or 1)
            want = want + MIXED.monomial(powers, coef)
        assert parse_poly(MIXED, text) == want, text


def test_monomials_within_counts():
    assert len(list(monomials_within(RING, 2))) == 6
    assert len(list(monomials_within(LRING, 1))) == 5
    assert len(list(monomials_within(MIXED, 1))) == 4


# -- act_by_rules against the former kernel -----------------------------------


def _former_act_by_rules(f, rules, den):
    """The former ``act_by_rules``, kept as an oracle: every output key built by slicing.

    Its rules are (k, polys, ops), with one op (j, d, n) per variable:
    x_j^e_j -> (x_j - n)^(e_j + d).
    """
    nums, f_den = clear_denominators(f.terms)
    acc = {}
    for e, c in nums.items():
        for k, polys, ops in rules:
            k *= c
            for j, p in polys:
                x, v = e[j], 0
                for a in p:
                    v = v * x + a
                k *= v
            if k:
                part = [(e, k)]
                for j, d, n in ops:
                    row = _shift_row(e[j] + d, n) if n else ((e[j] + d, 1),)
                    part = [(y[:j] + (x,) + y[j + 1 :], a * b) for y, a in part for x, b in row]
                for y, a in part:
                    acc[y] = acc.get(y, 0) + a
    den *= f_den
    return f._like({y: F(a, den) for y, a in acc.items() if a})


def _former_rule(k, polys, raises, shifts):
    """A rule's raises (j, d) and shifts (j, n) as the former ops (j, d, n)."""
    ops = {j: [d, 0] for j, d in raises}
    for j, n in shifts:
        ops.setdefault(j, [0, 0])[1] = n
    return k, polys, tuple((j, d, n) for j, (d, n) in ops.items())


def _agrees_with_former_kernel(f, rules, den):
    got = act_by_rules(f, rules, den)
    assert got.terms == _former_act_by_rules(f, [_former_rule(*r) for r in rules], den).terms
    assert all(got.terms.values())


def test_act_by_rules_matches_the_former_kernel_on_every_rule_kind():
    """Omega (a shift and a raise), merged T(m=3) rules, F on M x M with C_eps (raises
    only, on Laurent exponents of both signs) and F on Omega x M with the Whittaker V
    (two shifts in one rule), on random vectors and the 25 window-2 generators."""
    factors = [OmegaParams(F(1, 2), F(3), F(-1), F(2), (F(1), F(0), F(-2))),
               OmegaParams(F(1), F(-2, 3), F(1), F(-1, 2), (F(2),)),
               OmegaParams(F(-1), F(2), F(2, 3), F(3), (F(0), F(1)))]
    modules = [OmegaModule(factors[0]), TensorModule(factors),
               FModule(F(1, 2), F(-3), MFactor(F(1, 3)), MFactor(F(-1, 2)), OneDim(F(2))),
               FModule(F(2), F(1, 3), OmegaFactor(F(-2)), MFactor(F(1, 2)), Whittaker())]
    rng = random.Random(34)
    shift_counts = set()
    for module in modules:
        vectors = [random_vector(module.ring, rng, max_total_degree=3, terms=5) for _ in range(3)]
        for g in generators_in_window(2):
            module.act(g, module.one())
            rules, den = module.act_rules[g]
            shift_counts.update(len(shifts) for *_, shifts in rules)
            for v in vectors:
                _agrees_with_former_kernel(v, rules, den)
    assert shift_counts == {0, 1, 2}


def test_act_by_rules_skips_a_vanishing_polynomial_and_drops_cancelled_keys():
    ring = PolyRing(("x", "y"), (True, False))
    v = ring.from_terms([((2, 1), F(3, 2)), ((-1, 0), F(-1))])
    # (x - 2) vanishes on x^2 y and (x + 1) on x^-1; the second and third rules
    # cancel on x^4 y, and the third and fourth, which shifts y, on x.
    rules = [(4, ((0, (1, -2)),), ((1, 1),), ()),
             (2, ((0, (1, 1)),), ((0, 2),), ()),
             (-6, (), ((0, 2),), ()),
             (2, (), ((0, -1),), ((1, 2),))]
    got = act_by_rules(v, rules, 5)
    _agrees_with_former_kernel(v, rules, 5)
    assert got == ring.from_terms([((-1, 1), F(12, 5)), ((1, 1), F(3, 5)), ((-2, 0), F(-2, 5))])
    assert (4, 1) not in got.terms and (1, 0) not in got.terms


def test_act_by_rules_raises_before_it_shifts_in_a_two_shift_rule():
    # One rule: times y z^2 / 4, then y -> y - 1 and z -> z + 3, each on the raised exponent.
    ring = PolyRing(("x", "y", "z"), (True, False, False))
    v = ring.from_terms([((1, 1, 2), F(3, 2)), ((0, 2, 0), F(-1, 2))])
    rules = [(1, (), ((1, 1), (2, 2)), ((1, 1), (2, -3)))]
    _agrees_with_former_kernel(v, rules, 4)
    want = (v * ring.monomial({"y": 1, "z": 2}) * F(1, 4)).shift("y", 1).shift("z", -3)
    assert act_by_rules(v, rules, 4) == want


def _value(p, point):
    return sum(c * math.prod(x**e for x, e in zip(point, exps)) for exps, c in p.terms.items())


def test_vanishes_is_none_on_zero_and_finds_the_one_grid_point_off_the_zeros():
    ring = PolyRing(("l", "m"), (False, False))
    l, m = ring.var("l"), ring.var("m")
    assert vanishes(ring.zero()) is None
    assert vanishes(l * (m - 1) - (m * l - l)) is None
    # Degree 2 in l and 1 in m: zero on {0, 1, 2} x {0, 1} except at (2, 0).
    p = l * (l - 1) * (m - 1)
    assert [x for x in itertools.product(range(3), range(2)) if _value(p, x)] == [(2, 0)]
    assert vanishes(p) == (2, 0) and _value(p, (2, 0)) == -2
    assert vanishes(ring.const(F(-1, 3))) == (0, 0)


def test_vanishes_finds_a_nonzero_point_inside_the_degree_grid():
    rng = random.Random(51)
    ring = PolyRing(("l", "m", "n"), (False, False, False))
    for _ in range(200):
        # Products of linear factors vanish on much of the grid.
        p = ring.const(rng.choice([1, -2, F(1, 3)]))
        for _ in range(rng.randint(0, 4)):
            p = p * (ring.var(rng.choice("lmn")) - rng.randint(0, 3))
        point = vanishes(p)
        degrees = [p.var_degree(name) for name in ring.names]
        assert all(0 <= x <= d for x, d in zip(point, degrees)), (p, point)
        assert _value(p, point) != 0, (p, point)
        assert vanishes(p - p) is None
