"""Normal-ordered operator algebras and their faithful-action oracles."""

import itertools
import math
import random
from fractions import Fraction as F

import pytest
from conftest import pure

from wittdiamond.exceptions import AlgebraMismatch
from wittdiamond.fock import FModule, MFactor, OmegaFactor, OneDim, Whittaker
from wittdiamond.homomorphisms import PhiAB, PhiABGG, verify_hom
from wittdiamond.lie import FAMILIES, generators_in_window
from wittdiamond.omega import OmegaModule, OmegaParams
from wittdiamond.operators import (
    DIFFOP,
    R0,
    R2,
    UB,
    OperatorElement,
    TensorElement,
    commutator,
    pullback_rules,
    scalar_factor,
    shift_factor,
    tensor_algebra,
    ub_product,
    weight_factor,
    weyl_product,
    whittaker_factor,
)
from wittdiamond.poly import PolyRing, act_by_rules
from wittdiamond.scalars import clear_denominators
from wittdiamond.tensor import TensorModule


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


def _parts(key) -> tuple:
    """The parts (a, b) of a monomial key, one per coordinate: x^a dx^b for each Weyl
    coordinate, h^a e^b for U(b), and a tensor key's left parts before its right ones."""
    left, right = key
    if type(left) is int:
        return (key,)
    if type(left[0]) is int:
        return tuple(zip(left, right))
    return _parts(left) + _parts(right)


def _act(factors, u, p):
    """u p, one factor action per part of u's monomials."""
    terms = [(_parts(key), c) for key, c in u.terms.items()]
    return act_by_rules(p, *pullback_rules([(terms, factors)]))


def _random_vector(ring, rng):
    return ring.from_terms(
        (tuple(rng.randint(-3, 3) if laurent else rng.randint(0, 3) for laurent in ring.laurent),
         F(rng.randint(-3, 3) or 1, rng.randint(1, 3)))
        for _ in range(3))


def test_weyl_mul_agrees_with_action_on_laurent_polynomials():
    # act(u v) = act(u) o act(v) for R2 on M(w0) (x) M(w1) (Laurent, w != 0), on
    # Omega(l0) (x) M(w1) and on Omega(l0) (x) Omega(l1); the products reach dx^4.
    rng = random.Random(6)
    kinds = {
        "M": lambda j: (weight_factor(j, F(rng.randint(1, 5), rng.randint(2, 3))), True),
        "Omega": lambda j: (shift_factor(j, F(rng.choice([-3, -1, 2, 5]), rng.randint(1, 2))),
                            False),
    }
    for kind0, kind1 in (("M", "M"), ("Omega", "M"), ("Omega", "Omega")):
        (f0, flag0), (f1, flag1) = kinds[kind0](0), kinds[kind1](1)
        ring = PolyRing(("y0", "y1"), (flag0, flag1))
        for _ in range(12):
            u, v = [weyl(R2, (rng.randint(-2, 2), rng.randint(-2, 2)),
                         (rng.randint(0, 2), rng.randint(0, 2)), rng.randint(-3, 3) or 1)
                    for _ in range(2)]
            p = _random_vector(ring, rng)
            assert _act((f0, f1), u * v, p) == _act((f0, f1), u, _act((f0, f1), v, p)), (
                kind0, kind1, u, v)


def test_diffop_mul_agrees_with_action_on_c_t():
    rng = random.Random(8)
    ring = PolyRing(("t",), (False,))
    factors = (weight_factor(0, 0),)
    for _ in range(25):
        u, v = [weyl(DIFFOP, (rng.randint(0, 3),), (rng.randint(0, 3),), rng.randint(-3, 3) or 1)
                for _ in range(2)]
        p = _random_vector(ring, rng)
        assert _act(factors, u * v, p) == _act(factors, u, _act(factors, v, p)), (u, v, p)


def test_ub_mul_agrees_with_whittaker_action():
    # On C[h] (h multiplies, e shifts h -> h - 1) and on C_eps (h = eps, e = 0).
    rng = random.Random(7)
    for factor, ring in ((whittaker_factor(0), PolyRing(("h",), (False,))),
                         (scalar_factor(F(-5, 3)), PolyRing((), ())),
                         (scalar_factor(F(0)), PolyRing((), ()))):
        for _ in range(25):
            u = ub(rng.randint(0, 3), rng.randint(0, 3), rng.randint(-3, 3) or 1)
            v = ub(rng.randint(0, 3), rng.randint(0, 3), rng.randint(-3, 3) or 1)
            p = _random_vector(ring, rng)
            assert _act((factor,), u * v, p) == _act((factor,), u, _act((factor,), v, p)), (u, v, p)


def test_tensor_product_componentwise():
    x0 = pure(weyl(R2, (1, 0), (0, 0)), ub(0, 0))
    e = pure(OperatorElement.one(R2), ub(0, 1))
    assert x0 * e == pure(weyl(R2, (1, 0), (0, 0)), ub(0, 1))


def test_tensor_commutator_example():
    # [x0^n d1 (x) 1, x0^m x1 (x) h] = x0^(n+m) x1 (x) h
    n, m = 2, -1
    lhs = commutator(
        pure(weyl(R2, (n, 1), (0, 1)), ub(0, 0)),
        pure(weyl(R2, (m, 1), (0, 0)), ub(1, 0)),
    )
    assert lhs == pure(weyl(R2, (n + m, 1), (0, 0)), ub(1, 0))


def test_commutator_self_is_zero():
    u = pure(weyl(R2, (1, 2), (1, 0), 3), ub(1, 1))
    assert commutator(u, u).is_zero


def test_algebra_mismatch():
    with pytest.raises(AlgebraMismatch):
        weyl(R2, (0, 0), (0, 0)) * weyl(R0, (0,), (0,))
    with pytest.raises(AlgebraMismatch):
        pure(weyl(R2, (0, 0), (0, 0)), ub(0, 0)) + pure(
            weyl(R0, (0,), (0,)), ub(0, 0)
        )
    a = pure(weyl(R2, (1, -1), (1, 0)), ub(1, 1))
    b = pure(weyl(R0, (-2,), (1,)), weyl(DIFFOP, (1,), (1,)))
    zeros = (TensorElement(tensor_algebra(R2, UB)), TensorElement(tensor_algebra(R0, DIFFOP)))
    for u, v in ((a, b), (b, a), zeros, (a, weyl(R2, (0, 0), (0, 0)))):
        with pytest.raises(AlgebraMismatch):
            commutator(u, v)


def test_operator_text_format():
    assert str(weyl(R2, (2, -1), (1, 0))) == "x0^2 x1^-1 dx0"
    assert str(weyl(DIFFOP, (1,), (2,))) == "t dt^2"
    assert str(ub(2, 1)) == "h^2 e"
    elem = pure(weyl(R2, (0, 1), (0, 0)), ub(0, 1))
    assert str(elem) == "(x1)(x)(e)"


def _fraction_weyl_product(k1, k2):
    """The product formula evaluated in Fractions, term by term."""
    (a, b), (c, e) = k1, k2
    out = {}
    for k in itertools.product(*(range(bi + 1) for bi in b)):
        coef = F(1)
        for bi, ci, ki in zip(b, c, k):
            falling = F(1)
            for i in range(ki):
                falling *= F(ci) - i
            coef *= math.comb(bi, ki) * falling
        if coef:
            key = (
                tuple(ai + ci - ki for ai, ci, ki in zip(a, c, k)),
                tuple(bi + ei - ki for bi, ei, ki in zip(b, e, k)),
            )
            out[key] = out.get(key, F(0)) + coef
    return {key: v for key, v in out.items() if v}


def _fraction_ub_product(k1, k2):
    (i1, j1), (i2, j2) = k1, k2
    out = {}
    for r in range(i2 + 1):
        coef = F(math.comb(i2, r)) * F(-j1) ** (i2 - r)
        if coef:
            out[(i1 + r, j1 + j2)] = coef
    return out


def _random_weyl_key(rng, algebra):
    low = -3 if algebra.laurent[0] else 0
    n = len(algebra.names)
    return (tuple(rng.randint(low, 3) for _ in range(n)),
            tuple(rng.randint(0, 3) for _ in range(n)))


def _check_table(table, reference, pairs):
    for k1, k2 in pairs:
        entry = table(k1, k2)
        assert isinstance(entry, tuple)
        assert all(type(c) is int and c for _, c in entry)
        assert len({key for key, _ in entry}) == len(entry)
        assert dict(entry) == reference(k1, k2), (k1, k2)


def test_integer_tables_match_fraction_formula():
    rng = random.Random(11)
    for algebra in (R2, R0, DIFFOP):
        pairs = [(_random_weyl_key(rng, algebra), _random_weyl_key(rng, algebra))
                 for _ in range(150)]
        if algebra.laurent[0]:
            # Negative exponents on the right factor reach the Laurent falling factorials.
            assert any(min(k2[0]) < 0 and max(k1[1]) > 0 for k1, k2 in pairs)
        _check_table(algebra.mul_keys, _fraction_weyl_product, pairs)
    ub_pairs = [((i1, j1), (i2, j2))
                for i1, j1, i2, j2 in itertools.product(range(3), range(4), range(4), range(2))]
    assert any(k1[1] > 0 and k2[0] > 0 for k1, k2 in ub_pairs)
    _check_table(UB.mul_keys, _fraction_ub_product, ub_pairs)


def _random_tensor(rng):
    out = TensorElement(tensor_algebra(R2, UB))
    for _ in range(4):
        left = OperatorElement.monomial(R2, _random_weyl_key(rng, R2),
                                        F(rng.randint(-5, 5) or 1, rng.randint(1, 4)))
        out = out + pure(left, ub(rng.randint(0, 2), rng.randint(0, 2)))
    return out


def test_repeated_products_agree_and_leave_tables_unchanged():
    rng = random.Random(12)
    u, v = _random_tensor(rng), _random_tensor(rng)
    x = weyl(R2, (-2, 1), (2, 1), F(3, 2)) + weyl(R2, (0, -1), (1, 1), F(1, 3))
    y = weyl(R2, (-1, 3), (1, 0), F(-2, 5)) + weyl(R2, (2, -2), (0, 2), 7)
    weyl_pairs = [(l1, l2) for l1, _ in u.terms for l2, _ in v.terms]
    weyl_pairs += [(k1, k2) for k1 in x.terms for k2 in y.terms]
    ub_pairs = [(r1, r2) for _, r1 in u.terms for _, r2 in v.terms]

    def tables():
        return [weyl_product(*p) for p in weyl_pairs], [ub_product(*p) for p in ub_pairs]

    for left, right in ((u, v), (x, y)):
        first = left * right
        before = tables()
        first_terms = dict(first.terms)
        first.terms.clear()  # a caller mutating its product must not reach the tables
        assert (left * right).terms == first_terms
        assert tables() == before


class _Perturbed:
    """A generator table whose images of one family carry an extra 1 (x) 1 (same index degrees)."""

    def __init__(self, phi, family):
        self.phi, self.family, self.algebra, self.table = phi, family, phi.algebra, phi.table

    def image(self, g):
        out = self.phi.image(g)
        return out + self.phi.one() if g.family == self.family else out


@pytest.mark.parametrize("phi", [
    PhiAB(F(1, 2), F(3)),
    PhiABGG(F(1, 2), F(3), F(2), (F(1), F(0), F(1))),
], ids=["ab", "abgg"])
@pytest.mark.usefixtures("verify_hom_reads_images")
def test_verify_hom_flags_each_perturbed_family(phi, reference_violations):
    # The default window is the grid of the verify-hom subcommand.
    report = verify_hom(phi)
    assert report.ok and report.window == 1
    assert verify_hom(phi, 2).violations == reference_violations(phi, 2) == []
    for family in FAMILIES:
        perturbed = _Perturbed(phi, family)
        report = verify_hom(perturbed)
        assert not report.ok, family
        named = {name.split("[")[0] for pair in report.violations for name in pair}
        assert family in named, (family, report.violations)
        assert verify_hom(perturbed, 2).violations == reference_violations(perturbed, 2), family


def _seeded_tensor(rng, left, right):
    """A tensor element with rational coefficients; Laurent sides get negative exponents."""
    out = {}
    for _ in range(5):
        kl = _random_weyl_key(rng, left)
        kr = (rng.randint(0, 2), rng.randint(0, 2)) if right is UB else _random_weyl_key(rng, right)
        out[(kl, kr)] = F(rng.randint(-5, 5) or 1, rng.randint(1, 4))
    return TensorElement(tensor_algebra(left, right), out)


def _reference_tensor_product(u, v):
    """uv summed pair of pure tensors by pair, from the products of the two side tables:
    a reference for the one product loop of ``OperatorElement``."""
    out = {}
    left_mul, right_mul = u.algebra.left.mul_keys, u.algebra.right.mul_keys
    for (l1, r1), c1 in u.terms.items():
        for (l2, r2), c2 in v.terms.items():
            for kl, cl in left_mul(l1, l2):
                for kr, cr in right_mul(r1, r2):
                    out[kl, kr] = out.get((kl, kr), 0) + c1 * c2 * cl * cr
    return out


@pytest.mark.parametrize("left, right", [(R2, UB), (R0, DIFFOP)], ids=["R2xUB", "R0xDIFFOP"])
def test_tensor_product_agrees_with_the_side_by_side_reference(left, right):
    algebra = tensor_algebra(left, right)
    assert algebra.brackets.algebra is algebra
    assert algebra.one_key == (left.one_key, right.one_key)
    rng = random.Random(16)
    pairs = [(_seeded_tensor(rng, left, right), _seeded_tensor(rng, left, right))
             for _ in range(40)]
    # A derivation on the left meets a negative Laurent power on the right.
    assert any(max(lu[1]) > 0 and min(lv[0]) < 0 for u, v in pairs
               for lu, _ in u.terms for lv, _ in v.terms)
    for u, v in pairs:
        uv = u * v
        assert type(uv) is TensorElement and uv.algebra is algebra
        assert uv == TensorElement(algebra, _reference_tensor_product(u, v)), (u, v)
        assert all(c for c in uv.terms.values())
        assert u * TensorElement.one(algebra) == u == TensorElement.one(algebra) * u


def _id_numerators(tables, element):
    """``clear_denominators`` of a tensor element's terms, keyed by ``tables.id``."""
    return clear_denominators({tables.id(k): c for k, c in element.terms.items()})


def _by_key(tables, id_nums):
    """Numerators keyed by ids, mapped back to their keys through ``tables.keys``."""
    return {tables.keys[i]: n for i, n in id_nums.items()}


def _summed_tables(tables, u_nums, v_nums):
    """``sum n1 n2 tables[i1, i2]`` over two numerator dicts keyed by ids: the commutator
    over the product of the two denominators, with cancelled terms left as zeros."""
    out = {}
    for i1, n1 in u_nums.items():
        for i2, n2 in v_nums.items():
            for i, n in tables[i1, i2]:
                out[i] = out.get(i, 0) + n1 * n2 * n
    return out


def _nonzero(id_nums):
    """The nonzero values of a ``_summed_tables`` result, which keeps cancelled zeros."""
    return {i: n for i, n in id_nums.items() if n}


@pytest.mark.parametrize("left, right", [(R2, UB), (R0, DIFFOP)], ids=["R2xUB", "R0xDIFFOP"])
def test_tensor_commutator_equals_uv_minus_vu(left, right):
    tables = tensor_algebra(left, right).brackets

    def bracket_nums(a, b):
        return _nonzero(_summed_tables(tables, _id_numerators(tables, a)[0],
                                       _id_numerators(tables, b)[0]))

    rng = random.Random(14)
    pairs = [(_seeded_tensor(rng, left, right), _seeded_tensor(rng, left, right))
             for _ in range(40)]
    assert any(min(kl[0]) < 0 for u, _ in pairs for kl, _ in u.terms)
    assert tensor_algebra(left, right).brackets is tables
    assert (tables.algebra.left, tables.algebra.right) == (left, right)
    for u, v in pairs:
        (u_nums, u_den), (v_nums, v_den) = _id_numerators(tables, u), _id_numerators(tables, v)
        pair_tables = [tables[i1, i2] for i1 in u_nums for i2 in v_nums]
        assert all(type(n) is int and n for table in pair_tables for _, n in table)
        # Each table is kept in the row of its first id, under its second.
        assert all(tables.rows[i1][i2] is tables[i1, i2] for i1 in u_nums for i2 in v_nums)
        raw = _summed_tables(tables, u_nums, v_nums)
        assert all(type(i) is int and tables.id(tables.keys[i]) == i for i in raw)
        assert all(type(n) is int for n in raw.values())
        got = _nonzero(raw)
        want = u * v - v * u
        # The summed numerators over the product of the denominators are uv - vu.
        assert TensorElement(tables.algebra, {
            k: F(n, u_den * v_den) for k, n in _by_key(tables, got).items()
        }) == want
        assert commutator(u, v) == want
        assert bracket_nums(u, u) == {}
        assert bracket_nums(u, u.scaled(F(-3, 2))) == {}
        assert bracket_nums(v, u) == {i: -n for i, n in got.items()}


@pytest.mark.parametrize("left, right", [(R2, UB), (R0, DIFFOP)], ids=["R2xUB", "R0xDIFFOP"])
def test_commuting_monomials_have_empty_bracket_tables(left, right):
    rng = random.Random(15)
    one_right = right.one_key
    n = len(left.names)
    algebra = tensor_algebra(left, right)
    tables = algebra.brackets

    def coordinates():
        # Coordinate powers alone commute, negative exponents included.
        return TensorElement(algebra, {
            ((tuple(rng.randint(-3, 3) for _ in range(n)), (0,) * n), one_right):
                F(rng.randint(-5, 5) or 1, rng.randint(1, 4))
            for _ in range(4)
        })

    for _ in range(20):
        u, v = coordinates(), coordinates()
        u_nums, v_nums = _id_numerators(tables, u)[0], _id_numerators(tables, v)[0]
        assert all(tables[i1, i2] == () for i1 in u_nums for i2 in v_nums)
        assert commutator(u, v).terms == {}
        assert _summed_tables(tables, u_nums, v_nums) == {}


def test_compiled_rules_name_each_variable_once():
    """``act_by_rules`` raises exponents in place, so each compiled rule names a variable at
    most once among its raises and once among its shifts: every F kind, Omega and T(m=3)."""
    pairs = [(MFactor(F(1, 3)), MFactor(F(-1, 2))), (OmegaFactor(F(2)), OmegaFactor(F(-1, 3))),
             (OmegaFactor(F(-2)), MFactor(F(1, 2)))]
    modules = [FModule(F(1, 2), F(-3), p0, p1, v) for p0, p1 in pairs
               for v in (OneDim(F(2)), OneDim(F(0)), Whittaker())]
    factors = [OmegaParams(F(1, 2), F(3), F(-1), F(2), (F(1), F(0), F(-2))),
               OmegaParams(F(1), F(-2, 3), F(1), F(-1, 2), (F(2),)),
               OmegaParams(F(-1), F(2), F(2, 3), F(3), (F(0), F(1)))]
    modules += [OmegaModule(factors[0]), TensorModule(factors)]
    for module in modules:
        variables = set()
        for g in generators_in_window(2):
            module.act(g, module.one())
            for _, _, raises, shifts in module.act_rules[g][0]:
                for ops in (raises, shifts):
                    names = [j for j, _ in ops]
                    assert len(names) == len(set(names)), (module.ring.names, g, ops)
                    variables.update(names)
        assert variables == set(range(module.ring.nvars)), module.ring.names
