"""The two operator-algebra homomorphisms: tables, brackets, witnesses."""

import json
import os
import random
import subprocess
import sys
from fractions import Fraction as F
from types import SimpleNamespace

import pytest
from conftest import pure, sample_vectors
from oracles import ab_table, abgg_table

from wittdiamond import homomorphisms
from wittdiamond.axioms import module_axiom_check
from wittdiamond.exceptions import InvalidGenerator
from wittdiamond.fock import FModule, MFactor, Whittaker
from wittdiamond.homomorphisms import (
    CorruptedPhiAB,
    PhiAB,
    PhiABGG,
    ab_terms,
    abgg_terms,
    check_all_witnesses,
    evaluate,
    image_witnesses,
    index_degree,
    surjectivity_witnesses,
    verify_hom,
)
from wittdiamond.lie import FAMILIES, UEnvElement, gen, generators_in_window, uenv_mul
from wittdiamond.omega import OmegaModule, OmegaParams
from wittdiamond.operators import (
    DIFFOP,
    R0,
    R2,
    UB,
    BracketTables,
    OperatorElement,
    TensorElement,
)
from wittdiamond.scalars import clear_denominators


def weyl2(xexp, dexp, coef=1):
    return OperatorElement.monomial(R2, (tuple(xexp), tuple(dexp)), F(coef))


def test_phi_ab_generator_images():
    phi = PhiAB(F(1, 2), F(3))
    # c_n -> -beta x0^n (x) 1
    assert phi.image(gen("c", 4)) == pure(
        weyl2((4, 0), (0, 0), -3), OperatorElement.one(UB)
    )
    # L_0 -> Euler operator on x0, no index-linear term
    assert phi.image(gen("L", 0)) == pure(
        weyl2((1, 0), (1, 0)), OperatorElement.one(UB)
    )
    # b_n -> x0^n x1^-1 (x) 1
    assert phi.image(gen("b", -2)) == pure(
        weyl2((-2, -1), (0, 0)), OperatorElement.one(UB)
    )


# Three (alpha, beta) points, alpha = 0 among them, and g of degree 0 to 3 with a zero
# coefficient inside, for the maps' tables against the literal ones of ``oracles``.
TABLE_POINTS = ((F(1, 2), F(3)), (F(0), F(-5, 2)), (F(-7, 3), F(1, 4)))
TABLE_GS = ((F(2),), (F(-1, 3), F(1)), (F(1), F(0), F(5, 2)), (F(0), F(2, 7), F(0), F(-3)))


def _same_table(got, want):
    """Equal items in the same order, zeros kept, every coefficient a Fraction."""
    return list(got.items()) == list(want.items()) and all(type(c) is F for c in got.values())


@pytest.mark.parametrize("alpha, beta", TABLE_POINTS)
def test_the_ab_data_reads_as_the_literal_table(alpha, beta):
    phi, table = PhiAB(alpha, beta), ab_terms(alpha, beta)
    for family in FAMILIES:
        for n in range(-4, 5):
            want = ab_table(family, n, alpha, beta)
            assert _same_table(evaluate(table, family, n), want), (family, n)
            assert phi.image(gen(family, n)) == TensorElement(phi.algebra, want), (family, n)


@pytest.mark.parametrize("alpha, beta", TABLE_POINTS)
@pytest.mark.parametrize("gamma", [F(0), F(-4, 3)])
@pytest.mark.parametrize("g", TABLE_GS, ids=lambda g: f"deg{len(g) - 1}")
def test_the_abgg_data_reads_as_the_literal_table(alpha, beta, gamma, g):
    phi, table = PhiABGG(alpha, beta, gamma, g), abgg_terms(alpha, beta, gamma, g)
    for family in FAMILIES:
        for n in range(-4, 5):
            want = abgg_table(family, n, alpha, beta, gamma, g)
            assert _same_table(evaluate(table, family, n), want), (family, n)
            assert phi.image(gen(family, n)) == TensorElement(phi.algebra, want), (family, n)


def test_an_unknown_family_is_refused_by_the_evaluator_as_by_the_literal_tables():
    for read in (lambda: evaluate(ab_terms(F(1), F(2)), "z", 1),
                 lambda: ab_table("z", 1, F(1), F(2)),
                 lambda: evaluate(abgg_terms(F(1), F(2), F(0), ()), "z", 1),
                 lambda: abgg_table("z", 1, F(1), F(2), F(0), ())):
        with pytest.raises(InvalidGenerator):
            read()


def test_the_reader_gives_each_family_its_degree_and_verify_hom_its_window():
    # ab: L by n alpha and n h (and x0^(n+1) dx0), d and a by n e; abgg: L alone.
    ab, abgg = PhiAB(F(1, 2), F(3)), PhiABGG(F(1, 2), F(3), F(1), (F(1), F(2)))
    assert {f: index_degree(terms) for f, terms in ab.table.items()} == {
        "L": 1, "d": 1, "a": 1, "b": 0, "c": 0}
    assert {f: index_degree(terms) for f, terms in abgg.table.items()} == {
        "L": 1, "d": 0, "a": 0, "b": 0, "c": 0}
    # Coefficient degree 1 and d/dx0-order 1: D = 2, settled by the window {-1, 0, 1}.
    for phi in (ab, abgg, CorruptedPhiAB(F(1, 2), F(3))):
        report = verify_hom(phi)
        assert (report.window, report.max_index_degree, report.pairs_checked) == (1, 2, 120)
        assert (verify_hom(phi, 3).window, verify_hom(phi, 3).max_index_degree) == (3, 2)


def _weyl(algebra, xexp, dexp, coef=1):
    return OperatorElement.monomial(algebra, (tuple(xexp), tuple(dexp)), F(coef))


def _ub(i, j, coef=1):
    return OperatorElement.monomial(UB, (i, j), F(coef))


def operator_image(phi, g):
    """The generator image built by operator arithmetic from the class docstrings' tables.

    Sums of ``OperatorElement`` monomials and ``pure`` tensors; no code
    of ``image`` is reused.
    """
    n, f = g.index, g.family
    if isinstance(phi, PhiABGG):
        x0n, one_d = _weyl(R0, (n,), (0,)), OperatorElement.one(DIFFOP)
        t, dt = _weyl(DIFFOP, (1,), (0,)), _weyl(DIFFOP, (0,), (1,))
        g_t = OperatorElement(DIFFOP)
        for k, c in enumerate(phi.g):
            g_t = g_t + _weyl(DIFFOP, (k,), (0,), c)
        if f == "L":
            left = _weyl(R0, (n + 1,), (1,)) + _weyl(R0, (n,), (0,), n * phi.alpha)
            return pure(left, one_d)
        if f == "d":
            right = (t * g_t + one_d.scaled(phi.gamma)).scaled(1 / phi.beta) + t * dt
            return pure(x0n, right)
        if f == "a":
            return pure(x0n, t)
        if f == "b":
            return pure(x0n, g_t + dt.scaled(phi.beta))
        return pure(_weyl(R0, (n,), (0,), -phi.beta), one_d)
    ub1, h, e = _ub(0, 0), _ub(1, 0), _ub(0, 1)
    if f == "L":
        left = _weyl(R2, (n + 1, 0), (1, 0)) + _weyl(R2, (n, 0), (0, 0), n * phi.alpha)
        return pure(left, ub1) + pure(_weyl(R2, (n, 0), (0, 0), n), h)
    if f == "d":
        out = pure(_weyl(R2, (n, 1), (0, 1)), ub1)
        if isinstance(phi, CorruptedPhiAB):
            return out
        return out + pure(_weyl(R2, (n, 0), (0, 0), n), e)
    if f == "a":
        x0n_x1 = _weyl(R2, (n, 1), (0, 0), phi.beta)
        return (pure(_weyl(R2, (n, 2), (0, 1), phi.beta), ub1)
                - pure(x0n_x1, h - e.scaled(n)))
    if f == "b":
        return pure(_weyl(R2, (n, -1), (0, 0)), ub1)
    return pure(_weyl(R2, (n, 0), (0, 0), -phi.beta), ub1)


@pytest.mark.parametrize("phi", [
    PhiAB(F(1, 2), F(3)),
    PhiAB(F(0), F(-5, 3)),
    CorruptedPhiAB(F(1, 2), F(3)),
    # An inner zero in g and gamma 0, whose terms the literal table must drop.
    PhiABGG(F(1, 2), F(3), F(0), (F(1), F(0), F(2, 3))),
    PhiABGG(F(-2, 3), F(-3, 5), F(2, 7), (F(1, 11), F(0), F(1, 7))),
], ids=["ab", "ab-alpha0", "corrupted", "abgg-zeros", "abgg-coprime"])
def test_literal_images_agree_with_operator_arithmetic(phi):
    for family in FAMILIES:
        for n in range(-6, 7):
            got, want = phi.image(gen(family, n)), operator_image(phi, gen(family, n))
            assert got.terms == want.terms, (family, n)
            assert got.algebra == want.algebra
            assert all(type(c) is F and c for c in got.terms.values()), (family, n)


def test_corrupted_image_lacks_exactly_the_e_term_of_d():
    for alpha, beta in ((F(1, 2), F(3)), (F(0), F(-5, 3))):
        good, bad = PhiAB(alpha, beta), CorruptedPhiAB(alpha, beta)
        for g in generators_in_window(2):
            want = dict(good.image(g).terms)
            if g.family == "d":
                # n x0^n (x) e, which the image drops as a zero at n = 0.
                assert want.pop((((g.index, 0), (0, 0)), (0, 1)), 0) == g.index, g
            assert bad.image(g).terms == want, g


def test_phi_ab_is_homomorphism_random_tuples():
    rng = random.Random(1)
    for _ in range(5):
        alpha = F(rng.randint(-6, 6), rng.randint(1, 4))
        beta = F(rng.randint(1, 6), rng.randint(1, 4)) * rng.choice([1, -1])
        report = verify_hom(PhiAB(alpha, beta), 3)
        assert report.ok, (alpha, beta, report.violations[:3])


def test_phi_abgg_is_homomorphism_random_tuples():
    rng = random.Random(2)
    for _ in range(5):
        alpha = F(rng.randint(-6, 6), rng.randint(1, 4))
        beta = F(rng.randint(1, 6), rng.randint(1, 4)) * rng.choice([1, -1])
        gamma = F(rng.randint(-4, 4), rng.randint(1, 3))
        g = tuple(F(rng.randint(-2, 2)) for _ in range(rng.randint(1, 4)))
        report = verify_hom(PhiABGG(alpha, beta, gamma, g), 3)
        assert report.ok, (alpha, beta, gamma, g, report.violations[:3])


def test_corrupted_map_fails_at_d_a_pair(reference_violations):
    phi = CorruptedPhiAB(F(1, 2), F(3))
    report = verify_hom(phi, 1)
    assert not report.ok
    assert ("a[0]", "d[1]") in report.violations
    assert verify_hom(phi, 2).violations == reference_violations(phi, 2)


# The maps of one algebra pair each, R2 (x) U(b) and R0 (x) DIFFOP, and the
# control, by class name and parameters; the abgg map has coprime denominators.
ORDER_MAPS = [
    ("PhiAB", ["1/2", "3"]),
    ("PhiABGG", ["1/2", "-3/5", "2/7", ["1/11", "0", "1/7"]]),
    ("CorruptedPhiAB", ["1/2", "3"]),
]

_ORDER_SCRIPT = """
import json, sys
from wittdiamond import homomorphisms
maps = json.loads(sys.argv[1])
runs = [homomorphisms.verify_hom(getattr(homomorphisms, name)(*params), 2).violations
        for name, params in maps + maps[::-1]]
ab, abgg = homomorphisms.PhiAB.algebra.brackets, homomorphisms.PhiABGG.algebra.brackets
round_trip = all(t.id(k) == i for t in (ab, abgg) for i, k in enumerate(t.keys))
print(json.dumps({"runs": runs, "sizes": [len(ab.keys), len(abgg.keys)],
                  "round_trip": round_trip, "shared": len(set(ab.keys) & set(abgg.keys))}))
"""


@pytest.mark.parametrize("order", [ORDER_MAPS, ORDER_MAPS[::-1]], ids=["forward", "reversed"])
def test_key_ids_do_not_leak_between_algebra_pairs(order, reference_violations):
    # One fresh process starts from empty id tables and checks the maps in one
    # order and then in the other, so each map meets tables that the others filled.
    # Each algebra gives ids to its own keys alone.
    src = os.path.dirname(os.path.dirname(homomorphisms.__file__))
    proc = subprocess.run([sys.executable, "-c", _ORDER_SCRIPT, json.dumps(order)],
                          env={**os.environ, "PYTHONPATH": src}, stdout=subprocess.PIPE,
                          text=True, timeout=120)
    assert proc.returncode == 0
    got = json.loads(proc.stdout)
    assert got["round_trip"] and all(got["sizes"]) and got["shared"] == 0
    want = []
    for name, params in order + order[::-1]:
        phi = getattr(homomorphisms, name)(*params)
        want.append([list(pair) for pair in reference_violations(phi, 2)])
    assert got["runs"] == want
    assert any(want)  # the control fails, so the comparison is not of empty lists alone


# PhiAB, the control and PhiABGG with g of degree 0 to 3, over both algebra pairs.
ROW_MAPS = [PhiAB(F(1, 2), F(3)), CorruptedPhiAB(F(-2, 3), F(5, 4))] + [
    PhiABGG(F(1, 3), F(-3, 5), F(2, 7), tuple(F(k + 1, k + 2) for k in range(degree + 1)))
    for degree in range(4)]


def _misfiled(tables):
    """The (i1, i2) of each stored table that is not [keys[i1], keys[i2]], that is
    ``mul_keys(k1, k2) - mul_keys(k2, k1)`` with zeros dropped, as (id, int) pairs."""
    mul_keys, keys = tables.algebra.mul_keys, tables.keys
    bad = []
    for i1, row in enumerate(tables.rows):
        for i2, table in row.items():
            want = dict(mul_keys(keys[i1], keys[i2]))
            for key, n in mul_keys(keys[i2], keys[i1]):
                want[key] = want.get(key, 0) - n
            got = {keys[i]: n for i, n in table}
            if len(got) != len(table) or got != {k: n for k, n in want.items() if n}:
                bad.append((i1, i2))
    return bad


class _SwappedFill(BracketTables):
    """A planted fill that files the table of [keys[i1], keys[i2]] in row i2, under i1."""

    __slots__ = ()

    def __getitem__(self, ids):
        i1, i2 = ids
        table = super().__getitem__(ids)
        del self.rows[i1][i2]
        self.rows[i2][i1] = table
        return table


class _OwnTables:
    """``phi`` read through ``tables`` in place of its algebra's ``brackets``."""

    def __init__(self, phi, tables):
        self.image, self.table = phi.image, phi.table
        self.algebra = SimpleNamespace(brackets=tables)


def test_every_stored_bracket_table_is_filed_under_its_pair_of_ids():
    for phi in ROW_MAPS:
        assert verify_hom(phi, 2).ok is not isinstance(phi, CorruptedPhiAB)
    for tables in (PhiAB.algebra.brackets, PhiABGG.algebra.brackets):
        assert len(tables.rows) == len(tables.keys)
        stored = [table for row in tables.rows for table in row.values()]
        # Both commuting and non-commuting pairs were met.
        assert () in stored and any(stored)
        assert _misfiled(tables) == []
    # A fresh set of tables through the same route reads the same; a swapped fill fails.
    phi = ROW_MAPS[1]
    fresh, planted = BracketTables(phi.algebra), _SwappedFill(phi.algebra)
    assert verify_hom(_OwnTables(phi, fresh), 2) == verify_hom(phi, 2)
    assert _misfiled(fresh) == []
    verify_hom(_OwnTables(phi, planted), 2)
    assert _misfiled(planted)


def test_window_3_verdicts_on_rows_that_other_maps_filled(reference_violations):
    # The benchmark's window, after other maps of both algebra pairs have filled the rows.
    for phi in (PhiAB(F(2, 3), F(-5, 2)), PhiABGG(F(1, 2), F(3), F(-1), (F(1), F(2, 3)))):
        assert verify_hom(phi, 3).ok
    corrupted = CorruptedPhiAB(F(-3, 4), F(5, 3))
    abgg = PhiABGG(F(-1, 3), F(4, 3), F(1, 2), (F(1, 2), F(0), F(-3), F(2, 5)))
    reports = [verify_hom(phi, 3) for phi in (corrupted, abgg)]
    for phi, report in zip((corrupted, abgg), reports):
        assert report.pairs_checked == 630
        assert report.violations == reference_violations(phi, 3)
    violations = reports[0].violations
    assert len(violations) == 42
    assert all(x[0] == "a" and y[0] == "d" for x, y in violations)


class _Scaled:
    """A generator table whose image of one generator is divided by p (same index degrees)."""

    def __init__(self, phi, target, p):
        self.phi, self.target, self.p, self.algebra = phi, target, p, phi.algebra
        self.table = phi.table

    def image(self, g):
        out = self.phi.image(g)
        return out.scaled(F(1, self.p)) if g == self.target else out


# beta = -3/5, gamma = 2/7, g = 1/7 t^2 + 1/11: pairwise coprime denominators.
COPRIME_ABGG = PhiABGG(F(1, 2), F(-3, 5), F(2, 7), (F(1, 11), F(0), F(1, 7)))


@pytest.mark.parametrize("phi", [PhiAB(F(1, 2), F(3)), COPRIME_ABGG], ids=["ab", "abgg"])
def test_an_image_scaled_by_1_over_p_is_caught(phi, reference_violations):
    assert verify_hom(phi, 2).violations == reference_violations(phi, 2) == []
    for family in FAMILIES:
        target = gen(family, 1)
        scaled = _Scaled(phi, target, 13)
        # Only the denominator of the cleared image moves, so a check that
        # dropped a denominator would pass this table.
        before, after = clear_denominators(phi.image(target).terms), clear_denominators(
            scaled.image(target).terms)
        assert after == (before[0], 13 * before[1]), family
        violations = verify_hom(scaled, 2).violations
        assert violations and violations == reference_violations(scaled, 2), family


class _PlantedC2(PhiAB):
    """PhiAB with 1 (x) 1 added to the image of c[2] alone."""

    def image(self, g):
        out = super().image(g)
        return out + self.one() if g == gen("c", 2) else out


def test_the_bracket_side_reads_the_images_of_the_doubled_window(reference_violations):
    # At window 1, c[2] lies outside the generator pairs and is read only as the
    # bracket [L[1], c[1]] = [a[1], b[1]] = c[2].
    phi = _PlantedC2(F(1, 2), F(3))
    assert verify_hom(phi, 1).violations == [("L[1]", "c[1]"), ("a[1]", "b[1]")]
    # At window 2, the pairs whose bracket has a c[2] term: [L[m], c[n]] = n c[m+n].
    want = [("L[0]", "c[2]"), ("L[1]", "c[1]"), ("a[0]", "b[2]"), ("a[1]", "b[1]"),
            ("a[2]", "b[0]")]
    assert verify_hom(phi, 2).violations == want == reference_violations(phi, 2)


def test_image_witnesses_round_trip():
    for alpha, beta in [(F(1, 2), F(3)), (F(0), F(1)), (F(-2), F(-5, 3))]:
        phi = PhiAB(alpha, beta)
        witnesses = image_witnesses(phi)
        assert len(witnesses) == 7
        assert check_all_witnesses(phi, witnesses) == []


def test_surjectivity_witnesses_round_trip():
    for g in [(F(1),), (F(1), F(0), F(1)), (F(0), F(2))]:
        phi = PhiABGG(F(1, 3), F(2), F(-1), g)
        witnesses = surjectivity_witnesses(phi)
        assert len(witnesses) == 4
        assert check_all_witnesses(phi, witnesses) == []


def test_specific_witness_targets():
    phi = PhiABGG(F(1), F(3), F(2), (F(1), F(1)))
    wit = {w.name: w for w in surjectivity_witnesses(phi)}
    d0_target, d0_pre = wit["d0 (x) 1"].pairs[0]
    assert d0_pre == UEnvElement.from_word([gen("L", 0)])
    assert d0_target == pure(
        OperatorElement.monomial(R0, ((1,), (1,))), OperatorElement.one(DIFFOP)
    )
    t_target, t_pre = wit["1 (x) t"].pairs[0]
    assert t_pre == UEnvElement.from_word([gen("a", 0)])


def test_multiplicativity_on_random_words():
    rng = random.Random(3)
    phi = PhiAB(F(2, 3), F(5, 2))
    phig = PhiABGG(F(1), F(2), F(1, 2), (F(1), F(3)))
    pool = generators_in_window(2)
    for which in (phi, phig):
        for _ in range(25):
            u = UEnvElement.from_word([rng.choice(pool) for _ in range(rng.randint(0, 3))])
            v = UEnvElement.from_word([rng.choice(pool) for _ in range(rng.randint(0, 3))])
            assert which.apply(uenv_mul(u, v)) == which.apply(u) * which.apply(v)


def _half_lb(bracket_terms):
    """``bracket_terms`` with [L_m, b_n] and [b_n, L_m] scaled by 1/2: a fractional constant."""
    def planted(x, y):
        out = bracket_terms(x, y)
        if {x.family, y.family} == {"L", "b"}:
            return tuple((g, c * F(1, 2)) for g, c in out)
        return out
    return planted


# alpha = 1/3 gives the L-images denominator 3, so the constant's denominator 2
# divides no image denominator, and c times the common denominator is no int.
@pytest.mark.parametrize("phi", [PhiAB(F(1, 3), F(3)), COPRIME_ABGG], ids=["ab", "abgg"])
def test_a_fractional_bracket_constant_is_subtracted_over_the_lcm(phi, monkeypatch,
                                                                  reference_violations):
    import conftest

    planted = _half_lb(homomorphisms.bracket_terms)
    monkeypatch.setattr(homomorphisms, "bracket_terms", planted)
    monkeypatch.setattr(conftest, "bracket_terms", planted)
    violations = verify_hom(phi, 2).violations
    # [phi(L_m), phi(b_n)] = n phi(b_{m+n}) differs from n/2 phi(b_{m+n}) for n != 0.
    assert len(violations) == 20
    assert all(x[0] == "L" and y[0] == "b" and y != "b[0]" for x, y in violations)
    assert violations == reference_violations(phi, 2)


def _drop_d_e_term(ab_terms):
    """The ab table without d[n]'s n x0^n (x) e term, the defect of ``CorruptedPhiAB``."""
    def planted(alpha, beta):
        table = ab_terms(alpha, beta)
        table["d"] = tuple(term for term in table["d"] if term[1] != (0, 1))
        return table
    return planted


def _double_b_dt(abgg_terms):
    """The abgg table with b[n]'s beta x0^n (x) dt doubled."""
    def planted(alpha, beta, gamma, g):
        table = abgg_terms(alpha, beta, gamma, g)
        table["b"] = tuple((x, right, tuple(2 * c for c in coef) if right == ((0,), (1,)) else coef)
                           for x, right, coef in table["b"])
        return table
    return planted


# The Whittaker F module is the pullback of PhiAB itself, and the Omega module
# that of PhiABGG at alpha + 1.
_PAR = OmegaParams(F(1, 2), F(3), F(1), F(2), (F(1), F(0), F(1)))


@pytest.mark.parametrize("table, plant, phi, module", [
    ("ab_terms", _drop_d_e_term, lambda: PhiAB(F(1, 2), F(3)),
     lambda: FModule(F(1, 2), F(3), MFactor(F(1, 3)), MFactor(F(1, 2)), Whittaker())),
    ("abgg_terms", _double_b_dt, lambda: PhiABGG(_PAR.alpha + 1, _PAR.beta, _PAR.gamma, _PAR.g),
     lambda: OmegaModule(_PAR)),
], ids=["ab", "abgg"])
def test_one_table_feeds_verify_hom_and_the_module_action(table, plant, phi, module, monkeypatch):
    # One planted defect must reach both readers of the table.  The map and the module
    # built after the plant build their tables afresh: each instance holds its own.
    def readers_pass():
        m = module()
        vectors = sample_vectors(m.ring, random.Random(1), count=2, max_total_degree=2)
        return verify_hom(phi()).ok, module_axiom_check(m, 1, vectors).ok

    assert readers_pass() == (True, True)
    monkeypatch.setattr(homomorphisms, table, plant(getattr(homomorphisms, table)))
    assert readers_pass() == (False, False)
