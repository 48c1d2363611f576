"""The representation-property check: its memoized action and its failure modes."""

import random
from fractions import Fraction as F

import pytest
from conftest import sample_vectors

from wittdiamond.axioms import AxiomReport, _integer_action, module_axiom_check
from wittdiamond.fock import FModule, MFactor, OmegaFactor, OneDim, Whittaker
from wittdiamond.lie import FAMILIES, bracket, gen, generators_in_window
from wittdiamond.omega import OmegaModule, OmegaParams
from wittdiamond.poly import SparsePoly, monomials_within
from wittdiamond.scalars import ONE, add_scaled, clear_denominators
from wittdiamond.tensor import TensorModule

WINDOW_2 = [gen(f, n) for f in FAMILIES for n in range(-2, 3)]


def _omega_params(lam):
    return OmegaParams(F(1, 2), F(3), F(-1), lam, (F(1), F(0), F(2)))


SIX_FAMILIES = {
    "F(M,C_eps)": lambda: FModule(F(1, 2), F(3), MFactor(F(0)), MFactor(F(1, 2)), OneDim(F(2))),
    "F(Omega,C_eps)": lambda: FModule(F(1), F(2), OmegaFactor(F(2)), OmegaFactor(F(3)),
                                      OneDim(F(1))),
    "F(M,Whittaker)": lambda: FModule(F(-1), F(2), MFactor(F(1, 3)), MFactor(F(2)), Whittaker()),
    "F(P0xM,C_eps)": lambda: FModule(F(2), F(-2), OmegaFactor(F(3)), MFactor(F(1, 4)),
                                     OneDim(F(-1, 3))),
    "Omega": lambda: OmegaModule(_omega_params(F(2))),
    "T(m=2)": lambda: TensorModule([_omega_params(F(2)), _omega_params(F(-3))]),
}


class Counting:
    """Forwards to a module and counts calls of ``act``."""

    def __init__(self, base):
        self.base, self.ring, self.calls = base, base.ring, 0

    def act(self, g, v):
        self.calls += 1
        return self.base.act(g, v)


class PerturbedImage:
    """A linear action with one generator's image of one monomial changed."""

    def __init__(self, base, g, exps, extra):
        self.base, self.ring, self.g, self.exps, self.extra = base, base.ring, g, exps, extra

    def act(self, h, v):
        out = self.base.act(h, v)
        c = v.coefficient(self.exps)
        if h == self.g and c:
            out = out + self.extra * c
        return out


class AddsConstant:
    """Not linear: every action adds the unit vector."""

    def __init__(self, base):
        self.base, self.ring = base, base.ring

    def act(self, g, v):
        return self.base.act(g, v) + self.ring.one()


def memoized_action(module):
    """The integer kernel of the check, with ``SparsePoly`` in and out."""
    kernel = _integer_action(module)

    def act(g, v):
        nums, den = kernel(g, clear_denominators(v.terms))
        return v._like({e: F(n, den) for e, n in nums.items()})

    return act


@pytest.mark.parametrize("name", sorted(SIX_FAMILIES))
def test_memoized_action_equals_module_act(name):
    module = SIX_FAMILIES[name]()
    rng = random.Random(f"memo:{name}")
    act = memoized_action(module)
    gens = [gen(f, n) for f in FAMILIES for n in range(-3, 4)]
    for v in sample_vectors(module.ring, rng, count=3, max_total_degree=3):
        for g in gens:
            assert act(g, v) == module.act(g, v), (name, str(g), str(v))
            w = module.act(gen("L", 1), v)
            assert act(g, w) == module.act(g, w), (name, str(g), str(w))


def test_memoized_action_acts_once_per_generator_and_monomial():
    module = Counting(SIX_FAMILIES["Omega"]())
    act = memoized_action(module)
    v = module.ring.from_terms([((1, 0), F(2)), ((0, 2), F(-1, 3)), ((0, 0), F(1))])
    first = act(gen("d", 1), v)
    assert module.calls == 3
    assert act(gen("d", 1), v * 5) == first * 5
    assert module.calls == 3
    act(gen("d", 2), v)
    assert module.calls == 6
    # A fresh memo starts empty: nothing is kept on the module.
    memoized_action(module)(gen("d", 1), v)
    assert module.calls == 9


def test_empty_vector_list_is_a_usage_error():
    module = SIX_FAMILIES["Omega"]()
    with pytest.raises(ValueError):
        module_axiom_check(module, 2, [])
    with pytest.raises(ValueError):
        module_axiom_check(module, 0, [module.one()])


@pytest.mark.parametrize("name,perturbed", [("Omega", gen("a", 1)), ("F(M,C_eps)", gen("b", -1))])
def test_perturbed_generator_image_is_caught(name, perturbed):
    base = SIX_FAMILIES[name]()
    zero = (0,) * base.ring.nvars
    module = PerturbedImage(base, perturbed, zero, base.ring.one())
    report = module_axiom_check(module, 2, [base.one()])
    assert report.violations
    assert not any(y == "linearity" for _, y, _ in report.violations)
    assert any(str(perturbed) in (x, y) for x, y, _ in report.violations)
    by_name = {str(g): g for g in WINDOW_2}
    for x, y, _ in report.violations:
        involved = {x, y} | {str(g) for g in bracket(by_name[x], by_name[y]).terms}
        assert str(perturbed) in involved, (x, y)


def test_nonlinear_act_is_caught_by_the_linearity_cross_check():
    base = SIX_FAMILIES["T(m=2)"]()
    report = module_axiom_check(AddsConstant(base), 1, [base.one() * 2])
    window_1 = {str(gen(f, n)) for f in FAMILIES for n in (-1, 0, 1)}
    linearity = {(x, idx) for x, y, idx in report.violations if y == "linearity"}
    assert linearity == {(g, 0) for g in window_1}


def _fraction_axiom_check(module, window, vectors):
    """Oracle: the representation-property check with Fraction arithmetic throughout.

    The same per-call memo of monomial images, held as Fractions and summed
    with ``add_scaled``; for each pair the lhs and rhs are built as
    ``SparsePoly``s and compared.
    """
    ring = module.ring
    images = {}

    def act(g, v):
        out = {}
        for e, c in v.terms.items():
            image = images.get((g, e))
            if image is None:
                image = images[(g, e)] = module.act(g, SparsePoly(ring, {e: ONE})).terms
            add_scaled(out, image, c)
        return v._like(out)

    gens = generators_in_window(window)
    report = AxiomReport(window=window, vectors=len(vectors))
    first = {}
    for x in gens:
        for idx, v in enumerate(vectors):
            first[x, idx] = act(x, v)
            if first[x, idx] != module.act(x, v):
                report.violations.append((str(x), "linearity", idx))
    for i, x in enumerate(gens):
        for y in gens[i:]:
            br = bracket(x, y)
            for idx, v in enumerate(vectors):
                report.pairs_checked += 1
                lhs = act(x, first[y, idx]) - act(y, first[x, idx])
                rhs = module.ring.zero()
                for g2, c in br.terms.items():
                    rhs = rhs + act(g2, v) * c
                if lhs != rhs:
                    report.violations.append((str(x), str(y), idx))
    return report


def _vectors(ring, rng):
    """The unit and three random vectors with coefficient denominators up to 7."""
    pool = list(monomials_within(ring, 2))
    vecs = [ring.one()]
    for _ in range(3):
        vecs.append(SparsePoly(ring, {e: F(rng.choice([-5, -3, -1, 1, 2, 4]), rng.randint(1, 7))
                                      for e in rng.sample(pool, 3)}))
    return vecs


def _first_variable(ring, c):
    return SparsePoly(ring, {(1,) + (0,) * (ring.nvars - 1): c})


ORACLE_MODULES = {
    **{name: (make, 2) for name, make in SIX_FAMILIES.items()},
    "PerturbedImage": (lambda: PerturbedImage(SIX_FAMILIES["Omega"](), gen("b", 2), (0, 0),
                                              SIX_FAMILIES["Omega"]().ring.one()), 2),
    "AddsConstant": (lambda: AddsConstant(SIX_FAMILIES["F(M,Whittaker)"]()), 1),
}


@pytest.mark.parametrize("name", sorted(ORACLE_MODULES))
def test_report_equals_the_fraction_oracle(name):
    make, window = ORACLE_MODULES[name]
    module = make()
    vectors = _vectors(module.ring, random.Random(f"oracle:{name}"))
    report = module_axiom_check(module, window, vectors)
    assert report == _fraction_axiom_check(module, window, vectors)
    n_gens = 5 * (2 * window + 1)
    assert report.pairs_checked == n_gens * (n_gens + 1) // 2 * len(vectors)
    assert report.ok == (name in SIX_FAMILIES)


@pytest.mark.parametrize("name,perturbed", [("Omega", gen("d", 1)), ("T(m=2)", gen("a", -1)),
                                            ("F(M,C_eps)", gen("L", 2))])
def test_one_seventh_defect_is_caught_at_the_oracle_pairs(name, perturbed):
    # One image gains (1/7) times a monomial: the image's common denominator
    # grows by 7, so a path that truncated coefficients to ints would lose it.
    base = SIX_FAMILIES[name]()
    zero = (0,) * base.ring.nvars
    module = PerturbedImage(base, perturbed, zero, _first_variable(base.ring, F(1, 7)))
    vectors = _vectors(base.ring, random.Random(f"seventh:{name}"))
    report = module_axiom_check(module, 2, vectors)
    assert report.violations
    assert not any(y == "linearity" for _, y, _ in report.violations)
    assert report == _fraction_axiom_check(module, 2, vectors)
