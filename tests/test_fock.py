"""The P (x) V module family: action tables, Q, simplicity, weights."""

import random
from fractions import Fraction as F

import pytest

from wittdiamond.axioms import apply_uenv, module_axiom_check, sample_vectors
from wittdiamond.exceptions import InvalidGenerator, UnsupportedOperation
from wittdiamond.fock import (
    FModule,
    MFactor,
    OmegaFactor,
    OneDim,
    Whittaker,
    barrier_invariance_check,
    epsilon_simplicity,
    q_action,
)
from wittdiamond.homomorphisms import PhiAB, PhiABGG
from wittdiamond.lie import Generator, gen, parse_uenv
from wittdiamond.omega import OmegaModule, OmegaParams
from wittdiamond.operators import (DIFFOP, R0, R2, UB, OperatorElement, TensorElement,
                                   tensor_algebra)
from wittdiamond.oracle import ClosureReport, TruncationPolicy, truncated_closure
from wittdiamond.poly import PolyRing
from wittdiamond.tensor import TensorModule


Q = parse_uenv("b[0] a[0] + c[0] d[0]")


def weight_module(alpha=F(1, 2), beta=F(3), w0=F(0), w1=F(1, 2), eps=F(2)):
    return FModule(alpha, beta, MFactor(w0), MFactor(w1), OneDim(eps))


def test_weight_action_table():
    # a_n x0^p x1^q = (beta w1 + beta q + eps) x0^(n+p) x1^(q+1), etc.
    M = weight_module()
    v = M.ring.monomial({"x0": 2, "x1": -1})
    coef = F(3) * (F(1, 2) + (-1)) + F(2)
    assert M.act(gen("a", 1), v) == M.ring.monomial({"x0": 3}, coef)
    assert M.act(gen("L", 2), v) == M.ring.monomial({"x0": 4, "x1": -1}, 0 + 2 + 2 * F(1, 2))
    assert M.act(gen("d", 1), v) == M.ring.monomial({"x0": 3, "x1": -1}, F(1, 2) - 1)
    assert M.act(gen("b", 0), v) == M.ring.monomial({"x0": 2, "x1": -2})
    assert M.act(gen("c", 0), v) == M.ring.monomial({"x0": 2, "x1": -1}, -3)


def test_shift_action_table():
    # b_n f = l0^n l1^-1 f(d0 - n, d1 + 1); c_n keeps the d0 shift
    M = FModule(F(1), F(2), OmegaFactor(F(2)), OmegaFactor(F(3)), OneDim(F(1)))
    f = M.ring.var("d0")
    out = M.act(gen("b", 1), f)
    expected = (M.ring.var("d0") - 1) * F(2, 3)
    assert out == expected
    out_c = M.act(gen("c", 1), f)
    assert out_c == (M.ring.var("d0") - 1) * (-2) * 2


# -- the module docstring's tables, composed from SparsePoly operations --------


def _x(module, i, k, p):
    """x_i^k on the i-th Weyl-type factor: x_i^k times p on M, l^k p(d_i - k) on Omega."""
    f = module.factors[i]
    if isinstance(f, MFactor):
        return p.mul_var(f"x{i}", k)
    return p.shift(f"d{i}", k) * f.lam**k


def _euler(module, i, p):
    """x_i d/dx_i: the eigenvalue w + exponent on M, multiplication by d_i on Omega."""
    f = module.factors[i]
    if isinstance(f, OmegaFactor):
        return p.mul_var(f"d{i}")
    j = module.ring.index(f"x{i}")
    return module.ring.from_terms((e, c * (f.weight + e[j])) for e, c in p.terms.items())


def table_action(module, g, p):
    """g p by the C_eps or the Whittaker table of the fock module docstring."""
    n, alpha, beta = g.index, module.alpha, module.beta

    def x0n(q):
        return _x(module, 0, n, q)

    weyl = {
        "L": x0n(_euler(module, 0, p) + p * (n * alpha)),
        "d": x0n(_euler(module, 1, p)),
        "a": x0n(_x(module, 1, 1, _euler(module, 1, p))) * beta,
        "b": x0n(_x(module, 1, -1, p)),
        "c": x0n(p) * -beta,
    }[g.family]
    if isinstance(module.v_space, OneDim):
        if g.family == "a":
            return weyl + x0n(_x(module, 1, 1, p)) * module.v_space.eps
        return weyl
    h, e = p.mul_var("h"), p.shift("h", 1)
    ub = {
        "L": x0n(h) * n,
        "d": x0n(e) * n,
        "a": x0n(_x(module, 1, 1, h - e * n)) * -beta,
    }
    return weyl + ub[g.family] if g.family in ub else weyl


def random_f_vector(ring, rng, terms=3):
    """Random vector with Laurent exponents in -3..3 on the x variables."""
    out = {}
    for _ in range(terms):
        exps = tuple(rng.randint(-3, 3) if laurent else rng.randint(0, 3)
                     for laurent in ring.laurent)
        out[exps] = F(rng.choice([-3, -2, -1, 1, 2, 5]), rng.randint(1, 4))
    return ring.from_terms(out.items())


@pytest.mark.parametrize("kind0", ["M", "Omega"])
@pytest.mark.parametrize("kind1", ["M", "Omega"])
@pytest.mark.parametrize("v_space", ["C_eps", "C_0", "Whittaker"])
def test_action_matches_docstring_tables(kind0, kind1, v_space):
    rng = random.Random(f"{kind0}-{kind1}-{v_space}")

    def factor(kind):
        return MFactor(F(rng.randint(-3, 3), rng.randint(1, 3))) if kind == "M" else \
            OmegaFactor(_nonzero(rng))

    for _ in range(2):
        v = {"C_eps": OneDim(_nonzero(rng)), "C_0": OneDim(F(0)), "Whittaker": Whittaker()}
        module = FModule(F(rng.randint(-3, 3), rng.randint(1, 3)), _nonzero(rng),
                         factor(kind0), factor(kind1), v[v_space])
        vectors = [module.one()] + [random_f_vector(module.ring, rng) for _ in range(3)]
        for fam in "Ldabc":
            for n in range(-3, 4):
                for p in vectors:
                    x = gen(fam, n)
                    assert module.act(x, p) == table_action(module, x, p), (module, x, p)


def test_c0_is_minus_beta():
    rng = random.Random(0)
    for module in [
        weight_module(),
        FModule(F(1), F(2), OmegaFactor(F(2)), OmegaFactor(F(3)), Whittaker()),
    ]:
        for v in sample_vectors(module.ring, rng, count=2):
            assert module.act(gen("c", 0), v) == v * (-module.beta)


def random_parameters(rng):
    alpha = F(rng.randint(-4, 4), rng.randint(1, 3))
    beta = F(rng.randint(1, 5), rng.randint(1, 3)) * rng.choice([1, -1])
    return alpha, beta


def _nonzero(rng):
    return F(rng.randint(1, 5), rng.randint(1, 3)) * rng.choice([1, -1])


def test_axioms_all_instances_random_tuples():
    rng = random.Random(12)
    builders = [
        lambda a, b: FModule(a, b, MFactor(_nonzero(rng)), MFactor(_nonzero(rng)), OneDim(_nonzero(rng))),
        lambda a, b: FModule(a, b, OmegaFactor(_nonzero(rng)), OmegaFactor(_nonzero(rng)), OneDim(_nonzero(rng))),
        lambda a, b: FModule(a, b, MFactor(_nonzero(rng)), MFactor(_nonzero(rng)), Whittaker()),
        lambda a, b: FModule(a, b, OmegaFactor(_nonzero(rng)), MFactor(_nonzero(rng)), OneDim(_nonzero(rng))),
    ]
    for build in builders:
        for _ in range(3):
            module = build(*random_parameters(rng))
            vectors = sample_vectors(module.ring, rng, count=3, max_total_degree=3)
            report = module_axiom_check(module, 2, vectors)
            assert report.ok, report.violations[:3]


def test_q_acts_as_eps_on_one_dimensional_v():
    rng = random.Random(3)
    for module in [
        weight_module(eps=F(5, 2)),
        FModule(F(0), F(1), OmegaFactor(F(2)), OmegaFactor(F(5)), OneDim(F(-1, 3))),
        FModule(F(2), F(-2), OmegaFactor(F(3)), MFactor(F(1, 4)), OneDim(F(0))),
    ]:
        eps = module.v_space.eps
        for v in sample_vectors(module.ring, rng, count=4, max_total_degree=3):
            assert q_action(module, v) == v * eps


def test_q_non_scalar_on_whittaker():
    module = FModule(F(1, 2), F(3), MFactor(F(0)), MFactor(F(1, 2)), Whittaker())
    v = module.one()
    qv = q_action(module, v)
    # qv proportional to v would force qv to be a constant multiple of 1
    assert qv == module.ring.monomial({"h": 1}, -module.beta)
    assert not any(qv == v * c for c in (F(0), F(1), F(-3), qv.coefficient((0, 0, 0))))
    # Through the map itself: PhiAB(alpha, beta) sends Q to -beta (1 (x) h).
    for alpha, beta in ((F(1, 2), F(3)), (F(-2), F(5, 3))):
        assert PhiAB(alpha, beta).apply(Q) == TensorElement.pure(
            OperatorElement.one(R2), OperatorElement.monomial(UB, (1, 0), -beta))


def test_q_acts_as_beta_minus_gamma_on_omega():
    # PhiABGG(alpha, beta, gamma, g) sends Q to (beta - gamma) (1 (x) 1), so Q is
    # beta - gamma on the Omega module, its pullback at alpha + 1.
    rng = random.Random(4)
    for par in (OmegaParams(F(1, 2), F(3), F(1), F(2), (F(1), F(0), F(1))),
                OmegaParams(F(2), F(-2, 3), F(5), F(-1, 2), (F(0), F(2)))):
        phi = PhiABGG(par.alpha + 1, par.beta, par.gamma, par.g)
        one = TensorElement.one(tensor_algebra(R0, DIFFOP))
        assert phi.apply(Q) == one.scaled(par.beta - par.gamma)
        module = OmegaModule(par)
        for v in sample_vectors(module.ring, rng, count=3, max_total_degree=3):
            assert q_action(module, v) == apply_uenv(module, Q, v) == v * (par.beta - par.gamma)


def test_q_equals_parsed_expression():
    module = weight_module()
    rng = random.Random(1)
    for v in sample_vectors(module.ring, rng, count=3):
        assert apply_uenv(module, Q, v) == q_action(module, v)


def test_epsilon_simplicity_examples():
    assert epsilon_simplicity(
        FModule(F(0), F(1), MFactor(F(0)), MFactor(F(1, 2)), OneDim(F(0)))
    ).simple
    res = epsilon_simplicity(FModule(F(0), F(1), MFactor(F(0)), MFactor(F(2)), OneDim(F(-3))))
    assert not res.simple and res.witness == 1
    assert epsilon_simplicity(
        FModule(F(0), F(2), MFactor(F(0)), MFactor(F(0)), OneDim(F(1)))
    ).simple


def test_epsilon_simplicity_requires_m_type_and_one_dim():
    with pytest.raises(UnsupportedOperation):
        epsilon_simplicity(FModule(F(0), F(1), MFactor(F(0)), OmegaFactor(F(2)), OneDim(F(0))))
    with pytest.raises(UnsupportedOperation):
        epsilon_simplicity(FModule(F(0), F(1), MFactor(F(0)), MFactor(F(0)), Whittaker()))


def test_epsilon_simplicity_matches_closure_oracle():
    # designed 3 simple + 3 non-simple tuples; closure starts inside the
    # candidate invariant subspace (x1-level = witness)
    cases = [
        (F(1), F(1, 2), F(0), True),
        (F(2), F(0), F(1), True),
        (F(1), F(-1, 3), F(0), True),
        (F(1), F(2), F(-3), False),  # witness 1
        (F(2), F(0), F(-4), False),  # witness 2
        (F(1), F(-1), F(3), False),  # witness -2
    ]
    policy = TruncationPolicy(max_total_degree=3, generator_window=2, max_steps=32)
    for beta, w, eps, expect_simple in cases:
        module = FModule(F(1, 3), beta, MFactor(F(1, 5)), MFactor(w), OneDim(eps))
        verdict = epsilon_simplicity(module)
        assert verdict.simple == expect_simple
        if verdict.simple:
            start = module.one()
            expected = ClosureReport.FILLS
        else:
            start = module.ring.monomial({"x1": verdict.witness})
            expected = ClosureReport.PROPER
        report = truncated_closure(module, start, policy)
        assert report.verdict == expected, (beta, w, eps, report)


@pytest.mark.parametrize("p0, images, a_images, degree", [(MFactor(F(1, 5)), 12, 2, 1),
                                                           (OmegaFactor(F(2)), 17, 3, 2)],
                         ids=["M", "Omega"])
def test_barrier_invariance_holds_exactly_at_the_witness(p0, images, a_images, degree):
    # beta (w + n) + eps = 0 at n = 1.  On an Omega P0 the probe d0 adds one to each index degree.
    module = FModule(F(1, 3), F(1), p0, MFactor(F(2)), OneDim(F(-3)))
    report = barrier_invariance_check(module, 1)
    assert report.ok and report.proper and report.escapes == []
    assert (report.probes, report.images_checked, report.max_index_degree) == (2, images, degree)
    for level in (0, 2):
        # Off the witness a's coefficient is not zero, so every a-image escapes, and only those.
        off = barrier_invariance_check(module, level)
        assert not off.ok and off.proper
        assert f"a[0] on {module.ring.monomial({'x1': level})}" in off.escapes
        assert len(off.escapes) == a_images and all(e.startswith("a[") for e in off.escapes)


def test_barrier_invariance_requires_the_epsilon_branch():
    with pytest.raises(UnsupportedOperation):
        barrier_invariance_check(
            FModule(F(0), F(1), MFactor(F(0)), OmegaFactor(F(2)), OneDim(F(0))), 0)
    with pytest.raises(UnsupportedOperation):
        barrier_invariance_check(FModule(F(0), F(1), MFactor(F(0)), MFactor(F(0)), Whittaker()), 0)


def test_epsilon_simplicity_reports_its_crossing():
    module = FModule(F(0), F(3), MFactor(F(0)), MFactor(F(1, 2)), OneDim(F(1)))
    verdict = epsilon_simplicity(module)
    assert verdict.crossing == F(-1, 3) - F(1, 2) and verdict.simple and verdict.witness is None


@pytest.mark.parametrize("build", [
    weight_module,
    lambda: OmegaModule(OmegaParams(F(1), F(2), F(0), F(3), (F(1),))),
    lambda: TensorModule([OmegaParams(F(1), F(2), F(0), F(3), (F(1),)),
                          OmegaParams(F(0), F(1), F(1), F(2), ())]),
], ids=["F", "Omega", "T"])
def test_unknown_generator_family_rejected(build):
    module = build()
    with pytest.raises(InvalidGenerator):
        module.act(Generator("x", 0), module.one())


def test_whittaker_v_reduction_reaches_constant():
    # e-shift degree drop: f - e f has degree exactly deg f - 1
    hring = PolyRing(("h",), (False,))
    rng = random.Random(5)
    for _ in range(10):
        coeffs = {(k,): F(rng.randint(-3, 3)) for k in range(rng.randint(1, 4))}
        coeffs[(rng.randint(1, 3),)] = F(rng.randint(1, 3))
        f = hring.from_terms(coeffs.items())
        deg = f.var_degree("h")
        steps = 0
        while f.var_degree("h") > 0:
            f = f - f.shift("h", 1)
            steps += 1
        assert not f.is_zero
        assert steps <= deg
