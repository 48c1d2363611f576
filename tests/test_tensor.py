"""Tensor products: determinant lemma, spans, certificates, rank, iso."""

import itertools
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction as F

import pytest
from conftest import docstring_action, poly_power, sample_vectors
from oracles import span_vectors

from wittdiamond import omega, tensor
from wittdiamond.axioms import module_axiom_check, random_vector, simplicity_samples
from wittdiamond.certificates import Certificate, CertStep
from wittdiamond.exceptions import CertificateError, InvalidSpec, NotApplicable
from wittdiamond.fock import FModule, MFactor, OmegaFactor, OneDim, Whittaker
from wittdiamond.homomorphisms import PullbackModule, ab_terms, abgg_terms, index_degree
from wittdiamond.lie import FAMILIES, gen, generators_in_window
from wittdiamond.linalg import SpanBasis, combination
from wittdiamond.omega import (
    OmegaModule,
    OmegaParams,
    RankOneProduct,
    _candidate_operator,
    _times_s,
    _top_slice,
    omega_factor_act,
    omega_reduce_to_one,
    dt_step,
    operator_form,
    orbit,
    orbit_component,
    orbit_points,
    rank1_data_from_action,
)
from wittdiamond.oracle import naive_det
from wittdiamond.poly import SparsePoly, act_by_rules
from wittdiamond.tensor import (
    DetSpec,
    TensorModule,
    canonical_form,
    det_matrix,
    det_r,
    det_rows,
    iso_check,
    r_g,
    simplicity_certificates,
    tensor_generate,
    tensor_reduce_to_bottom,
    w_invariance_check,
)

A = OmegaParams(F(1, 2), F(3), F(0), F(2), (F(1), F(0), F(1)))
B = OmegaParams(F(1), F(1), F(1), F(3), (F(2),))
C = OmegaParams(F(-1), F(2), F(0), F(5), (F(0), F(1)))


def test_det_spec_examples():
    r1 = det_r(DetSpec((F(2), F(3)), (1, 1), 0))
    assert r1.computed == r1.closed_form == 1
    r2 = det_r(DetSpec((F(2),), (2,), 0))
    assert r2.computed == r2.closed_form == 2
    r3 = det_r(DetSpec((F(5),), (1,), 3))
    assert r3.computed == r3.closed_form == 125


def test_det_r_factors_through_r_zero():
    """det_r = det_0 * prod_t alpha_t^(r s_t), the identity that lets det-lemma check r = 0 only."""
    alphas = (F(-2, 3), F(1, 2), F(3), F(-5))
    for m in (1, 2, 3):
        for subset in itertools.permutations(alphas, m):
            for sizes in itertools.product((1, 2), repeat=m):
                det_0 = det_r(DetSpec(subset, sizes, 0)).computed
                assert det_0 != 0
                for r in range(4):
                    scale = math.prod(a ** (r * s) for a, s in zip(subset, sizes))
                    assert det_r(DetSpec(subset, sizes, r)).computed == det_0 * scale


def test_det_spec_validation():
    with pytest.raises(InvalidSpec):
        DetSpec((F(2), F(2)), (1, 1), 0)
    with pytest.raises(InvalidSpec):
        DetSpec((F(0),), (1,), 0)
    with pytest.raises(InvalidSpec):
        DetSpec((F(2),), (0,), 0)
    # Sizes and the row offset are integers, never truncated or bools.
    for sizes, r in [((1.5,), 0), ((F(2),), 0), (("2",), 0), ((True,), 0),
                     ((2,), 1.5), ((2,), F(1)), ((2,), "1"), ((2,), True), ((2,), -1)]:
        with pytest.raises(InvalidSpec):
            DetSpec((F(2),), sizes, r)
    assert DetSpec((F(2),), (2,), 1).sizes == (2,)


def test_det_matrix_entries_are_fraction_powers():
    """Row p, column (alpha, x) is p^x alpha^p, with 0^0 = 1 in row p = 0."""
    alphas = (F(3), F(-2), F(1, 2), F(-2, 3))
    for m in (1, 2, 3):
        for subset in itertools.combinations(alphas, m):
            for sizes in itertools.product((1, 3), repeat=m):
                cols = [(a, x) for a, s in zip(subset, sizes) for x in range(s)]
                for r in range(4):
                    rows = det_matrix(DetSpec(subset, sizes, r))
                    assert rows == [[F(p) ** x * a**p for a, x in cols]
                                    for p in range(r, r + len(cols))]
    assert det_matrix(DetSpec((F(-2, 3),), (3,), 0))[0] == [1, 0, 0]


def test_det_rows_are_integer_multiples_of_det_matrix():
    """Row p is D_p = lcm_t den(alpha_t)^p times row p of det_matrix, in ints."""
    alphas = (F(3), F(-2), F(1, 2), F(-2, 3))
    for m in (1, 2, 3):
        for subset in itertools.combinations(alphas, m):
            for sizes in itertools.product((1, 3), repeat=m):
                for r in range(4):
                    spec = DetSpec(subset, sizes, r)
                    rows, denominators = det_rows(spec)
                    matrix = det_matrix(spec)
                    assert len(rows) == len(denominators) == len(matrix)
                    for p, row, d, rational in zip(itertools.count(r), rows, denominators,
                                                   matrix):
                        assert d == math.lcm(*(a.denominator**p for a in subset))
                        assert all(type(x) is int for x in row)
                        assert row == [d * x for x in rational]
    rows, denominators = det_rows(DetSpec((F(-2, 3), F(1, 2)), (3, 1), 0))
    assert denominators[0] == 1 and rows[0] == [1, 0, 0, 1]
    assert denominators[1] == 6 and rows[1] == [-4, -4, -4, 3]


def test_det_sweep_small_with_naive_oracle():
    alphas = (F(1), F(2), F(-2))
    for m in (1, 2):
        for subset in itertools.permutations(alphas, m):
            for sizes in itertools.product((1, 2), repeat=m):
                for r in range(2):
                    spec = DetSpec(subset, sizes, r)
                    result = det_r(spec)
                    assert result.ok, spec
                    assert naive_det(det_matrix(spec)) == result.computed
                    # det-lemma's naive check reads these rows: elimination left them as built.
                    assert (result.rows, result.denominators) == det_rows(spec)
                    assert naive_det(result.rows) == result.computed * math.prod(
                        result.denominators)


def test_leibniz_action_matches_single_factor():
    T1 = TensorModule([A])
    M = OmegaModule(A)
    rng = random.Random(4)
    rename = {"s1": "s", "t1": "t"}
    for v in sample_vectors(T1.ring, rng, count=3):
        mv = SparsePoly(M.ring, dict(v.terms))
        for fam in "Labcd":
            for n in (-2, 0, 1):
                out = T1.act(gen(fam, n), v)
                expected = M.act(gen(fam, n), mv)
                assert dict(out.terms) == dict(expected.terms)
    # m = 2 and 3: factor k's part is the docstring formula on (s_k, t_k).
    for factors in ((A, B), (A, B, C)):
        T = TensorModule(factors)
        for v in sample_vectors(T.ring, random.Random(len(factors)), count=3, max_total_degree=2):
            for fam in FAMILIES:
                for n in (-2, -1, 0, 1, 3):
                    x = gen(fam, n)
                    parts = [docstring_action(par, T.ring, f"s{k}", f"t{k}", x, v)
                             for k, par in enumerate(factors, start=1)]
                    for k, (par, part) in enumerate(zip(factors, parts), start=1):
                        factor = PullbackModule(T.ring, T.pullbacks[k - 1:k])
                        assert omega_factor_act(factor, x, v) == part
                    assert T.act(x, v) == sum(parts, T.ring.zero()), (x, v)


def test_rules_are_compiled_once_per_generator_over_all_factors():
    # One (rules, den) entry per generator, shared by every factor of the product;
    # ``rules(g)`` hands out that entry, whether it or ``act`` compiled it first.
    gens = generators_in_window(2)
    for module in (TensorModule([A, B, C]), OmegaModule(A)):
        v = module.one() + module.ring.var(module.svar(1)) * module.ring.var(module.tvar(module.m))
        for g in gens[::2]:
            module.rules(g)
        for g in gens:
            module.act(g, v)
            module.act(g, module.act(g, v))
            assert module.rules(g) is module.act_rules[g]
        assert len(module.act_rules) == len(gens) == 25
        assert set(module.act_rules) == set(gens)


def _module_kinds():
    """F with C_eps, with C_0, with a Whittaker V and with an Omega-type P0; Omega; T(m=3)."""
    yield FModule(F(1, 2), F(3), MFactor(F(1, 3)), MFactor(F(-1, 2)), OneDim(F(-2, 5)))
    yield FModule(F(-1), F(2, 3), MFactor(F(0)), MFactor(F(1, 2)), OneDim(F(0)))
    yield FModule(F(1, 2), F(-3), MFactor(F(0)), MFactor(F(1, 2)), Whittaker())
    yield FModule(F(1), F(1, 2), OmegaFactor(F(-3, 2)), MFactor(F(1, 4)), OneDim(F(1)))
    yield OmegaModule(A)
    yield TensorModule([A, B, C])


@pytest.mark.parametrize("module", _module_kinds(), ids=lambda m: type(m).__name__)
def test_act_is_act_by_rules_on_the_modules_rules(module):
    # CertStep.apply applies ``rules(g)`` to integer numerators; ``act`` must agree.
    rng = random.Random(17)
    vectors = [random_vector(module.ring, rng, max_total_degree=2, terms=4) for _ in range(3)]
    for g in generators_in_window(2):
        for v in vectors:
            assert module.act(g, v) == act_by_rules(v, *module.rules(g)), (g, v)


def test_action_examples_m2():
    T = TensorModule([A, B])
    one = T.one()
    assert T.act(gen("a", 0), one) == T.ring.var("t1") + T.ring.var("t2")
    # c_n 1 = -(sum_k lam_k^n beta_k) 1
    assert T.act(gen("c", 1), one) == one * (-(F(2) * F(3) + F(3) * F(1)))
    assert T.act(gen("c", 0), one) == one * (-(F(3) + F(1)))


def test_axioms_m2_random():
    rng = random.Random(13)
    for _ in range(3):
        factors = [
            OmegaParams(
                F(rng.randint(-2, 2)),
                F(rng.randint(1, 4)) * rng.choice([1, -1]),
                F(rng.randint(-2, 2)),
                F(k + rng.randint(2, 3) * (k + 1)),
                tuple(F(rng.randint(-2, 2)) for _ in range(rng.randint(1, 2))),
            )
            for k in range(2)
        ]
        T = TensorModule(factors)
        report = module_axiom_check(T, 2, sample_vectors(T.ring, rng, count=3, max_total_degree=2))
        assert report.ok, report.violations[:3]


def _exact_span(module, families, g):
    """span{g, X[n] g : X in families, n in Z}, from the ``omega.orbit`` images."""
    basis = SpanBasis()
    basis.add(g.terms)
    for family in families:
        for _, image in orbit(module, family, g):
            basis.add(image.terms)
    return basis


def test_span_examples():
    T = TensorModule([A, B])
    assert _exact_span(T, ["a"], T.one()).dim == 3  # 1, t1, t2
    assert _exact_span(T, ["L"], T.one()).dim == 3  # 1, s1, s2
    T1 = TensorModule([A])
    assert _exact_span(T1, ["a"], T1.ring.var("t1")).dim == 2  # t, t^2


def test_lemma42_extractions():
    """The two orbit step kinds: s_k v from the L-orbit, and t_k times the top
    s_k-slice from the a-orbit, which is t_k v on an s_k-free v."""
    T1 = TensorModule([A])
    one = T1.one()
    step, target = _top_slice(T1, one, 1)
    assert target == T1.ring.var("t1") == step.apply(T1, one)
    step, target = _times_s(T1, one, 1)
    assert target == T1.ring.var("s1") == step.apply(T1, one)
    T2 = TensorModule([A, B])
    g = T2.ring.var("s1")
    step, target = _top_slice(T2, g, 1)
    assert target == T2.ring.var("t1") == step.apply(T2, g)
    g = T2.ring.monomial({"s1": 2, "t2": 1}) * 3 + T2.ring.monomial({"s1": 1, "s2": 2})
    step, target = _top_slice(T2, g, 1)
    assert target == T2.ring.monomial({"t1": 1, "t2": 1}) * 3 == step.apply(T2, g)
    step, target = _top_slice(T2, g, 2)
    assert target == T2.ring.monomial({"s1": 1, "t2": 1}) == step.apply(T2, g)


def test_lemma42_requires_distinct_lambdas():
    """Generation, reduction and the simplicity certificates refuse a repeated lambda."""
    T = TensorModule([A, OmegaParams(F(1), F(1), F(0), A.lam, (F(1),))])
    with pytest.raises(NotApplicable):
        tensor_generate(T, (0, 0, 1, 0))
    with pytest.raises(NotApplicable):
        tensor_reduce_to_bottom(T, T.ring.var("t1"))
    with pytest.raises(NotApplicable):
        simplicity_certificates(T)


def test_reduce_to_bottom_m1_matches_single_module_route():
    """Omega and its one-factor T share one chain: the same steps, words and weights,
    then one rescale step when the chain ends at a constant other than 1."""
    T1 = TensorModule([A])
    M = OmegaModule(A)
    assert isinstance(M, RankOneProduct) and not isinstance(M, TensorModule)
    rng = random.Random(6)
    for _ in range(5):
        v = random_vector(T1.ring, rng, max_total_degree=3, terms=2)
        cert, bottom = tensor_reduce_to_bottom(T1, v)
        assert cert.replay(T1, v) == bottom
        assert set(bottom.terms) == {(0, 0)}
        mv = SparsePoly(M.ring, dict(v.terms))
        const = bottom.coefficient((0, 0))
        m_cert = omega_reduce_to_one(M, mv)
        assert m_cert.steps == cert.steps + ([] if const == 1 else [CertStep(((1 / const, ()),))])
        assert m_cert.replay(M, mv) == M.one()


def test_reduce_to_bottom_m2():
    T = TensorModule([A, B])
    g = T.ring.monomial({"s1": 1, "t2": 1})
    cert, bottom = tensor_reduce_to_bottom(T, g)
    assert cert.replay(T, g) == bottom
    assert set(bottom.terms) == {(0, 0, 0, 0)}
    assert len(cert.steps) >= 2


def test_generate_examples():
    T = TensorModule([A, B])
    for exps in [(0, 0, 1, 1), (1, 0, 0, 0), (0, 0, 0, 0), (1, 1, 2, 0)]:
        cert = tensor_generate(T, exps)
        assert cert.replay(T, T.one()) == SparsePoly(T.ring, {exps: F(1)})


@pytest.mark.parametrize("factors", [[A, B], [A, B, C]], ids=["m2", "m3"])
def test_generation_takes_top_slices_of_s_free_vectors_only(monkeypatch, factors):
    """The t-powers come first, from 1, so every top-slice step of a generation
    starts from an s-free vector and weighs m images of the a-orbit."""
    T = TensorModule(factors)
    m = T.m
    starts = []
    top_slice = tensor._top_slice
    monkeypatch.setattr(tensor, "_top_slice", lambda module, v, k: starts.append(v)
                        or top_slice(module, v, k))
    rng = random.Random(44)
    for _ in range(4):
        exps = tuple(rng.randint(0, 2) for _ in range(2 * m))
        starts.clear()
        cert = tensor_generate(T, exps)
        assert cert.replay(T, T.one()) == SparsePoly(T.ring, {exps: F(1)})
        assert len(starts) == sum(exps[m:])
        assert all(not any(T.s_profile(v)) for v in starts)
        for step in cert.steps[:len(starts)]:
            assert {g.family for _, (g,) in step.combo} == {"a"}
            assert max(g.index for _, (g,) in step.combo) < m


def _doubled_on_call(build, planted_call):
    """``build`` with the target of its ``planted_call``-th call doubled."""
    calls = []

    def planted(module, v, k):
        step, target = build(module, v, k)
        calls.append(k)
        return step, target * 2 if len(calls) == planted_call else target
    return planted


@pytest.mark.parametrize("owner, builder, run, before", [
    (tensor, "_times_s", lambda T: tensor_generate(T, (1, 2, 1, 1)), 2),
    (tensor, "_top_slice", lambda T: tensor_generate(T, (1, 0, 2, 1)), 0),
    (omega, "_top_slice", lambda T: tensor_reduce_to_bottom(T, T.ring.monomial(
        {"s1": 1, "s2": 1}) + T.ring.var("t2")), 0),
], ids=["generate-times_s", "generate-top_slice", "reduce-top_slice"])
def test_a_planted_wrong_target_fails_at_its_own_step_check(monkeypatch, owner, builder, run,
                                                            before):
    """A builder whose second target is doubled fails the check of that step: the
    replay stops after ``before`` steps of other kinds and two of its own."""
    T = TensorModule([A, B])
    run(T)
    applied = []
    apply = CertStep.apply
    monkeypatch.setattr(CertStep, "apply", lambda step, module, v: applied.append(step)
                        or apply(step, module, v))
    monkeypatch.setattr(owner, builder, _doubled_on_call(getattr(owner, builder), 2))
    with pytest.raises(CertificateError, match="extraction step does not reach its target"):
        run(T)
    assert len(applied) == before + 2


def test_r_g_examples():
    for factors in ([A], [A, B], [A, B, C]):
        T = TensorModule(factors)
        assert r_g(T, T.one()) == len(factors) + 1
    T1 = TensorModule([A])
    assert r_g(T1, T1.ring.var("s1")) == 4
    T2 = TensorModule([A, B])
    assert r_g(T2, T2.ring.var("t1", 3)) == 3


def test_r_g_dichotomy_random():
    rng = random.Random(23)
    for factors in ([A], [A, B], [A, B, C]):
        T = TensorModule(factors)
        m = T.m
        for _ in range(6):
            v = random_vector(T.ring, rng, max_total_degree=2, terms=2)
            value = r_g(T, v)
            in_bottom = all(not any(e[:m]) for e in v.terms)
            assert value >= m + 1
            assert (value == m + 1) == in_bottom, (factors, dict(v.terms))


def test_simplicity_distinct_lambdas():
    """Each certificate carries its sample vector to a nonzero constant."""
    T = TensorModule([A, B])
    certificates = simplicity_certificates(T)
    samples = simplicity_samples(T.ring, max_total_degree=2)
    assert len(certificates) == len(samples) == 5
    for cert, v in zip(certificates, samples):
        assert set(cert.replay(T, v).terms) == {(0, 0, 0, 0)}


def test_simplicity_repeated_lambda_witness():
    lamA = A.lam
    T = TensorModule([A, OmegaParams(F(1), F(1), F(1), lamA, (F(2),))])
    assert T.equal_lambda_pair() == (1, 2)
    report = w_invariance_check(T, 1, 2)
    assert report.ok and report.proper
    assert report.escapes == []


def test_w_invariance_explicit_action():
    # L_n (s1+s2)^p = lam^n (s1+s2+n(alpha1+alpha2)) (s1+s2-n)^p stays in W
    lam = F(2)
    f1 = OmegaParams(F(1), F(1), F(0), lam, (F(1),))
    f2 = OmegaParams(F(3), F(2), F(1), lam, (F(1),))
    T = TensorModule([f1, f2])
    s1, s2 = T.ring.var("s1"), T.ring.var("s2")
    w = (s1 + s2) * (s1 + s2)
    out = T.act(gen("L", 1), w)
    expected = (s1 + s2 + (F(1) + F(3))) * (s1 + s2 - 1) * (s1 + s2 - 1) * lam
    assert out == expected
    report = w_invariance_check(T, 1, 2)
    assert report.ok and report.proper


def test_m1_always_simple():
    assert len(simplicity_certificates(TensorModule([A]))) == 5


def test_canonical_form_permutation_invariant():
    perms = [TensorModule(list(p)) for p in itertools.permutations([A, B, C])]
    forms = {canonical_form(T) for T in perms}
    assert len(forms) == 1


def test_iso_checks():
    TAB = TensorModule([A, B])
    TBA = TensorModule([B, A])
    res = iso_check(TAB, TBA)
    assert res.isomorphic and res.permutation == (2, 1)
    res = iso_check(TAB, TAB)
    assert res.isomorphic and res.permutation == (1, 2)

    def perturb(**kw):
        return OmegaParams(
            kw.get("alpha", B.alpha),
            kw.get("beta", B.beta),
            kw.get("gamma", B.gamma),
            kw.get("lam", B.lam),
            kw.get("g", B.g),
        )

    for field, kw in [
        ("alpha", {"alpha": B.alpha + 1}),
        ("beta", {"beta": B.beta + 1}),
        ("gamma", {"gamma": B.gamma - 2}),
        ("lambda", {"lam": F(7)}),
        ("g", {"g": (F(2), F(1))}),
    ]:
        out = iso_check(TAB, TensorModule([A, perturb(**kw)]))
        assert not out.isomorphic
        assert out.invariant == field

    out = iso_check(TensorModule([A]), TAB)
    assert not out.isomorphic and out.invariant == "factor count"


def test_iso_requires_simple():
    T = TensorModule([A, OmegaParams(F(1), F(1), F(0), A.lam, (F(1),))])
    with pytest.raises(NotApplicable):
        iso_check(T, T)


def w_witness_basis(module: TensorModule, i: int, j: int,
                    max_total_degree: int) -> list[SparsePoly]:
    """Basis of the invariant witness subspace up to a total degree.

    Elements are (s_i + s_j)^p t_i^{qi} t_j^{qj} times arbitrary monomials
    in the remaining factors; each basis vector is homogeneous, so degree
    truncation respects the subspace.
    """
    m = module.m
    others = [k for k in range(1, m + 1) if k not in (i, j)]
    out = []

    def monos(budget: int, vars_left: list[str]):
        if not vars_left:
            yield {}
            return
        v = vars_left[0]
        for e in range(budget + 1):
            for rest in monos(budget - e, vars_left[1:]):
                d = dict(rest)
                if e:
                    d[v] = e
                yield d

    other_vars = [module.svar(k) for k in others] + [module.tvar(k) for k in others]
    si = module.ring.var(module.svar(i))
    sj = module.ring.var(module.svar(j))
    for p in range(max_total_degree + 1):
        core = poly_power(si + sj, p)
        for qi in range(max_total_degree - p + 1):
            for qj in range(max_total_degree - p - qi + 1):
                head = core.mul_var(module.tvar(i), qi).mul_var(module.tvar(j), qj)
                budget = max_total_degree - p - qi - qj
                for d in monos(budget, other_vars):
                    w = head
                    for name, e in d.items():
                        w = w.mul_var(name, e)
                    out.append(w)
    return out


def _span_membership_probes(module, i, j):
    """The former membership test of w_invariance_check, kept as an oracle.

    Each probe image is tested against ``w_witness_basis`` eliminated up to
    the images' top degree; returns (escapes, proper).
    """
    probes = [module.one(), module.ring.var(module.tvar(i)), module.ring.var(module.tvar(j))]
    images = []
    for fam in FAMILIES:
        degrees = module.index_degrees(fam, module.one())
        for v in probes:
            for n in range(orbit_points(degrees)):
                images.append((f"{fam}[{n}] on {v}", module.act(gen(fam, n), v)))
    witness = SpanBasis()
    top = max([1] + [sum(e) for _, image in images for e in image.terms])
    for w in w_witness_basis(module, i, j, top):
        witness.add(w.terms)
    escapes = [name for name, image in images if not witness.contains(image.terms)]
    proper = (witness.contains(module.one().terms)
              and not witness.contains(module.ring.var(module.svar(i)).terms))
    return escapes, proper


@dataclass
class _SweepReport:
    pair: tuple[int, int]
    basis_size: int
    images_checked: int
    max_index_degree: int = 0
    escapes: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.escapes


def _degree_sweep(module, i, j, max_total_degree=6):
    """The former degree-grid sweep of w_invariance_check, kept as an oracle.

    For a basis vector w, X[n] w = sum_lam lam^n P_lam(n) with the degree
    bounds D_lam of ``PullbackModule.index_degrees``, and the images at the
    N = sum_lam (D_lam + 1) points n = 0..N-1 span every n-coefficient of
    every P_lam (see ``omega.orbit_points``).  Checking them is exact for all
    n; only the total degree of w is truncated.
    Images are tested against the witness space spanned up to the bumped
    degree, which holds every image, so there is no truncation loss there.
    """
    bump = 1 + max((len(f.g) for f in module.factors), default=1)
    extended = SpanBasis()
    for w in w_witness_basis(module, i, j, max_total_degree + bump):
        extended.add(w.terms)
    report = _SweepReport(pair=(i, j), basis_size=0, images_checked=0)
    for w in w_witness_basis(module, i, j, max_total_degree):
        report.basis_size += 1
        for fam in FAMILIES:
            degrees = module.index_degrees(fam, w)
            report.max_index_degree = max(report.max_index_degree, *degrees.values())
            for n in range(orbit_points(degrees)):
                image = module.act(gen(fam, n), w)
                report.images_checked += 1
                if not extended.contains(image.terms):
                    report.escapes.append(f"{fam}[{n}] on {w}")
    return report


def _window_invariance(module, i, j, max_total_degree, window=3):
    """The former fixed-window sweep: every X[n] with n in [-window, window]."""
    bump = 1 + max(len(f.g) for f in module.factors)
    extended = SpanBasis()
    for w in w_witness_basis(module, i, j, max_total_degree + bump):
        extended.add(w.terms)
    return [f"{fam}[{n}] on {w}"
            for w in w_witness_basis(module, i, j, max_total_degree)
            for fam in FAMILIES
            for n in range(-window, window + 1)
            if not extended.contains(module.act(gen(fam, n), w).terms)]


class _PlantedDefect(TensorModule):
    """X[n] w gains lam^n n (n - 1) ... (n - D + 1) s1 for one family X.

    D = max_k p_k + [X = L] is the top n-degree the grid allows for w with
    s-profile p when all lambdas are equal, and the defect vanishes at every
    grid point n = 0..D except the last; s1 lies outside the witness space.
    """

    def __init__(self, factors, family):
        super().__init__(factors)
        self.family = family

    def act(self, g, v):
        out = super().act(g, v)
        if g.family != self.family:
            return out
        top = max(self.s_profile(v)) + (g.family == "L")
        c = self.factors[0].lam ** g.index
        for j in range(top):
            c *= g.index - j
        return out + self.ring.var("s1") * c


class _Mutated(TensorModule):
    """Factor k's X[n] f gains lam_k^n s_k^power f(s_k - n) for one family X.

    The action keeps the form (A_k + B_k d/dt_k) o tau_k^n that
    w_invariance_check assumes, but A_k gains an s_k-part that the other
    factor of the witness pair does not match, so W is no longer invariant.
    """

    def __init__(self, factors, family, k, power):
        super().__init__(factors)
        self.family, self.k, self.power = family, k, power

    def act(self, g, v):
        out = super().act(g, v)
        if g.family != self.family:
            return out
        s = self.svar(self.k)
        shifted = v.shift(s, g.index) if g.index else v
        return out + shifted.mul_var(s, self.power) * self.factors[self.k - 1].lam ** g.index


def _equal_lambda_modules():
    rng = random.Random(31)
    for m in (2, 2, 3):
        lam = F(rng.choice([2, -3, 1, F(1, 2)]))
        lams = [lam, lam] + [lam * 5] * (m - 2)
        yield TensorModule([
            OmegaParams(F(rng.randint(-3, 3), rng.randint(1, 2)), F(rng.choice([1, -2, 3])),
                        F(rng.randint(-2, 2)), la,
                        tuple(F(rng.randint(-2, 2)) for _ in range(rng.randint(0, 2))))
            for la in lams
        ])


def test_w_invariance_grid_agrees_with_window_oracle():
    for module in _equal_lambda_modules():
        degree = 3 if module.m == 2 else 1
        report = w_invariance_check(module, 1, 2)
        assert report.ok and _window_invariance(module, 1, 2, degree) == []
    planted = _PlantedDefect([A, OmegaParams(F(1), F(1), F(1), A.lam, (F(2),))], "a")
    assert w_invariance_check(planted, 1, 2).escapes
    assert _window_invariance(planted, 1, 2, 2)


@pytest.mark.parametrize("family", ["L", "a", "d"])
def test_w_invariance_grid_catches_top_degree_defect(family):
    module = _PlantedDefect([A, OmegaParams(F(1), F(1), F(1), A.lam, (F(2),))], family)
    report = _degree_sweep(module, 1, 2, max_total_degree=3)
    top = 1 if family == "L" else 0
    # Only the last grid point n = D sees the defect, for every basis vector.
    assert report.escapes == [f"{family}[{max(module.s_profile(w)) + top}] on {w}"
                              for w in w_witness_basis(module, 1, 2, 3)]
    assert report.max_index_degree == 3 + 1
    # The probes have s-profile zero, so their grids end at n = [X = L].
    probes = w_invariance_check(module, 1, 2)
    assert probes.escapes == [f"{family}[{top}] on {v}" for v in ("1", "t1", "t2")]
    assert probes.max_index_degree == 1


def test_w_invariance_grid_size_and_degree():
    # m = 2, one lambda class: a basis vector (s1 + s2)^p t1^q1 t2^q2 needs
    # p + 2 images of L and p + 1 of each other family.
    T = TensorModule([A, OmegaParams(F(1), F(1), F(1), A.lam, (F(2),))])
    report = _degree_sweep(T, 1, 2, max_total_degree=6)
    assert report.ok and report.basis_size == 84
    assert report.images_checked == 1134 and report.max_index_degree == 7
    # The probes 1, t1, t2 need 2 images of L and 1 of each other family.
    probes = w_invariance_check(T, 1, 2)
    assert probes.ok and probes.probes == 3
    assert probes.images_checked == 18 and probes.max_index_degree == 1
    T3 = TensorModule([*T.factors, B])
    probes = w_invariance_check(T3, 1, 2)
    assert probes.ok and probes.images_checked == 36 and probes.max_index_degree == 1


def _probe_modules():
    """Seeded T modules with lambda_1 = lambda_2, for m = 2, 3 and deg g = 0, 1, 2."""
    rng = random.Random(97)
    for m in (2, 3):
        for g_degree in (0, 1, 2):
            lam = rng.choice([F(2), F(-3), F(1, 2)])
            lams = [lam, lam] + [lam * 5] * (m - 2)
            factors = []
            for la in lams:
                g = [F(rng.randint(-2, 2)) for _ in range(g_degree)] + [F(rng.choice([1, -1, 2]))]
                factors.append(OmegaParams(F(rng.randint(-3, 3), rng.randint(1, 2)),
                                           F(rng.choice([1, -2, 3])), F(rng.randint(-2, 2)),
                                           la, tuple(g)))
            yield factors


_MUTATIONS = {
    "s_i in d": lambda fs: _Mutated(fs, "d", 1, 1),
    "s_i in b": lambda fs: _Mutated(fs, "b", 1, 1),
    "s_i^2 in L": lambda fs: _Mutated(fs, "L", 1, 2),
    "lambda_j perturbed": lambda fs: TensorModule([fs[0], OmegaParams(
        fs[1].alpha, fs[1].beta, fs[1].gamma, fs[1].lam + 1, fs[1].g), *fs[2:]]),
}


def test_w_invariance_probes_agree_with_degree_sweep():
    for factors in _probe_modules():
        degree = 3 if len(factors) == 2 else 2
        for module in [TensorModule(factors)] + [mutate(factors) for mutate in _MUTATIONS.values()]:
            probes = w_invariance_check(module, 1, 2)
            assert probes.proper
            assert probes.ok == _degree_sweep(module, 1, 2, degree).ok, (module, factors)


def test_w_invariance_derivative_test_agrees_with_span_membership():
    for factors in _probe_modules():
        for module in [TensorModule(factors)] + [mutate(factors) for mutate in _MUTATIONS.values()]:
            report = w_invariance_check(module, 1, 2)
            assert (report.escapes, report.proper) == _span_membership_probes(module, 1, 2)
    for family in FAMILIES:
        module = _PlantedDefect([A, OmegaParams(F(1), F(1), F(1), A.lam, (F(2),))], family)
        report = w_invariance_check(module, 1, 2)
        assert report.escapes
        assert (report.escapes, report.proper) == _span_membership_probes(module, 1, 2)


@pytest.mark.parametrize("mutation", list(_MUTATIONS))
def test_w_invariance_probes_catch_mutation(mutation):
    for factors in _probe_modules():
        report = w_invariance_check(_MUTATIONS[mutation](factors), 1, 2)
        assert not report.ok and report.escapes, (mutation, factors)


def test_w_invariance_proper_witness():
    T = TensorModule([A, OmegaParams(F(1), F(1), F(1), A.lam, (F(2),)), B])
    basis = SpanBasis()
    for w in w_witness_basis(T, 1, 2, 1):
        basis.add(w.terms)
    assert basis.contains(T.one().terms) and not basis.contains(T.ring.var("s1").terms)
    assert basis.contains((T.ring.var("s1") + T.ring.var("s2")).terms)
    assert w_invariance_check(T, 1, 2).proper


def _apply_symbol(op, module, f):
    """sum c s^i t^j (d^k f / dt^k)(s - n, t) over the flat terms (n, k, i, j): c of op."""
    out = module.ring.zero()
    for (n, k, i, j), c in op.terms.items():
        h = f
        for _ in range(k):
            h = h.derive("t")
        out = out + module.ring.monomial({"s": i, "t": j}, c) * h.shift("s", n)
    return out


def _symbol_part(op, n, k, module):
    """The coefficient of (d/dt)^k tau^n in a rank-one symbol, with (L0, a0) read as (s, t)."""
    return SparsePoly(module.ring, {(i, j): c for (n2, k2, i, j), c in op.terms.items()
                                    if (n2, k2) == (n, k)})


def test_factor_action_is_the_rank_one_symbol():
    """The structural assumption of w_invariance_check and operator_form, read off the code.

    Each family's symbol is first order in d/dt with shift n and coefficients
    of s-degree at most 1, omega_factor_act applies exactly that symbol, and
    operator_form returns its k = 0 and k = 1 coefficients at shift n.
    """
    rng = random.Random(59)
    for par in (A, B, C, OmegaParams(F(2), F(-1, 2), F(3), F(-3), ())):
        M = OmegaModule(par)
        data = rank1_data_from_action(OmegaModule(par))
        vectors = [M.one(), M.ring.var("t"), M.ring.var("t", 3) + M.ring.var("t") * F(2, 3)]
        vectors += [random_vector(M.ring, rng, max_total_degree=2, terms=3) for _ in range(2)]
        for fam in FAMILIES:
            for n in (-2, -1, 0, 1, 3):
                op = _candidate_operator(data, gen(fam, n))
                assert {key[0] for key in op.terms} == {n}
                assert all(k <= 1 and i <= 1 for _, k, i, _ in op.terms)
                for f in vectors:
                    assert (omega_factor_act(M, gen(fam, n), f)
                            == _apply_symbol(op, M, f)), (par, fam, n, f)
                assert operator_form(M, gen(fam, n)) == (
                    _symbol_part(op, n, 0, M), _symbol_part(op, n, 1, M)), (fam, n)


# -- the former window-growth loops, kept as oracles for the exact orbits ----


def _grown_span(module, families, g, window):
    """The former window-growth loop of the orbit spans: add X[n] g for n < window, then
    one index at a time until the dimension is stable for max(2, m) growths."""
    basis = SpanBasis()
    basis.add(g.terms)

    def add(n):
        for fam in families:
            basis.add(module.act(gen(fam, n), g).terms)

    for n in range(window):
        add(n)
    n, stable = window, 0
    while stable < max(2, module.m):
        before = basis.dim
        add(n)
        n += 1
        stable = stable + 1 if basis.dim == before else 0
    return basis


def _grown_solve(module, family, v, target, base_window, growths):
    """The former extraction solvers: windows from base_window on, growths tries
    (m + 6 in the tensor solver, 6 in the omega one)."""
    for w in range(max(base_window, 1), base_window + growths):
        words = [()] + [(gen(family, n),) for n in range(w)]
        columns = [dict(v.terms)] + [dict(module.act(gen(family, n), v).terms)
                                     for n in range(w)]
        combo = combination(columns, dict(target.terms))
        if combo is not None:
            return CertStep(tuple((c, word) for c, word in zip(combo, words) if c))
    return None


def _seeded_modules(seed, repeated):
    """T modules for m = 1..3; with ``repeated`` factors 1 and 2 share lambda."""
    rng = random.Random(seed)
    for m in (1, 2, 2, 3, 3):
        lams = rng.sample([F(2), F(-3), F(1, 2), F(5), F(-1, 3)], m)
        if repeated and m > 1:
            lams[1] = lams[0]
        yield TensorModule([
            OmegaParams(F(rng.randint(-3, 3), rng.randint(1, 2)), F(rng.choice([1, -2, 3])),
                        F(rng.randint(-2, 2)), lam,
                        tuple(F(rng.randint(-2, 2)) for _ in range(rng.randint(0, 2))))
            for lam in lams
        ]), rng


@pytest.mark.parametrize("repeated", [False, True], ids=["distinct", "repeated"])
def test_exact_orbit_spans_agree_with_growth_oracle(repeated):
    for module, rng in _seeded_modules(41 + repeated, repeated):
        for _ in range(4):
            g = random_vector(module.ring, rng, max_total_degree=2, terms=3)
            profile = module.s_profile(g)
            for family, per_factor in (("L", 2), ("a", 1)):
                basis = _exact_span(module, [family], g)
                oracle = _grown_span(module, [family], g, sum(p + per_factor for p in profile) + 1)
                assert basis.dim == oracle.dim
                assert span_vectors(basis) == span_vectors(oracle)
            oracle = _grown_span(module, ["a", "c"], g, max(sum(p + 1 for p in profile), 1))
            assert r_g(module, g) == oracle.dim


def test_orbit_components_agree_with_growth_oracle():
    """Each step builder, its closed-form target and the former grown solve reach one
    vector: s_k v, and (-1)^p times the n^p lam_k^n part of the a-orbit, p the
    s_k-degree, on s_k-free vectors (p = 0) and on others."""
    for module, rng in _seeded_modules(43, repeated=False):
        for _ in range(3):
            v = random_vector(module.ring, rng, max_total_degree=2, terms=3)
            profile = module.s_profile(v)
            k = rng.randint(1, module.m)
            p = profile[k - 1]
            s_free = SparsePoly(module.ring, {e: c for e, c in v.terms.items() if not e[k - 1]})
            cases = [("L", _times_s, v, v.mul_var(module.svar(k)), sum(q + 2 for q in profile)),
                     ("a", _top_slice, v, _component_target(module, "a", v, k, p) * (-1) ** p,
                      sum(q + 1 for q in profile))]
            if p and not s_free.is_zero:
                cases.append(("a", _top_slice, s_free, s_free.mul_var(module.tvar(k)),
                              sum(q + 1 for q in module.s_profile(s_free))))
            for family, build, w, target, base in cases:
                step, got = build(module, w, k)
                assert got == target and step.apply(module, w) == target
                assert _grown_solve(module, family, w, target, base, module.m + 6).apply(
                    module, w) == target
    M = OmegaModule(A)
    for p in (1, 2, 4):
        v = M.ring.monomial({"s": p, "t": 1}) + M.ring.monomial({"s": 1})
        target = SparsePoly(M.ring, {(0, q): c for (e, q), c in v.terms.items() if e == p})
        step = orbit_component(M, "c", v, A.lam, p, F((-1) ** (p + 1)) / A.beta)
        assert step.apply(M, v) == target
        assert _grown_solve(M, "c", v, target, p + 1, 6).apply(M, v) == target


def _component_target(module, family, v, k, x):
    """The n^x lam_k^n part of X[n] v in closed form, from the rules of ``omega_factor_act``.

    tau_k^n v = sum_y n^y (-1)^y / y! d^y v / ds_k^y, and factor k applies
    lam_k^n (s_k + n alpha), t_k, -beta, g(t_k) + beta d/dt_k or
    (t_k g(t_k) + gamma) / beta + t_k d/dt_k to it.
    """
    par, s, t = module.factors[k - 1], module.svar(k), module.tvar(k)
    tk = module.ring.var(t)
    g = sum((module.ring.var(t, j) * c for j, c in enumerate(par.g)), module.ring.zero())

    def part(y):
        if y < 0:
            return module.ring.zero()
        w = v
        for _ in range(y):
            w = w.derive(s)
        return w * F((-1) ** y, math.factorial(y))

    if family == "L":
        return part(x).mul_var(s) + part(x - 1) * par.alpha
    if family == "a":
        return part(x).mul_var(t)
    if family == "b":
        return g * part(x) + part(x).derive(t) * par.beta
    if family == "c":
        return part(x) * -par.beta
    return (tk * g + par.gamma) * part(x) * (1 / par.beta) + part(x).derive(t).mul_var(t)


def _vandermonde_row(degrees, lam, x):
    """Row (lam, x) of the inverse of the N x N matrix with rows n^y mu^n, by one dense solve."""
    columns = [(mu, y) for mu, d in degrees.items() for y in range(d + 1)]
    rows = [{j: F(n**y) * mu**n for j, (mu, y) in enumerate(columns)} for n in range(len(columns))]
    return combination(rows, {columns.index((lam, x)): F(1)})


def test_orbit_component_is_one_step_per_profile():
    """One component step per (family, s-profile, lam_k, x) has the weights of the
    N x N generalized Vandermonde inverse and reaches the closed-form part on
    several vectors of that profile; ``dt_step`` is d/dt_k on s-free ones."""
    rng = random.Random(47)
    for module, _ in _seeded_modules(47, repeated=False):
        m = module.m
        profile = [rng.randint(0, 2) for _ in range(m)]
        top = module.ring.monomial({module.svar(k): p for k, p in enumerate(profile, 1)})

        def vector(s_free=False):
            v = top * F(rng.randint(1, 3)) if not s_free else module.ring.zero()
            for _ in range(3):
                exps = {module.tvar(k): rng.randint(0, 2) for k in range(1, m + 1)}
                if not s_free:
                    exps.update({module.svar(k): rng.randint(0, p)
                                 for k, p in enumerate(profile, 1)})
                v = v + module.ring.monomial(exps) * F(rng.randint(-3, 3), rng.randint(1, 2))
            return v

        vectors = [vector() for _ in range(3)]
        assert all(module.s_profile(v) == profile for v in vectors)
        for family in FAMILIES:
            for k, par in enumerate(module.factors, 1):
                for x in range(module.index_degrees(family, top)[par.lam] + 1):
                    step = orbit_component(module, family, vectors[0], par.lam, x)
                    row = _vandermonde_row(module.index_degrees(family, top), par.lam, x)
                    assert step.combo == tuple((w, (gen(family, n),))
                                               for n, w in enumerate(row) if w)
                    for v in vectors:
                        assert step.apply(module, v) == _component_target(module, family, v, k, x)
        for k, par in enumerate(module.factors, 1):
            step = dt_step(module, par)
            for v in (vector(s_free=True) for _ in range(3)):
                assert step.apply(module, v) == v.derive(module.tvar(k))
    M = OmegaModule(A)
    for q in range(4):
        v = M.ring.monomial({"t": q}) * 3 + M.ring.var("t")
        assert dt_step(M, A).apply(M, v) == v.derive("t")


def test_orbit_points_counts_one_block_per_lambda():
    T = TensorModule([A, OmegaParams(F(1), F(1), F(1), A.lam, (F(2),)), B])
    v = T.ring.monomial({"s1": 2, "s2": 1, "s3": 1, "t3": 2})
    # lambda classes {1, 2} and {3}: D = max(2, 1) + [X = L] and 1 + [X = L].
    assert orbit_points(T.index_degrees("L", v)) == (3 + 1) + (2 + 1)
    assert (orbit_points(T.index_degrees("a", v)) == orbit_points(T.index_degrees("c", v))
            == (2 + 1) + (1 + 1))
    assert orbit_points(T.index_degrees("b", T.ring.var("t1"))) == 2
    # One lambda: s-degree + 1 points, and one more for L's n alpha.
    M = OmegaModule(A)
    for p in (0, 1, 3):
        v = M.ring.monomial({"s": p, "t": 2}) + M.ring.monomial({"t": 1})
        for family in ("a", "b", "c", "d"):
            assert orbit_points(M.index_degrees(family, v)) == p + 1
        assert orbit_points(M.index_degrees("L", v)) == p + 2


def _check_index_bound(module, family, v, normalize=None, window=range(-4, 4)):
    """prod_lam (E - lam)^(D_lam + 1), E the shift n -> n + 1, kills n -> X[n] v on the window.

    ``normalize(w, n)`` first moves x0^(e + n) back to x0^e on an F module with an M-type P0.
    """
    q = [F(1)]  # the coefficients of prod_lam (z - lam)^(D_lam + 1), constant term first
    for lam, d in module.index_degrees(family, v).items():
        for _ in range(d + 1):
            q = [a - lam * b for a, b in zip([F(0), *q], [*q, F(0)])]
    images = {}
    for n in range(window.start, window.stop + len(q)):
        w = module.act(gen(family, n), v)
        images[n] = normalize(w, n) if normalize else w
    for n in window:
        total = module.ring.zero()
        for k, c in enumerate(q):
            total = total + images[n + k] * c
        assert total.is_zero, (family, v, n)


def _f_modules():
    """All eight F kinds: P0 and x1 each M or Omega, V one-dimensional or Whittaker."""
    for p0, x1, v_space in itertools.product(
            (MFactor(F(1, 5)), OmegaFactor(F(-2))), (MFactor(F(2, 3)), OmegaFactor(F(3))),
            (OneDim(F(-7, 2)), Whittaker())):
        yield FModule(F(1, 3), F(-2), p0, x1, v_space)


def test_index_degrees_bound_every_orbit():
    """Each family's ``index_degrees`` is a true bound, the premise of every complete grid."""
    rng = random.Random(83)
    for par in (A, B, C):
        M = OmegaModule(par)
        for p in (0, 1, 2):
            v = M.ring.monomial({"s": p, "t": 2}) * 3 + M.ring.monomial({"s": rng.randint(0, p)})
            for family in FAMILIES:
                _check_index_bound(M, family, v)
    repeated = OmegaParams(F(1), F(1), F(1), A.lam, (F(2),))
    for T in (TensorModule([A, B]), TensorModule([A, repeated]), TensorModule([A, repeated, B])):
        for profile in itertools.product((0, 1, 2), repeat=T.m):
            exps = {T.svar(k): p for k, p in enumerate(profile, 1)}
            v = T.ring.monomial({**exps, "t1": 1}) + T.ring.monomial({T.tvar(T.m): 2}) * F(-1, 2)
            for family in FAMILIES:
                _check_index_bound(T, family, v)
    for module in _f_modules():
        var0, var1 = module.ring.names[:2]
        omega_p0 = var0 == "d0"
        normalize = None if omega_p0 else (lambda w, n: w.mul_var("x0", -n))
        extra = {"h": 1} if "h" in module.ring.names else {}
        for p in (0, 1, 2):
            e0 = p if omega_p0 else rng.randint(-2, 2)
            e1 = rng.randint(0, 2) if var1 == "d1" else rng.randint(-2, 2)
            v = (module.ring.monomial({var0: e0, var1: e1, **extra})
                 + module.ring.monomial({var1: e1 + 1}) * F(2, 3))
            assert module.index_degrees("c", v) == {
                module.factors[0].lam if omega_p0 else F(1): p if omega_p0 else 0}
            for family in FAMILIES:
                _check_index_bound(module, family, v, normalize)


def test_index_degrees_are_the_family_degree_plus_the_vector_part():
    """``PullbackModule.index_degrees`` adds only the vector's part to the reader's family
    degree, on F, Omega and T modules."""
    for module in _f_modules():
        table = ab_terms(module.alpha, module.beta)
        on_eps, omega_p0 = isinstance(module.v_space, OneDim), module.ring.names[0] == "d0"
        scale = module.factors[0].lam if omega_p0 else F(1)
        for p in (0, 1, 3):
            v = module.ring.monomial({module.ring.names[0]: p}) + module.ring.one()
            for family in FAMILIES:
                # e acts as 0 on C_eps, so its terms take no part there.
                degree = index_degree([t for t in table[family] if not (on_eps and t[1][1])])
                assert degree == (family == "L") + (not on_eps and family in ("a", "d"))
                assert module.index_degrees(family, v) == {scale: degree + omega_p0 * p}
    repeated = OmegaParams(F(1), F(1), F(1), A.lam, (F(2),))
    for factors in ((A,), (B,), (A, B), (A, repeated), (A, repeated, B)):
        module = OmegaModule(factors[0]) if len(factors) == 1 else TensorModule(factors)
        tables = [abgg_terms(par.alpha + 1, par.beta, par.gamma, par.g) for par in factors]
        for profile in itertools.product((0, 1, 2), repeat=module.m):
            v = module.ring.monomial(
                {module.svar(k): p for k, p in enumerate(profile, 1)}) + module.ring.one()
            for family in FAMILIES:
                want: dict = {}
                for par, table, p in zip(factors, tables, profile):
                    degree = index_degree(table[family])
                    assert degree == (family == "L")
                    want[par.lam] = max(want.get(par.lam, 0), p + degree)
                assert module.index_degrees(family, v) == want, (factors, profile, family)


def test_reduction_builds_one_derivative_step_per_factor(monkeypatch):
    T = TensorModule([A, B, C])
    calls = []

    def counting(module, par):
        calls.append(par)
        return dt_step(module, par)

    monkeypatch.setattr(omega, "dt_step", counting)
    cert, _ = tensor_reduce_to_bottom(T, T.ring.monomial({"s1": 1, "t1": 2, "t3": 2}))
    # One extraction to t1^3 t3^2, then d/dt1 three times and d/dt3 twice; factor 2 takes none.
    assert calls == [A, C]
    assert cert.steps[1:] == [dt_step(T, A)] * 3 + [dt_step(T, C)] * 2
