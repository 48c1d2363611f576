"""Acceptance criteria.

Every check below is exact (tolerance zero).  Each criterion is one test
that prints a single PASS line once all of its assertions hold; run with
``pytest tests/test_acceptance.py -v -s`` to see the per-criterion lines.
"""

import itertools
import random
from fractions import Fraction as F

from conftest import criterion_08_modules, sample_vectors

from wittdiamond.axioms import module_axiom_check, random_vector
from wittdiamond.exceptions import NotAModule
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
from wittdiamond.homomorphisms import (
    CorruptedPhiAB,
    PhiAB,
    PhiABGG,
    check_all_witnesses,
    image_witnesses,
    surjectivity_witnesses,
    verify_hom,
)
from wittdiamond.lie import bracket, generators_in_window, jacobi_residual
from wittdiamond.linalg import SpanBasis
from wittdiamond.omega import (
    Degenerate,
    OmegaModule,
    OmegaParams,
    RANK1_RING,
    Rank1ActionData,
    classify_rank1,
    omega_reduce_to_one,
    rank1_data_from_action,
    uh_rank,
)
from wittdiamond.oracle import (
    ClosureReport,
    TruncationPolicy,
    naive_det,
    truncated_closure,
)
from wittdiamond.poly import SparsePoly
from wittdiamond.tensor import (
    DetSpec,
    TensorModule,
    det_matrix,
    det_r,
    iso_check,
    r_g,
    tensor_generate,
    tensor_reduce_to_bottom,
    w_invariance_check,
)


def _report(number: int, text: str) -> None:
    print(f"[criterion {number:02d}] PASS  {text}")


def _random_rational(rng, lo=-6, hi=6, nonzero=False):
    while True:
        val = F(rng.randint(lo, hi), rng.randint(1, 4))
        if val or not nonzero:
            return val


def test_criterion_01_structure_constants():
    gens = generators_in_window(3)
    assert len(gens) == 35
    anti = sum(
        1 for x in gens for y in gens if not (bracket(x, y) + bracket(y, x)).is_zero
    )
    jac = sum(
        1
        for x, y, z in itertools.product(gens, repeat=3)
        if not jacobi_residual(x, y, z).is_zero
    )
    assert anti == 0 and jac == 0
    _report(1, f"antisymmetry + Jacobi: 0 violations over {len(gens) ** 3} triples")


def test_criterion_02_homomorphism_property():
    rng = random.Random(101)
    for _ in range(5):
        phi = PhiAB(_random_rational(rng), _random_rational(rng, nonzero=True))
        assert verify_hom(phi, 3).ok
    for _ in range(5):
        g = tuple(_random_rational(rng, -3, 3) for _ in range(rng.randint(1, 4)))
        phi = PhiABGG(
            _random_rational(rng),
            _random_rational(rng, nonzero=True),
            _random_rational(rng),
            g,
        )
        assert verify_hom(phi, 3).ok
    corrupted = verify_hom(CorruptedPhiAB(F(1, 2), F(3)), 3)
    assert not corrupted.ok
    _report(2, "both maps bracket-compatible (W=3, 5 tuples each); corrupted control fails")


def test_criterion_03_image_and_surjectivity_witnesses():
    phi = PhiAB(F(1, 2), F(3))
    wit = image_witnesses(phi)
    assert len(wit) == 7
    assert check_all_witnesses(phi, wit) == []
    phig = PhiABGG(F(1, 2), F(3), F(2), (F(1), F(0), F(1)))
    witg = surjectivity_witnesses(phig)
    assert len(witg) == 4
    assert check_all_witnesses(phig, witg) == []
    _report(3, "all 7 + 4 witness pairs round-trip exactly")


def _random_instances(rng):
    def nz():
        return _random_rational(rng, 1, 5, nonzero=True) * rng.choice([1, -1])

    def params():
        return _random_rational(rng), nz()

    yield "F(M,C_eps)", lambda: FModule(*params(), MFactor(nz()), MFactor(nz()), OneDim(nz()))
    yield "F(Omega,C_eps)", lambda: FModule(
        *params(), OmegaFactor(nz()), OmegaFactor(nz()), OneDim(nz())
    )
    yield "F(M,Whittaker)", lambda: FModule(*params(), MFactor(nz()), MFactor(nz()), Whittaker())
    yield "F(P0xM,C_eps)", lambda: FModule(
        *params(), OmegaFactor(nz()), MFactor(nz()), OneDim(nz())
    )

    def omega_params(lam=None):
        return OmegaParams(
            _random_rational(rng),
            nz(),
            _random_rational(rng),
            lam if lam is not None else nz(),
            tuple(_random_rational(rng, -2, 2) for _ in range(rng.randint(1, 3))),
        )

    yield "Omega", lambda: OmegaModule(omega_params())
    yield "T(m=2)", lambda: TensorModule([omega_params(F(2)), omega_params(F(3))])


def test_criterion_04_representation_property():
    rng = random.Random(202)
    for name, build in _random_instances(rng):
        for _ in range(3):
            module = build()
            vectors = sample_vectors(module.ring, rng, count=3, max_total_degree=3)
            report = module_axiom_check(module, 2, vectors)
            assert report.ok, (name, report.violations[:3])
    _report(4, "module axioms: 0 violations on all six families, 3 tuples each, W=2")


def test_criterion_05_q_operator():
    rng = random.Random(303)
    instances = [
        FModule(F(1, 2), F(3), MFactor(F(0)), MFactor(F(1, 2)), OneDim(F(2))),
        FModule(F(0), F(2), OmegaFactor(F(2)), OmegaFactor(F(5)), OneDim(F(-1, 3))),
        FModule(F(1), F(-2), OmegaFactor(F(3)), MFactor(F(1, 4)), OneDim(F(1))),
    ]
    for module in instances:
        eps = module.v_space.eps
        for _ in range(10):
            v = random_vector(module.ring, rng, max_total_degree=3, terms=3)
            assert q_action(module, v) == v * eps
    whit = FModule(F(1, 2), F(3), MFactor(F(0)), MFactor(F(1, 2)), Whittaker())
    v = whit.one()
    qv = q_action(whit, v)
    span = SpanBasis()
    span.add(v.terms)
    assert span.add(qv.terms), "Q image must be independent of the vector"
    _report(5, "Q = eps on 30 random one-dimensional-V vectors; "
               f"non-proportional pair (1, {qv}) on the Whittaker family")


# (beta, w, eps) with -eps/beta - w not an integer, and (beta, w, eps, witness).
CRITERION_06_SIMPLE = [
    (F(1), F(1, 2), F(0)),
    (F(2), F(0), F(1)),
    (F(1), F(-1, 3), F(0)),
    (F(3), F(1, 4), F(1, 2)),
    (F(-2), F(2, 3), F(1, 5)),
]
CRITERION_06_NON_SIMPLE = [
    (beta, w, -beta * (w + n0), n0)
    for beta, w, n0 in [(F(1), F(2), 1), (F(2), F(0), -2), (F(1), F(-1), 3), (F(-1), F(1), 0),
                        (F(3), F(-2), -3)]
]


def _criterion_06_box(level: int) -> TruncationPolicy:
    """A box reaching past x1-level k; inside the invariant subspace the closure would fill it."""
    return TruncationPolicy(max_total_degree=max(3, abs(level) + 2), generator_window=2,
                            max_steps=48)


def test_criterion_06_epsilon_simplicity_vs_closure():
    policy = TruncationPolicy(max_total_degree=3, generator_window=2, max_steps=48)
    for beta, w, eps in CRITERION_06_SIMPLE:
        module = FModule(F(1, 3), beta, MFactor(F(1, 5)), MFactor(w), OneDim(eps))
        verdict = epsilon_simplicity(module)
        assert verdict.simple
        closure = truncated_closure(module, module.one(), policy)
        assert closure.verdict == ClosureReport.FILLS, (beta, w, eps, closure)
    for beta, w, eps, n0 in CRITERION_06_NON_SIMPLE:
        module = FModule(F(1, 3), beta, MFactor(F(1, 5)), MFactor(w), OneDim(eps))
        verdict = epsilon_simplicity(module)
        assert not verdict.simple and verdict.witness == n0
        start = module.ring.monomial({"x1": n0})
        closure = truncated_closure(module, start, _criterion_06_box(n0))
        assert closure.verdict == ClosureReport.PROPER, (beta, w, eps, n0, closure)
    _report(6, "criterion verdict matches closure oracle on 5 simple + 5 non-simple tuples")


def test_criterion_06_barrier_check_agrees_with_the_closure():
    # The barrier check at level k is complete exactly when the closure from x1^k ends
    # proper: at the witness and not one level above it, and at no level of a simple module.
    levels = [(beta, w, eps, k) for beta, w, eps in CRITERION_06_SIMPLE for k in (0, 1)]
    levels += [(beta, w, eps, k) for beta, w, eps, n0 in CRITERION_06_NON_SIMPLE
               for k in (n0, n0 + 1)]
    for beta, w, eps, k in levels:
        module = FModule(F(1, 3), beta, MFactor(F(1, 5)), MFactor(w), OneDim(eps))
        barrier = barrier_invariance_check(module, k)
        closure = truncated_closure(module, module.ring.monomial({"x1": k}), _criterion_06_box(k))
        assert barrier.ok == (closure.verdict == ClosureReport.PROPER), (beta, w, eps, k, closure)
        assert barrier.ok == (epsilon_simplicity(module).witness == k)
    _report(6, f"barrier check agrees with the closure oracle at {len(levels)} levels")


def test_criterion_07_reduction_certificates():
    rng = random.Random(404)
    tuples = [
        OmegaParams(F(1, 2), F(3), F(0), F(2), (F(2),)),
        OmegaParams(F(-1), F(1), F(1), F(3), (F(0), F(1))),
        OmegaParams(F(0), F(-2), F(1, 2), F(-1), (F(1), F(0), F(1))),
    ]
    total = 0
    for par in tuples:
        module = OmegaModule(par)
        for _ in range(20):
            v = random_vector(module.ring, rng, max_total_degree=3, terms=3)
            cert = omega_reduce_to_one(module, v)
            assert cert.replay(module, v) == module.one()
            total += 1
    _report(7, f"{total} replay-exact reductions to 1 across deg(g) in {{0,1,2}}")


def test_criterion_08_uh_rank():
    for g, module in criterion_08_modules():
        report = uh_rank(module)
        assert report.ok and report.rank == len(g)
        assert [(name, str(probe)) for name, probe, _ in report.images] == [
            ("L[0]", "1"), ("L[0]", "t"), ("d[0]", "1"), ("d[0]", "t")]
    _report(8, "free rank = deg(g)+1 proved in every degree from four probe images")


def test_criterion_09_classification():
    rng = random.Random(606)
    for _ in range(10):
        par = OmegaParams(
            _random_rational(rng),
            _random_rational(rng, 1, 5, nonzero=True) * rng.choice([1, -1]),
            _random_rational(rng),
            _random_rational(rng, 1, 5, nonzero=True) * rng.choice([1, -1]),
            tuple(_random_rational(rng, -2, 2) for _ in range(rng.randint(0, 3))),
        )
        assert classify_rank1(rank1_data_from_action(OmegaModule(par))) == par
    degenerate = classify_rank1(
        Rank1ActionData(
            lam=F(2),
            p=RANK1_RING.const(F(1, 2)),
            B0=RANK1_RING.zero(),
            C0=RANK1_RING.zero(),
            D0=RANK1_RING.const(F(5)),
        )
    )
    assert isinstance(degenerate, Degenerate)
    base = rank1_data_from_action(OmegaModule(OmegaParams(F(1, 2), F(3), F(0), F(2), (F(0), F(0), F(1)))))
    bad = Rank1ActionData(lam=base.lam, p=RANK1_RING.var("a0"),
                          B0=base.B0, C0=base.C0, D0=base.D0)
    try:
        classify_rank1(bad)
        raise AssertionError("non-constant p must be rejected")
    except NotAModule as exc:
        assert exc.relation.startswith("(2)")
    _report(9, "10 round-trips; C0 = 0 reported Degenerate; p = a0 rejected at relation (2)")


def test_criterion_10_determinant_lemma():
    alphas = tuple(F(a) for a in (1, 2, 3, 5, 7, -2))
    specs = 0
    naive_checked = 0
    for m in range(1, 4):
        for subset in itertools.permutations(alphas, m):
            for sizes in itertools.product(range(1, 4), repeat=m):
                for r in range(3):
                    spec = DetSpec(subset, sizes, r)
                    result = det_r(spec)
                    assert result.ok, spec
                    specs += 1
                    if sum(sizes) <= 6:
                        assert naive_det(det_matrix(spec)) == result.computed
                        naive_checked += 1
    _report(10, f"determinant = closed form on {specs} specs; "
                f"naive cofactor agrees on {naive_checked} of size <= 6")


def test_criterion_11_tensor_simplicity():
    rng = random.Random(707)
    A = OmegaParams(F(1, 2), F(3), F(0), F(2), (F(1), F(0), F(1)))
    B = OmegaParams(F(1), F(1), F(1), F(3), (F(2),))
    C = OmegaParams(F(-1), F(2), F(0), F(5), (F(0), F(1)))
    for factors in ([A, B], [A, B, C]):
        module = TensorModule(factors)
        for _ in range(5):
            v = random_vector(module.ring, rng, max_total_degree=2, terms=3)
            cert, bottom = tensor_reduce_to_bottom(module, v)
            assert cert.replay(module, v) == bottom
            assert bottom.coefficient((0,) * (2 * module.m)) != 0
            up = tensor_generate(module, max(v.terms))
            assert up.replay(module, module.one()) == SparsePoly(
                module.ring, {max(v.terms): F(1)}
            )
    equal = TensorModule([A, OmegaParams(F(1), F(1), F(1), A.lam, (F(2),))])
    report = w_invariance_check(equal, 1, 2)
    assert report.ok and report.escapes == [] and report.proper
    _report(11, "replay-exact reduction + generation for m=2,3; witness subspace "
                f"invariant for every n and degree ({report.probes} probes, "
                f"{report.images_checked} images, 0 escapes) and proper")


def test_criterion_12_orbit_rank_bound():
    rng = random.Random(808)
    A = OmegaParams(F(1, 2), F(3), F(0), F(2), (F(1),))
    B = OmegaParams(F(1), F(1), F(1), F(3), (F(2),))
    C = OmegaParams(F(-1), F(2), F(0), F(5), (F(0), F(1)))
    modules = [TensorModule(f) for f in ([A], [A, B], [A, B, C])]
    for module in modules:
        assert r_g(module, module.one()) == module.m + 1
    checked = 0
    while checked < 50:
        module = modules[checked % 3]
        m = module.m
        t_only = checked % 2 == 0
        if t_only:
            exps = []
            for _ in range(rng.randint(1, 3)):
                e = [0] * (2 * m)
                for k in range(m):
                    e[m + k] = rng.randint(0, 2)
                exps.append(tuple(e))
            terms = {e: F(rng.randint(1, 3)) for e in exps}
            v = SparsePoly(module.ring, terms)
        else:
            v = random_vector(module.ring, rng, max_total_degree=2, terms=3)
            if all(not any(e[:m]) for e in v.terms):
                v = v.mul_var(module.svar(1))
        if v.is_zero:
            continue
        value = r_g(module, v)
        in_bottom = all(not any(e[:m]) for e in v.terms)
        assert value >= m + 1
        assert (value == m + 1) == in_bottom
        checked += 1
    _report(12, "R_g >= m+1 on 50 random vectors with equality exactly on the t-only ones; "
                "R at the vacuum = m+1 for m = 1, 2, 3")


def test_criterion_13_isomorphism_classification():
    A = OmegaParams(F(1, 2), F(3), F(0), F(2), (F(1), F(0), F(1)))
    B = OmegaParams(F(1), F(1), F(1), F(3), (F(2),))
    TAB, TBA = TensorModule([A, B]), TensorModule([B, A])
    res = iso_check(TAB, TBA)
    assert res.isomorphic and res.permutation == (2, 1)

    def perturbed(field):
        kw = {"alpha": B.alpha, "beta": B.beta, "gamma": B.gamma, "lam": B.lam, "g": B.g}
        kw[field] = {
            "alpha": B.alpha + 1,
            "beta": B.beta + 2,
            "gamma": B.gamma - 1,
            "lam": F(7),
            "g": (F(2), F(5)),
        }[field]
        return OmegaParams(**kw)

    for field, invariant in [
        ("alpha", "alpha"),
        ("beta", "beta"),
        ("gamma", "gamma"),
        ("lam", "lambda"),
        ("g", "g"),
    ]:
        out = iso_check(TAB, TensorModule([A, perturbed(field)]))
        assert not out.isomorphic and out.invariant == invariant
    out = iso_check(TensorModule([A]), TAB)
    assert not out.isomorphic and out.invariant == "factor count"
    _report(13, "permutation recovered; 5 single-parameter perturbations and the "
                "factor-count case all distinguished by the named invariant")
