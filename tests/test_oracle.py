"""Brute-force oracles: truncated closure, free rewriting, naive determinants."""

import itertools
import random
from fractions import Fraction as F

import pytest
from oracles import fraction_closure, free_word_oracle

from wittdiamond import oracle
from wittdiamond.exceptions import NotApplicable
from wittdiamond.fock import FModule, MFactor, OmegaFactor, OneDim, Whittaker
from wittdiamond.lie import gen, generators_in_window, pbw_normalize
from wittdiamond.linalg import SpanBasis, exact_det
from wittdiamond.poly import SparsePoly
from wittdiamond.omega import OmegaModule, OmegaParams, omega_reduce_to_one
from wittdiamond.oracle import (
    ClosureReport,
    TruncationPolicy,
    naive_det,
    truncated_closure,
)
from wittdiamond.tensor import TensorModule


def test_closure_fills_for_simple_weight_module():
    module = FModule(F(1, 3), F(1), MFactor(F(1, 5)), MFactor(F(1, 2)), OneDim(F(0)))
    policy = TruncationPolicy(max_total_degree=3, generator_window=2, max_steps=32)
    report = truncated_closure(module, module.one(), policy)
    assert report.verdict == ClosureReport.FILLS
    assert report.reached_dim == report.ambient_dim


def test_closure_proper_below_barrier():
    # beta w + beta n + eps = 0 at n = 1: levels <= 1 form a submodule
    module = FModule(F(0), F(1), MFactor(F(1, 5)), MFactor(F(2)), OneDim(F(-3)))
    policy = TruncationPolicy(max_total_degree=3, generator_window=2, max_steps=32)
    report = truncated_closure(module, module.ring.var("x1"), policy)
    assert report.verdict == ClosureReport.PROPER
    assert report.reached_dim < report.ambient_dim
    # starting above the barrier the closure descends freely and fills
    report2 = truncated_closure(module, module.ring.var("x1", 2), policy)
    assert report2.verdict == ClosureReport.FILLS


def test_f_proper_closure_runs_as_many_rounds_as_the_witness_needs():
    # The barrier x1^31 needs 2*31 + 3 = 65 closure rounds, one past the default 64:
    # one per x1-level from 31 down to -33, and one that finds nothing new, in a box
    # two degrees above the barrier.
    module = FModule(F(1), F(1), MFactor(F(1, 3)), MFactor(F(0)), OneDim(F(-31)))
    box = TruncationPolicy(max_total_degree=31 + 2, max_steps=2 * 31 + 3)
    report = truncated_closure(module, module.ring.monomial({"x1": 31}), box)
    assert report.verdict == ClosureReport.PROPER and report.rounds == 65


def test_full_closure_basis_is_not_grown_but_every_pair_is_still_acted_on(monkeypatch):
    module = FModule(F(1, 3), F(1), MFactor(F(1, 5)), MFactor(F(1, 2)), OneDim(F(0)))
    policy = TruncationPolicy(max_total_degree=3, generator_window=2, max_steps=32)
    ambient = sum(1 for _ in oracle.monomials_within(module.ring, 3))
    acts, adds_when_full, full_at = [], [], []

    class CountingBasis(SpanBasis):
        def add(self, terms):
            adds_when_full.append(self.dim >= ambient)
            grew = super().add(terms)
            if self.dim >= ambient and not full_at:
                full_at.append(len(acts))
            return grew

    # The closure acts through the integer kernel, one call per (vector, generator) pair.
    kernel = oracle.act_numerators
    monkeypatch.setattr(oracle, "act_numerators",
                        lambda nums, rules: acts.append((nums, rules)) or kernel(nums, rules))
    monkeypatch.setattr(oracle, "SpanBasis", CountingBasis)
    report = truncated_closure(module, module.one(), policy)
    assert report.verdict == ClosureReport.FILLS and report.reached_dim == ambient
    assert not any(adds_when_full)
    # The round that fills the box still acts on its remaining pairs, and counts their overflow.
    assert len(acts) > full_at[0]
    generator_of = {id(module.rules(g)[0]): g for g in generators_in_window(2)}
    assert report.overflow_count == sum(
        1 for nums, rules in acts
        if any(sum(map(abs, e)) > 3 for e in module.act(
            generator_of[id(rules)], SparsePoly(module.ring, {e: F(c) for e, c in nums.items()})
        ).terms))


def test_closure_fills_for_omega_from_one():
    M = OmegaModule(OmegaParams(F(1), F(2), F(0), F(3), (F(1), F(1))))
    policy = TruncationPolicy(max_total_degree=3, generator_window=2, max_steps=32)
    report = truncated_closure(M, M.one(), policy)
    assert report.verdict == ClosureReport.FILLS


def test_closure_proper_for_equal_lambda_tensor():
    lam = F(2)
    T = TensorModule(
        [
            OmegaParams(F(1), F(1), F(0), lam, (F(1),)),
            OmegaParams(F(2), F(3), F(1), lam, (F(2),)),
        ]
    )
    policy = TruncationPolicy(max_total_degree=3, generator_window=2, max_steps=48)
    report = truncated_closure(T, T.one(), policy)
    assert report.verdict == ClosureReport.PROPER
    assert report.reached_dim < report.ambient_dim


def test_closure_consistent_with_reduction_certificates():
    # a successful reduction to 1 from v precludes a proper closure verdict
    M = OmegaModule(OmegaParams(F(1), F(2), F(1), F(3), (F(1),)))
    policy = TruncationPolicy(max_total_degree=3, generator_window=2, max_steps=48)
    v = M.ring.monomial({"s": 1, "t": 1})
    assert omega_reduce_to_one(M, v).replay(M, v) == M.one()
    report = truncated_closure(M, v, policy)
    assert report.verdict != ClosureReport.PROPER


def test_closure_input_validation():
    M = OmegaModule(OmegaParams(F(1), F(2), F(0), F(3), (F(1),)))
    policy = TruncationPolicy(max_total_degree=2, generator_window=1, max_steps=8)
    with pytest.raises(NotApplicable):
        truncated_closure(M, M.ring.zero(), policy)
    with pytest.raises(ValueError):
        truncated_closure(M, M.ring.monomial({"s": 5}), policy)


def _omega():
    return OmegaModule(OmegaParams(F(1, 2), F(3), F(0), F(2), (F(1), F(0), F(1))))


def _t2():
    return TensorModule([OmegaParams(F(1, 2), F(3), F(0), F(-1, 2), (F(1), F(0), F(1))),
                         OmegaParams(F(1), F(-2), F(1), F(2), (F(0), F(2), F(-1, 3)))])


CLOSURE_CASES = {
    "Omega": (_omega, lambda M: M.one(), TruncationPolicy()),
    "T(m=2)": (_t2, lambda T: T.one(), TruncationPolicy(max_total_degree=3)),
    "F Whittaker V": (lambda: FModule(F(1, 2), F(3), MFactor(F(0)), MFactor(F(1, 2)), Whittaker()),
                      lambda M: M.one(), TruncationPolicy()),
    "F shift-type x1": (
        lambda: FModule(F(1, 2), F(3), OmegaFactor(F(2)), OmegaFactor(F(-1, 3)), OneDim(F(1))),
        lambda M: M.one(), TruncationPolicy()),
    "F proper": (lambda: FModule(F(0), F(1), MFactor(F(1, 5)), MFactor(F(2)), OneDim(F(-3))),
                 lambda M: M.ring.var("x1"), TruncationPolicy(3, 2, 32)),
    "Omega from 2/3 s t - 5/7 t^2": (
        _omega, lambda M: M.ring.from_terms([((1, 1), F(2, 3)), ((0, 2), F(-5, 7))]),
        TruncationPolicy()),
}


@pytest.mark.parametrize("case", CLOSURE_CASES)
def test_integer_closure_report_equals_the_fraction_closure(case):
    """The closure on the integer kernel and the one through ``module.act`` report alike."""
    build, start, policy = CLOSURE_CASES[case]
    report = truncated_closure(build(), start(build()), policy)
    assert report == fraction_closure(build(), start(build()), policy)
    if case == "F proper":
        assert report.verdict == ClosureReport.PROPER


def test_integer_closure_agrees_on_seeded_start_vectors():
    """Random rational start vectors in the box, on an Omega, a T(m=2) and an F module."""
    rng = random.Random(41)
    policy = TruncationPolicy(max_total_degree=3, generator_window=1, max_steps=16)
    modules = [_omega(), _t2(),
               FModule(F(1, 3), F(-2), MFactor(F(1, 5)), OmegaFactor(F(3)), OneDim(F(1, 2)))]
    for _ in range(12):
        module = rng.choice(modules)
        box = list(oracle.monomials_within(module.ring, 2))
        start = module.ring.from_terms(
            (exps, F(rng.randint(-99, 99) or 1, rng.randint(1, 10**9)))
            for exps in rng.sample(box, rng.randint(1, 4)))
        assert truncated_closure(module, start, policy) == fraction_closure(module, start, policy)


def test_free_word_oracle_matches_pbw_all_short_words():
    pool = generators_in_window(2)
    rng = random.Random(14)
    words = [()]
    words += [(g,) for g in pool]
    words += [tuple(rng.choice(pool) for _ in range(2)) for _ in range(40)]
    words += [tuple(rng.choice(pool) for _ in range(3)) for _ in range(40)]
    for word in words:
        assert free_word_oracle(word) == pbw_normalize(word)


def test_free_word_oracle_example():
    out = free_word_oracle((gen("b", 0), gen("a", 0)))
    assert out == pbw_normalize((gen("b", 0), gen("a", 0)))
    assert (gen("c", 0),) in out.terms


def test_naive_det_small_examples():
    assert naive_det([[F(1), F(1)], [F(2), F(3)]]) == 1
    eye = [[F(int(i == j)) for j in range(4)] for i in range(4)]
    assert naive_det(eye) == 1
    assert naive_det([[F(2), F(5)], [F(2), F(5)]]) == 0


def test_naive_det_reads_ints_as_fractions_and_keeps_its_input():
    rng = random.Random(13)
    for _ in range(40):
        n = rng.randint(1, 5)
        m = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        rows = [list(row) for row in m]
        det = naive_det(m)
        assert isinstance(det, F) and det == naive_det([[F(x) for x in row] for row in m])
        assert m == rows
    m = [[F(1, 2), 3], [F(-2, 3), F(5, 4)]]
    naive_det(m)
    assert m == [[F(1, 2), 3], [F(-2, 3), F(5, 4)]]
    for bad in (1.5, "1/2"):
        with pytest.raises(TypeError):
            naive_det([[1, 2], [bad, 3]])


def test_naive_det_of_every_permutation_matrix_is_its_parity():
    for n in range(1, 7):
        for perm in itertools.permutations(range(n)):
            inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
            m = [[int(perm[i] == j) for j in range(n)] for i in range(n)]
            assert naive_det(m) == (-1) ** inversions


def test_naive_det_hand_computed_3x3_with_row_denominators():
    """Row lcms 6, 4 and 15; a zero in row 0 keeps the cofactor signs honest.

    1/2 (1/3 - 1) - 0 + 2/3 (1/2 + 3/5) = -1/3 + 11/15 = 2/5.
    """
    m = [[F(1, 2), F(0), F(2, 3)],
         [F(1, 4), F(-1), F(1, 2)],
         [F(3, 5), F(2), F(-1, 3)]]
    assert naive_det(m) == exact_det(m) == F(2, 5)
