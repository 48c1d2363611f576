"""Rank-one free modules: actions, certificates, free rank, classification."""

import math
import random
from fractions import Fraction as F

import pytest
from conftest import (
    CLASSIFY_DEFECTS,
    criterion_08_modules,
    docstring_action,
    formula_rank1_data,
    planted_rank_defect,
    sample_vectors,
)

from wittdiamond.axioms import module_axiom_check, random_vector
from wittdiamond.exceptions import NotAModule, NotApplicable
from wittdiamond.homomorphisms import PullbackModule
from wittdiamond.lie import FAMILIES, bracket, gen, generators_in_window
from wittdiamond.linalg import exact_nullspace
from wittdiamond.omega import (
    Degenerate,
    OmegaModule,
    OmegaParams,
    RANK1_RING,
    Rank1ActionData,
    ShiftDiffOp,
    _candidate_operator,
    classify_rank1,
    omega_factor_act,
    omega_reduce_to_one,
    rank1_data_from_action,
    rank1_grid,
    uh_rank,
)
from wittdiamond.poly import SparsePoly
from wittdiamond.tensor import TensorModule, tensor_generate
from wittdiamond.scalars import add_scaled


def _action_data(*params):
    """The rank-one data that rank1_data_from_action reads off OmegaModule(OmegaParams(*params))."""
    return rank1_data_from_action(OmegaModule(OmegaParams(*params)))


def module(alpha=F(1, 2), beta=F(3), gamma=F(0), lam=F(2), g=(F(1), F(0), F(1))):
    return OmegaParams(alpha, beta, gamma, lam, g), OmegaModule(
        OmegaParams(alpha, beta, gamma, lam, g)
    )


def test_action_examples():
    _, M = module(alpha=F(3), beta=F(1), gamma=F(0), lam=F(2), g=(F(1),))
    s, t = M.ring.var("s"), M.ring.var("t")
    assert M.act(gen("L", 1), s) == 2 * s * s + 4 * s - 6
    assert M.act(gen("a", 0), M.one()) == t
    # c_n f = -lam^n beta f(s - n, t)
    f = s * t
    assert M.act(gen("c", 2), f) == (s - 2) * t * (-4)


def test_factor_action_matches_docstring_formulas_all_families():
    # Every family at n in -3..3 with g of degree 0, 1 and 2, on the module's
    # own ring and, as the one-factor module of the second pullback, on the
    # ring (s1, s2, t1, t2) of a two-factor product.
    rng = random.Random(61)
    for g_degree in range(3):
        for lam in (F(2), F(-1), F(1, 2), F(-2, 3)):
            g_coeffs = tuple(F(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(g_degree))
            par = OmegaParams(
                F(rng.randint(-3, 3), rng.randint(1, 3)),
                F(rng.choice([1, -1, 2, -3]), rng.randint(1, 3)),
                F(rng.randint(-2, 2), rng.randint(1, 2)),
                lam,
                g_coeffs + (F(rng.choice([1, -2, 3])),),
            )
            M = OmegaModule(par)
            T = TensorModule([par, par])
            second = PullbackModule(T.ring, T.pullbacks[1:2])
            f = random_vector(M.ring, rng, max_total_degree=3, terms=3)
            v = random_vector(T.ring, rng, max_total_degree=3, terms=4)
            for family in FAMILIES:
                for n in range(-3, 4):
                    x = gen(family, n)
                    assert M.act(x, f) == docstring_action(par, M.ring, "s", "t", x, f), (x, par)
                    got = omega_factor_act(second, x, v)
                    assert got == docstring_action(par, T.ring, "s2", "t2", x, v), (x, par)


def test_axioms_random_parameters():
    rng = random.Random(21)
    for _ in range(5):
        par = OmegaParams(
            F(rng.randint(-3, 3), rng.randint(1, 2)),
            F(rng.randint(1, 4)) * rng.choice([1, -1]),
            F(rng.randint(-3, 3)),
            F(rng.randint(1, 4)) * rng.choice([1, -1]),
            tuple(F(rng.randint(-2, 2)) for _ in range(rng.randint(1, 3))),
        )
        M = OmegaModule(par)
        report = module_axiom_check(M, 2, sample_vectors(M.ring, rng, count=3))
        assert report.ok, report.violations[:3]


def test_reduce_to_one_trivial_and_single_step():
    _, M = module()
    assert len(omega_reduce_to_one(M, M.one()).steps) == 0
    t = M.ring.var("t")
    cert = omega_reduce_to_one(M, t)
    assert cert.replay(M, t) == M.one()
    # one derivative step suffices for f = t
    assert len(cert.steps) == 1


def test_reduce_to_one_kills_s_then_t():
    _, M = module()
    f = M.ring.monomial({"s": 1, "t": 2})
    cert = omega_reduce_to_one(M, f)
    assert cert.replay(M, f) == M.one()


def test_reduce_to_one_twenty_random_vectors_three_tuples():
    rng = random.Random(31)
    tuples = [
        (F(1, 2), F(3), F(0), F(2), (F(2),)),            # deg g = 0
        (F(-1), F(1), F(1), F(3), (F(0), F(1))),          # deg g = 1
        (F(0), F(-2), F(1, 2), F(-1), (F(1), F(0), F(1))) # deg g = 2
    ]
    for tup in tuples:
        M = OmegaModule(OmegaParams(*tup))
        for _ in range(20):
            f = random_vector(M.ring, rng, max_total_degree=3, terms=3)
            cert = omega_reduce_to_one(M, f)
            assert cert.replay(M, f) == M.one()


def test_reduce_to_one_rejects_zero():
    _, M = module()
    with pytest.raises(NotApplicable):
        omega_reduce_to_one(M, M.ring.zero())


def test_generate_examples():
    _, M = module()
    for p, q in [(0, 3), (1, 0), (2, 1), (0, 0)]:
        cert = tensor_generate(M, (p, q))
        assert cert.replay(M, M.one()) == M.ring.monomial({"s": p, "t": q})


def test_uh_rank_examples():
    rng = random.Random(2)
    for g in [(F(1), F(1)), (F(0), F(0), F(1)), (F(0), F(1), F(0), F(2))]:
        for _ in range(2):
            beta = F(rng.randint(1, 4)) * rng.choice([1, -1])
            gamma = F(rng.randint(-3, 3), rng.randint(1, 2))
            M = OmegaModule(OmegaParams(F(1), beta, gamma, F(3), g))
            report = uh_rank(M)
            assert report.ok and report.rank == len(g)
            a_d, b_d = report.operators["d[0]"]
            assert b_d == M.ring.var("t") and a_d.var_degree("t") == len(g)
            assert report.operators["L[0]"] == (M.ring.var("s"), M.ring.zero())
            for name, probe, image in report.images:
                assert M.act(gen(name[0], 0), probe) == image


# -- the sampled free-rank evidence, kept as an agreement oracle ---------------

def recursion_matches_d0(M):
    """beta d0 t^s = sum_k g_k t^(k+1+s) + (beta s + gamma) t^s for 0 <= s <= 6."""
    par = M.params
    for s in range(7):
        ts = M.ring.monomial({"t": s})
        rhs = ts * (par.beta * s + par.gamma)
        for k, c in enumerate(par.g):
            rhs = rhs + M.ring.monomial({"t": k + 1 + s}, c)
        if M.act(gen("d", 0), ts) * par.beta != rhs:
            return False
    return True


def generation_replays(M):
    """t^0 .. t^(3 rank) as C[d0]-combinations of t^0 .. t^N, N = deg g, replayed.

    The expressions come from the recursion of ``recursion_matches_d0`` solved
    for its top term, g_N t^(N+1+s) = (beta d0 - beta s - gamma) t^s - ...
    """
    par = M.params
    N = len(par.g) - 1
    top = 3 * (N + 1)
    exprs = [[{0: F(1)} if i == j else {} for i in range(N + 1)] for j in range(N + 1)]
    gN = par.g[-1]
    for s in range(top - N):
        row = []
        for e in exprs[s]:
            r = add_scaled({}, {p + 1: c for p, c in e.items()}, par.beta / gN)
            row.append(add_scaled(r, e, -(par.beta * s + par.gamma) / gN))
        for k in range(N):
            for r, e in zip(row, exprs[k + 1 + s]):
                add_scaled(r, e, -par.g[k] / gN)
        exprs.append(row)
    for j, expr in enumerate(exprs):
        out = M.ring.zero()
        for i, poly_in_d0 in enumerate(expr):
            for power, coef in poly_in_d0.items():
                w = M.ring.monomial({"t": i})
                for _ in range(power):
                    w = M.act(gen("d", 0), w)
                out = out + w * coef
        if out != M.ring.monomial({"t": j}):
            return False
    return True


def independent_to_degree_3(M):
    """No C[L0, d0]-relation among t^0 .. t^N with coefficients of degree <= 3."""
    columns = []
    for k in range(len(M.params.g)):
        for i in range(4):
            for j in range(4):
                vec = M.ring.monomial({"t": k})
                for _ in range(j):
                    vec = M.act(gen("d", 0), vec)
                for _ in range(i):
                    vec = M.act(gen("L", 0), vec)
                columns.append(vec.terms)
    return not exact_nullspace(columns)


def sampled_rank_evidence(M):
    return recursion_matches_d0(M), generation_replays(M), independent_to_degree_3(M)


def seeded_rank_modules():
    """Two seeded modules for each deg g from 1 to 4, with a random g."""
    rng = random.Random(41)
    out = []
    for degree in range(1, 5):
        for _ in range(2):
            g = [F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(degree)]
            g.append(F(rng.choice([-2, -1, 1, 3]), rng.randint(1, 2)))
            beta = F(rng.randint(1, 5), rng.randint(1, 3)) * rng.choice([1, -1])
            par = OmegaParams(F(rng.randint(-2, 2), 2), beta, F(rng.randint(-3, 3), 2),
                              F(rng.choice([-3, 2, 5])), tuple(g))
            out.append((tuple(g), OmegaModule(par)))
    return out


def test_uh_rank_agrees_with_the_sampled_evidence():
    modules = criterion_08_modules() + seeded_rank_modules()
    assert sorted({len(g) - 1 for g, _ in modules}) == [1, 2, 3, 4]
    for g, M in modules:
        report = uh_rank(M)
        assert report.ok and report.rank == len(g)
        assert sampled_rank_evidence(M) == (True, True, True)


def test_uh_rank_independence_check_can_fail(monkeypatch):
    """With L[0] acting as zero, L0 d0^j t^k = 0 is a relation the oracle finds."""
    _, M = module()
    monkeypatch.setattr(OmegaModule, "act", planted_rank_defect(OmegaModule.act, "L0-zero"))
    report = uh_rank(M)
    assert [name for name, holds in report.facts.items() if not holds] == ["L0_is_s"]
    assert not report.ok and report.rank is None
    assert sampled_rank_evidence(M) == (True, True, False)


@pytest.mark.parametrize("defect, failed, evidence", [
    ("d0-gains-s", ["d0_free_of_s"], (False, False, True)),
    # A_d = gamma / beta now has t-degree 0, below deg_t B_d = 1.
    ("d0-loses-t-g", ["A_d_raises_t_degree", "B_d_within_A_d"], (False, False, False)),
])
def test_uh_rank_catches_planted_defects(monkeypatch, defect, failed, evidence):
    monkeypatch.setattr(OmegaModule, "act", planted_rank_defect(OmegaModule.act, defect))
    for _, M in criterion_08_modules()[::2]:
        report = uh_rank(M)
        assert [name for name, holds in report.facts.items() if not holds] == failed
        assert not report.ok and report.rank is None
        assert sampled_rank_evidence(M) == evidence


def test_uh_rank_degree_law():
    # deg(d0^m f) = deg f + m (deg g + 1)
    M = OmegaModule(OmegaParams(F(1), F(1), F(0), F(2), (F(0), F(0), F(1))))
    f = M.ring.monomial({"t": 2})
    out = f
    for m in range(1, 4):
        out = M.act(gen("d", 0), out)
        assert out.var_degree("t") == 2 + m * 3


def test_uh_rank_rejects_zero_g():
    M = OmegaModule(OmegaParams(F(1), F(1), F(0), F(2), ()))
    with pytest.raises(NotApplicable):
        uh_rank(M)


def test_corrected_recursion_direct_check():
    # beta d0 t^s = sum_k g_k t^(k+1+s) + (beta s + gamma) t^s, all 0 <= s <= 6
    assert recursion_matches_d0(OmegaModule(OmegaParams(F(1), F(5, 2), F(-1, 3), F(2),
                                                        (F(2), F(-1), F(3)))))


def _seeded_params(rng):
    return OmegaParams(
        F(rng.randint(-4, 4), rng.randint(1, 3)),
        F(rng.randint(1, 5)) * rng.choice([1, -1]),
        F(rng.randint(-4, 4), rng.randint(1, 2)),
        F(rng.randint(1, 5)) * rng.choice([1, -1]),
        tuple(F(rng.randint(-2, 2)) for _ in range(rng.randint(0, 3))),
    )


def test_classify_round_trip_ten_instances():
    rng = random.Random(17)
    for _ in range(10):
        par = _seeded_params(rng)
        data = rank1_data_from_action(OmegaModule(par))
        assert classify_rank1(data) == par


def test_rank1_data_from_action_matches_the_defining_formulas():
    rng = random.Random(41)
    for _ in range(200):
        par = _seeded_params(rng)
        assert rank1_data_from_action(OmegaModule(par)) == formula_rank1_data(par), par


@pytest.mark.parametrize("defect", CLASSIFY_DEFECTS)
def test_classify_round_trip_reads_the_action(monkeypatch, defect):
    """A defect in either part of an operator form the round trip probes fails it."""
    monkeypatch.setattr(OmegaModule, "act", planted_rank_defect(OmegaModule.act, defect))
    for g, M in criterion_08_modules():
        with pytest.raises(NotAModule) as err:
            classify_rank1(formula_rank1_data(M.params))
        assert err.value.relation == "round-trip", (defect, g)


def test_classify_composes_each_unordered_pair_once_and_brackets_both_orders(monkeypatch):
    from wittdiamond import omega

    data = _action_data(F(1, 2), F(3), F(0), F(2), (F(1), F(0), F(1)))
    composed, bracketed = [], []
    commutator, bracket_terms = ShiftDiffOp.commutator, omega.bracket_terms
    monkeypatch.setattr(ShiftDiffOp, "commutator",
                        lambda self, other: composed.append(1) or commutator(self, other))
    monkeypatch.setattr(omega, "bracket_terms",
                        lambda x, y: bracketed.append((x, y)) or bracket_terms(x, y))
    assert classify_rank1(data) == OmegaParams(F(1, 2), F(3), F(0), F(2), (F(1), F(0), F(1)))
    # Every grid point of every ordered family pair is bracketed, in its own order.
    assert len(bracketed) == sum((d_m + 1) * (d_n + 1) for *_, d_m, d_n in rank1_grid(data))
    assert len(composed) == len({frozenset(pair) for pair in bracketed}) < len(bracketed)


def test_classify_case_two_degenerate():
    data = Rank1ActionData(
        lam=F(2),
        p=RANK1_RING.const(F(1, 2)),
        B0=RANK1_RING.zero(),
        C0=RANK1_RING.zero(),
        D0=RANK1_RING.const(F(5)),
    )
    result = classify_rank1(data)
    assert isinstance(result, Degenerate)
    assert "a0" in result.submodule


def test_classify_rejects_nonconstant_p_at_relation_two():
    base = _action_data(F(1, 2), F(3), F(0), F(2), (F(0), F(0), F(1)))
    bad = Rank1ActionData(lam=base.lam, p=RANK1_RING.var("a0"), B0=base.B0, C0=base.C0, D0=base.D0)
    with pytest.raises(NotAModule) as err:
        classify_rank1(bad)
    assert err.value.relation.startswith("(2)")


def test_classify_rejects_l0_dependent_c():
    base = _action_data(F(1, 2), F(3), F(0), F(2), (F(1),))
    bad = Rank1ActionData(
        lam=base.lam, p=base.p, B0=base.B0, C0=RANK1_RING.var("L0"), D0=base.D0
    )
    with pytest.raises(NotAModule):
        classify_rank1(bad)


def test_classify_rejects_inconsistent_gamma():
    # D0 with an L0 term violates (3) [b_m, d_n] = b_{m+n}
    base = _action_data(F(1, 2), F(3), F(1), F(2), (F(1),))
    bad = Rank1ActionData(
        lam=base.lam, p=base.p, B0=base.B0, C0=base.C0,
        D0=base.D0 + RANK1_RING.var("L0"),
    )
    with pytest.raises(NotAModule) as err:
        classify_rank1(bad)
    assert err.value.relation.startswith("(3)")


def _window_classify(data, window=2):
    """The former fixed-window sweep: every relation at (m, n) in [-window, window]^2."""
    ops = {}

    def op(g):
        if g not in ops:
            ops[g] = _candidate_operator(data, g)
        return ops[g]

    def bracket_op(x, y):
        out = {}
        for g2, c in bracket(x, y).terms.items():
            add_scaled(out, op(g2).terms, c)
        return ShiftDiffOp()._like(out)

    idx = range(-window, window + 1)
    named = [
        ("(1) [b_m, c_n] = 0", "b", "c"),
        ("(2) [L_m, b_n] = n b_{m+n}", "L", "b"),
        ("(3) [b_m, d_n] = b_{m+n}", "b", "d"),
    ]
    sweep = [(f"[{fx}_m, {fy}_n]", fx, fy) for fx in FAMILIES for fy in FAMILIES]
    for name, fx, fy in named + sweep:
        for m in idx:
            for n in idx:
                x, y = gen(fx, m), gen(fy, n)
                if not (op(x).commutator(op(y)) - bracket_op(x, y)).is_zero:
                    raise NotAModule(name, f"at (m, n) = ({m}, {n})")
    # Past the relations the two share the parameter extraction.
    return classify_rank1(data)


def _verdict(classify, data):
    try:
        return classify(data)
    except NotAModule as exc:
        return ("rejected", exc.relation)


def _with(data, **changes):
    fields = {k: getattr(data, k) for k in ("lam", "p", "B0", "C0", "D0")}
    return Rank1ActionData(**{**fields, **changes})


def _agreement_cases():
    """The ten named cases, then 20 seeded Omega tables (lambda with denominators up to 7,
    among them -22/7, and g of degree up to 5), each with four single-monomial
    perturbations, one of each of p, B0, C0 and D0."""
    rng = random.Random(23)
    for _ in range(6):
        yield rank1_data_from_action(OmegaModule(_seeded_params(rng)))
    yield Rank1ActionData(lam=F(2), p=RANK1_RING.const(F(1, 2)), B0=RANK1_RING.zero(),
                          C0=RANK1_RING.zero(), D0=RANK1_RING.const(F(5)))
    base = _action_data(F(1, 2), F(3), F(0), F(2), (F(0), F(0), F(1)))
    yield _with(base, p=RANK1_RING.var("a0"))
    base = _action_data(F(1, 2), F(3), F(0), F(2), (F(1),))
    yield _with(base, C0=RANK1_RING.var("L0"))
    base = _action_data(F(1, 2), F(3), F(1), F(2), (F(1),))
    yield _with(base, D0=base.D0 + RANK1_RING.var("L0"))
    rng = random.Random(29)
    for k in range(20):
        lam = F(-22, 7) if k == 0 else F(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 7))
        data = _action_data(F(rng.randint(-4, 4), rng.randint(1, 5)),
                             F(rng.choice([-1, 1]) * rng.randint(1, 5), rng.randint(1, 4)),
                             F(rng.randint(-4, 4), rng.randint(1, 3)), lam,
                             tuple(F(rng.randint(-3, 3), rng.randint(1, 4))
                                   for _ in range(rng.randint(0, 6))))
        yield data
        for field in ("p", "B0", "C0", "D0"):
            c = F(rng.choice([-1, 1]) * rng.randint(1, 3), rng.randint(1, 5))
            term = RANK1_RING.monomial({"L0": rng.randint(0, 2), "a0": rng.randint(0, 3)}, c)
            yield _with(data, **{field: getattr(data, field) + term})


def test_classify_grid_agrees_with_window_oracle():
    verdicts = []
    for data in _agreement_cases():
        verdict = _verdict(classify_rank1, data)
        assert verdict == _verdict(_window_classify, data), data
        verdicts.append(verdict)
    assert len(verdicts) >= 100
    assert all(isinstance(v, OmegaParams) for v in verdicts[:6])
    assert isinstance(verdicts[6], Degenerate)
    assert [v[1][:3] for v in verdicts[7:10]] == ["(2)", "(1)", "(3)"]
    # The 20 seeded tables classify, and their perturbations reach every named relation.
    assert sum(isinstance(v, OmegaParams) for v in verdicts[10::5]) == 20
    assert {v[1][:3] for v in verdicts[10:] if isinstance(v, tuple)} >= {"(1)", "(2)", "(3)"}


def test_bracket_terms_sit_at_the_sum_of_the_indices():
    """[x_m, y_n] = sum c z_{m+n}: the fact that lets classify_rank1 drop lam^(m+n)."""
    window = generators_in_window(3)
    for x in window:
        for y in window:
            assert all(z.index == x.index + y.index for z in bracket(x, y).terms), (x, y)


def _nested(op):
    """A flat symbol as {(n, k): G_{n,k}(L0, a0)}, the former key format."""
    out = {}
    for (n, k, i, j), c in op.terms.items():
        out.setdefault((n, k), {})[i, j] = c
    return {key: SparsePoly(RANK1_RING, terms) for key, terms in out.items()}


def _reference_compose(u, v):
    """The former SparsePoly-based ShiftDiffOp.compose, on the keys of ``_nested``, flattened."""
    out = {}
    for (n1, k1), g1 in _nested(u).items():
        for (n2, k2), g2 in _nested(v).items():
            for r in range(k1 + 1):
                g2r = g2
                for _ in range(r):
                    g2r = g2r.derive("a0")
                if g2r.is_zero:
                    continue
                piece = g1 * g2r.shift("L0", n1)
                if r:
                    piece = piece * math.comb(k1, r)
                key = (n1 + n2, k1 + k2 - r)
                q = out.get(key)
                np = piece if q is None else q + piece
                if np.is_zero:
                    out.pop(key, None)
                else:
                    out[key] = np
    return ShiftDiffOp({(n, k, *e): c for (n, k), g in out.items() for e, c in g.terms.items()})


@pytest.mark.parametrize("cleared", [False, True], ids=["fraction", "int"])
def test_compose_agrees_with_reference_compose(cleared):
    rng = random.Random(37 + cleared)

    def symbol():
        terms = {}
        for _ in range(rng.randint(1, 5)):
            i = rng.randint(0, 3)
            key = (rng.randint(-3, 3), rng.randint(0, 2), i, rng.randint(0, 3 - i))
            terms[key] = (rng.randint(-9, 9) if cleared
                          else F(rng.randint(-9, 9), rng.randint(1, 7)))
        return ShiftDiffOp(terms)

    for _ in range(300):
        u, v = symbol(), symbol()
        got = u.compose(v)
        assert got == _reference_compose(u, v), (u, v)
        assert u.commutator(v) == got - _reference_compose(v, u), (u, v)
        if cleared:
            assert all(type(c) is int for c in got.terms.values())


def test_rank1_grid_degrees_on_omega_data():
    data = _action_data(F(1, 2), F(3), F(1), F(2), (F(1), F(0), F(1)))
    grid = rank1_grid(data)
    assert [row[0][:3] for row in grid[:3]] == ["(1)", "(2)", "(3)"]
    assert len({(fx, fy) for _, fx, fy, _, _ in grid}) == len(grid) == 25
    sizes = {(fx, fy): (d_m, d_n) for _, fx, fy, d_m, d_n in grid}
    assert sizes[("L", "L")] == (2, 2)
    assert sizes[("L", "b")] == sizes[("d", "L")] == (1, 1)
    assert sizes[("b", "c")] == sizes[("a", "d")] == (0, 0)
    assert sum((d_m + 1) * (d_n + 1) for d_m, d_n in sizes.values()) == 57
    # An L0^2 term in C0 raises l_b and l_c to 2, and with them the grids.
    sizes = {(fx, fy): (d_m, d_n) for _, fx, fy, d_m, d_n in
             rank1_grid(_with(data, C0=data.C0 + RANK1_RING.var("L0", 2)))}
    assert sizes[("b", "c")] == (2, 2) and sizes[("L", "b")] == (3, 1)


@pytest.mark.parametrize("field", ["p", "B0", "C0", "D0"])
@pytest.mark.parametrize("l0_power", [1, 2])
@pytest.mark.parametrize("a0_power", [0, 1])
def test_classify_grid_catches_top_l0_degree_mutations(field, l0_power, a0_power):
    # The perturbation sets the L0-degree the bound reads off the data, so it
    # is a term of the top degree the grid allows; a bracket relation, not the
    # parameter extraction, must reject it.
    data = _action_data(F(1, 2), F(3), F(1), F(2), (F(1), F(0), F(1)))
    term = RANK1_RING.monomial({"L0": l0_power, "a0": a0_power}, F(5, 7))
    bad = _with(data, **{field: getattr(data, field) + term})
    with pytest.raises(NotAModule) as err:
        classify_rank1(bad)
    assert err.value.relation in {row[0] for row in rank1_grid(bad)}
