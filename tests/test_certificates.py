"""Certificate replay and JSON serialization."""

import itertools
import random
from fractions import Fraction as F

import pytest

from wittdiamond import omega, tensor
from wittdiamond.axioms import random_vector, simplicity_samples
from wittdiamond.certificates import CertStep, Certificate
from wittdiamond.exceptions import CertificateError
from wittdiamond.lie import FAMILIES, gen
from wittdiamond.linalg import combination
from wittdiamond.omega import OmegaModule, OmegaParams, omega_reduce_to_one
from wittdiamond.scalars import add_scaled


def test_step_apply_rescale_and_word():
    M = OmegaModule(OmegaParams(F(1), F(2), F(0), F(3), (F(1),)))
    v = M.ring.var("s")
    scale = CertStep(((F(1, 2), ()),))
    assert scale.apply(M, v) == v * F(1, 2)
    word = CertStep(((F(1), (gen("L", 0), gen("a", 0))),))
    # L0 a0 . s = s^2 t
    assert word.apply(M, v) == M.ring.monomial({"s": 2, "t": 1})


def test_json_round_trip_preserves_replay():
    M = OmegaModule(OmegaParams(F(1, 2), F(3), F(1), F(2), (F(1), F(2))))
    rng = random.Random(0)
    for _ in range(5):
        v = random_vector(M.ring, rng, max_total_degree=3, terms=3)
        cert = omega_reduce_to_one(M, v)
        data = cert.to_jsonable()
        back = Certificate.from_jsonable(data)
        assert back.replay(M, v) == M.one()
        assert back.to_jsonable() == data


def _reduce_omega():
    M = OmegaModule(OmegaParams(F(1, 2), F(3), F(1), F(2), (F(1), F(2))))
    omega_reduce_to_one(M, M.ring.monomial({"s": 2, "t": 1}) + M.ring.one())


def _tensor():
    return tensor.TensorModule([OmegaParams(F(1), F(2), F(0), F(3), (F(1),)),
                                OmegaParams(F(1, 2), F(1), F(1), F(5), (F(2),))])


def _reduce_tensor():
    T = _tensor()
    tensor.tensor_reduce_to_bottom(T, T.ring.monomial({"s1": 1, "t2": 1}))


def _reduce_tensor_t_part():
    T = _tensor()
    tensor.tensor_reduce_to_bottom(T, T.ring.monomial({"t1": 1, "t2": 2}))


def _off_by_one(solve):
    def corrupted(columns, target):
        combo = solve(columns, target)
        return None if combo is None else [combo[0] + 1] + combo[1:]
    return corrupted


# Every step weighs orbit images through omega.orbit_component, whose weights
# come from one combination call.  The Omega and the first tensor reduction
# start with an extraction, the last one with a derivative step.
@pytest.mark.parametrize("reduce, replay_error", [
    (_reduce_omega, "extraction step does not reach its target"),
    (_reduce_tensor, "extraction step does not reach its target"),
    (_reduce_tensor_t_part, "derivative step is not d/dt"),
], ids=["omega", "tensor", "tensor-derivative"])
def test_corrupted_step_raises_certificate_error(monkeypatch, reduce, replay_error):
    """Weights off by one on the first image fail the step's target check, and a
    failed weight solve raises CertificateError."""
    reduce()
    monkeypatch.setattr(omega, "combination", _off_by_one(omega.combination))
    with pytest.raises(CertificateError, match=replay_error):
        reduce()
    monkeypatch.setattr(omega, "combination", lambda columns, target: None)
    with pytest.raises(CertificateError, match="orbit combination isolates n"):
        reduce()


@pytest.mark.parametrize("builder, start", [
    ("_times_s", {"s1": 1, "t2": 1}),
    ("_top_slice", {"s1": 1, "t2": 1}),
    ("_top_slice", {"t1": 1, "t2": 1}),
], ids=["times_s", "top_slice", "top_slice-s-free"])
def test_step_builders_reject_corrupted_weights(monkeypatch, builder, start):
    """The check of one step of either kind, on a fresh module, catches weights off by one."""
    def one_step():
        T = _tensor()
        g = T.ring.monomial(start)
        step, target = getattr(omega, builder)(T, g, 1)
        return Certificate([step]).replay(T, g, [(target, omega.EXTRACTION_MISSED)])

    one_step()
    monkeypatch.setattr(omega, "combination", _off_by_one(omega.combination))
    with pytest.raises(CertificateError, match="extraction step does not reach its target"):
        one_step()


def _plus_second_derivative(build):
    """``dt_step`` turned into d/dt + d^2/dt^2: on t^2 its image is off by the constant 2."""
    def corrupted(module, par):
        d = build(module, par)
        twice = tuple((w1 * w2, x + y) for w1, x in d.combo for w2, y in d.combo)
        return CertStep(d.combo + twice)
    return corrupted


def _omega_chain():
    """t^2 -> 2t -> 2 -> 1: two derivative steps and a rescaling."""
    M = OmegaModule(OmegaParams(F(1, 2), F(3), F(1), F(2), (F(1), F(2))))
    v = M.ring.monomial({"t": 2})
    return M, M.params, v, lambda: omega_reduce_to_one(M, v), [CertStep(((F(1, 2), ()),))]


def _tensor_chain():
    """t1^2 -> 2 t1 -> 2: two derivative steps."""
    T = _tensor()
    v = T.ring.monomial({"t1": 2})
    return T, T.factors[0], v, lambda: tensor.tensor_reduce_to_bottom(T, v)[0], []


@pytest.mark.parametrize("chain", [_omega_chain, _tensor_chain], ids=["omega", "tensor"])
def test_wrong_middle_step_fails_at_its_own_check(monkeypatch, chain):
    """A derivative step off by a constant fails its own check, although the next
    derivative step erases the error, so a check of the end vector alone would pass.
    Both chains are ``omega``'s one reduction chain, which builds its steps there."""
    module, par, v, reduce, tail = chain()
    end = reduce().replay(module, v)
    wrong = _plus_second_derivative(omega.dt_step)(module, par)
    assert wrong.apply(module, v) != omega.dt_step(module, par).apply(module, v)
    assert Certificate([wrong, wrong, *tail]).replay(module, v) == end
    monkeypatch.setattr(omega, "dt_step", _plus_second_derivative(omega.dt_step))
    with pytest.raises(CertificateError, match="derivative step is not d/dt"):
        reduce()


def test_each_step_is_applied_once_and_weights_are_built_once_per_module(monkeypatch):
    """Every returned certificate costs one ``CertStep.apply`` per step, and each
    module solves one weight system per distinct (degrees, lam, x) key; a fresh
    module solves them again."""
    applied = []
    apply = CertStep.apply
    monkeypatch.setattr(CertStep, "apply", lambda step, module, v: applied.append(step)
                        or apply(step, module, v))
    solved = []
    solve = omega.combination
    monkeypatch.setattr(omega, "combination", lambda columns, target: solved.append(
        repr((columns, target))) or solve(columns, target))

    def costs(build):
        applied.clear()
        cert = build()
        assert len(applied) == len(cert.steps)

    T = _tensor()
    rng = random.Random(1)
    for v in [random_vector(T.ring, rng, max_total_degree=2, terms=3) for _ in range(4)]:
        costs(lambda: tensor.tensor_reduce_to_bottom(T, v)[0])
        costs(lambda: tensor.tensor_generate(T, max(v.terms)))
    M = OmegaModule(OmegaParams(F(1, 2), F(3), F(1), F(2), (F(1), F(2))))
    for v in [random_vector(M.ring, rng, max_total_degree=3, terms=3) for _ in range(4)]:
        costs(lambda: omega_reduce_to_one(M, v))

    for fresh in (_tensor, lambda: OmegaModule(M.params)):
        builds = []
        for module in (fresh(), fresh()):
            solved.clear()
            for _ in range(2):
                if isinstance(module, OmegaModule):
                    for v in simplicity_samples(module.ring, max_total_degree=3):
                        omega_reduce_to_one(module, v)
                else:
                    tensor.simplicity_certificates(module)
            assert solved and len(solved) == len(set(solved)) == len(module.orbit_weights)
            builds.append(len(solved))
        assert builds[0] == builds[1]


# -- the integer apply and weight build against their former Fraction bodies --


def _reference_apply(step, module, v):
    """The former ``CertStep.apply``, kept as an oracle: each word letter by letter
    through ``module.act``, summed in Fractions."""
    out: dict = {}
    for coef, word in step.combo:
        w = v
        for g in reversed(word):
            w = module.act(g, w)
        add_scaled(out, w.terms, coef)
    return v._like(out)


def _g(degree):
    """A g of the given degree with fractional and zero coefficients."""
    return tuple([F(2, 3), F(0), F(-1), F(1, 2)][: degree] + [F(-3, 2)])


def _oracle_modules():
    """Omega, T(m=2) and T(m=3) with a negative and a fractional lambda, once for each
    degree 0..3 of the first factor's g."""
    for degree in range(4):
        first = OmegaParams(F(1, 2), F(-2, 3), F(1, 3), F(-3, 2), _g(degree))
        second = OmegaParams(F(-1), F(5), F(0), F(1, 3), (F(1), F(2)))
        third = OmegaParams(F(2), F(3, 4), F(-1), F(4), (F(0), F(0), F(1, 5)))
        yield OmegaModule(first)
        yield tensor.TensorModule([first, second])
        yield tensor.TensorModule([first, second, third])


def _steps(module, v):
    """Every step kind: the orbit steps of each family at each scale and n-power, the
    derivative step of each factor, and a rescale by the empty word."""
    for family in FAMILIES:
        for lam, top in module.index_degrees(family, v).items():
            for x in range(top + 1):
                yield omega.orbit_component(module, family, v, lam, x, F((-1) ** x, 7))
    for par in module.factors:
        yield omega.dt_step(module, par)
    yield CertStep(((F(-5, 3), ()),))


def test_apply_matches_the_former_word_by_word_body_on_every_step_kind():
    rng = random.Random(38)
    longest = set()
    for module in _oracle_modules():
        for _ in range(2):
            v = random_vector(module.ring, rng, max_total_degree=2, terms=4)
            for step in _steps(module, v):
                assert step.apply(module, v) == _reference_apply(step, module, v)
                longest.add(max(len(word) for _, word in step.combo))
    assert longest == {0, 1, 2, 3}  # dt_step at g of degree 3 applies a^(lam) three times


def test_a_dropped_word_denominator_fails_the_reference(monkeypatch):
    """A word image that loses its generator's denominator gives another vector."""
    module = tensor.TensorModule([OmegaParams(F(1, 2), F(-2, 3), F(1, 3), F(-3, 2), _g(2)),
                                  OmegaParams(F(-1), F(5), F(0), F(1, 3), (F(1), F(2)))])
    v = random_vector(module.ring, random.Random(5), max_total_degree=2, terms=4)
    step = omega.dt_step(module, module.factors[0])
    want = _reference_apply(step, module, v)
    assert step.apply(module, v) == want
    g = step.combo[-1][1][0]  # a letter of the two-letter word a^(lam) a^(lam)
    rules = module.rules
    assert rules(g)[1] != 1
    monkeypatch.setattr(module, "rules", lambda h: (rules(h)[0], 1) if h == g else rules(h))
    assert step.apply(module, v) != want


class _Profile:
    """A module stub whose every vector has the index degrees ``degrees``."""

    def __init__(self, degrees):
        self.degrees, self.orbit_weights = degrees, {}

    def index_degrees(self, family, v):
        return self.degrees


def _weights(degrees, lam, x):
    """``orbit_component``'s nonzero (n, w_n) for the profile ``degrees``."""
    step = omega.orbit_component(_Profile(degrees), "a", None, lam, x)
    return [(g.index, w) for w, (g,) in step.combo]


def _reference_weights(degrees, lam, x):
    """The former Fraction build of ``orbit_component``'s weights, kept as an oracle."""
    p = [F(1)]
    for mu, d in degrees.items():
        for _ in range(d + 1 if mu != lam else 0):
            p = [a - mu * b for a, b in zip([F(0), *p], [*p, F(0)])]
    top = degrees[lam] + 1
    parts = [[(i + j, c * lam ** (i + j)) for j, c in enumerate(p)] for i in range(top)]
    r = combination([{y: sum(k**y * c for k, c in part) for y in range(top)}
                     for part in parts], {x: F(1)})
    w = [sum(r[i] * p[n - i] for i in range(top) if 0 <= n - i < len(p))
         for n in range(len(p) + top - 1)]
    return [(n, c) for n, c in enumerate(w) if c]


def _isolates(weights, degrees, lam, x):
    """sum_n w_n n^y mu^n is 1 at (mu, y) = (lam, x) and 0 at every other (mu, y <= D_mu)."""
    return all(sum(w * n**y * mu**n for n, w in weights) == ((mu, y) == (lam, x))
               for mu, top in degrees.items() for y in range(top + 1))


SCALE_SETS = [(F(-2),), (F(1, 3), F(-2)), (F(1), F(-1, 2)), (F(-3, 2), F(5, 4), F(3)),
              (F(2, 3), F(-3), F(1, 5))]


def _profiles():
    for scales in SCALE_SETS:
        for tops in itertools.product(range(3), repeat=len(scales)):
            yield dict(zip(scales, tops))


def test_weights_match_the_former_fraction_build_and_isolate_their_part():
    built = 0
    for degrees in _profiles():
        for lam, top in degrees.items():
            for x in range(top + 1):
                weights = _weights(degrees, lam, x)
                assert weights == _reference_weights(degrees, lam, x), (degrees, lam, x)
                assert _isolates(weights, degrees, lam, x), (degrees, lam, x)
                built += 1
    assert built == 402


@pytest.mark.parametrize("exponent", ["b^J", "b^(i+J+1)"])
def test_a_wrong_rescale_exponent_fails_both_oracles(monkeypatch, exponent):
    """r_i rescaled by b^J or by b^(i+J+1) instead of b^(i+J): planted by scaling the
    solve's r_i by b^-i or by b."""
    degrees, lam, x = {F(-3, 2): 2, F(5, 4): 1, F(3): 0}, F(5, 4), 0
    b = lam.denominator
    solve = omega.combination
    monkeypatch.setattr(omega, "combination", lambda columns, target: [
        c * (F(1, b**i) if exponent == "b^J" else b) for i, c in enumerate(solve(columns, target))])
    weights = _weights(degrees, lam, x)
    assert weights != _reference_weights(degrees, lam, x)
    assert not _isolates(weights, degrees, lam, x)
