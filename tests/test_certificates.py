"""Certificate replay and JSON serialization."""

import random
from fractions import Fraction as F

import pytest

from wittdiamond import omega, tensor
from wittdiamond.axioms import random_vector, simplicity_samples
from wittdiamond.certificates import CertStep, Certificate
from wittdiamond.exceptions import CertificateError
from wittdiamond.lie import gen
from wittdiamond.omega import OmegaModule, OmegaParams, omega_reduce_to_one


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


@pytest.mark.parametrize("which", [9, 10, 11])
def test_lemma42_extract_rejects_corrupted_weights(monkeypatch, which):
    """The one-step check of ``lemma42_extract`` catches weights off by one."""
    g = _tensor().ring.monomial({"s1": 1, "t2": 1})
    target, cert = tensor.lemma42_extract(_tensor(), g, 1, which)
    assert len(cert) == 1
    monkeypatch.setattr(omega, "combination", _off_by_one(omega.combination))
    with pytest.raises(CertificateError, match="extraction step does not reach its target"):
        tensor.lemma42_extract(_tensor(), g, 1, which)


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
        assert len(applied) == len(cert)

    T = _tensor()
    rng = random.Random(1)
    for v in [random_vector(T.ring, rng, max_total_degree=2, terms=3) for _ in range(4)]:
        costs(lambda: tensor.tensor_reduce_to_bottom(T, v)[0])
        costs(lambda: tensor.tensor_generate(T, max(v.terms)))
        costs(lambda: tensor.lemma42_extract(T, v, 2, 10)[1])
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
                    tensor.simplicity_decision(module)
            assert solved and len(solved) == len(set(solved)) == len(module.orbit_weights)
            builds.append(len(solved))
        assert builds[0] == builds[1]
