"""Certificate replay and JSON serialization."""

import random
from fractions import Fraction as F

import pytest

from wittdiamond import omega, tensor
from wittdiamond.axioms import random_vector
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
    solve = omega.combination

    def off_by_one(columns, target):
        combo = solve(columns, target)
        return None if combo is None else [combo[0] + 1] + combo[1:]

    reduce()
    monkeypatch.setattr(omega, "combination", off_by_one)
    with pytest.raises(CertificateError, match=replay_error):
        reduce()
    monkeypatch.setattr(omega, "combination", lambda columns, target: None)
    with pytest.raises(CertificateError, match="orbit combination isolates n"):
        reduce()
