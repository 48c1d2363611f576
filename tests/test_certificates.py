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


def _reduce_tensor():
    T = tensor.TensorModule([OmegaParams(F(1), F(2), F(0), F(3), (F(1),)),
                             OmegaParams(F(1, 2), F(1), F(1), F(5), (F(2),))])
    tensor.tensor_reduce_to_bottom(T, T.ring.monomial({"s1": 1, "t2": 1}))


@pytest.mark.parametrize("where, reduce", [(omega, _reduce_omega), (tensor, _reduce_tensor)],
                         ids=["omega", "tensor"])
def test_corrupted_step_raises_certificate_error(monkeypatch, where, reduce):
    """A step whose combination is off by one copy of v fails its replay check."""
    solve = where.combination

    def off_by_v(columns, target):
        combo = solve(columns, target)
        return None if combo is None else [combo[0] + 1] + combo[1:]

    reduce()
    monkeypatch.setattr(where, "combination", off_by_v)
    with pytest.raises(CertificateError, match="does not reach its target"):
        reduce()
    monkeypatch.setattr(where, "combination", lambda columns, target: None)
    with pytest.raises(CertificateError, match="window exhausted"):
        reduce()
