"""JSON module specs: schema validation, construction, serialization."""

from fractions import Fraction as F

import pytest

from wittdiamond.exceptions import InvalidSpec
from wittdiamond.fock import FModule, MFactor, OmegaFactor, OneDim, Whittaker
from wittdiamond.omega import OmegaModule
from wittdiamond.specs import (
    module_from_spec,
    poly_from_json,
    poly_to_json,
    rank1_data_from_json,
    validate_module_spec,
)
from wittdiamond.tensor import TensorModule

F_SPEC = {
    "family": "F",
    "alpha": "1/2",
    "beta": "3",
    "P": {"kind": "M", "w": ["0", "1/2"]},
    "V": {"kind": "C_eps", "eps": "0"},
}

OMEGA_SPEC = {
    "family": "Omega",
    "alpha": "1/2",
    "beta": "3",
    "gamma": "0",
    "lambda": "2",
    "g": [[0, "1"], [2, "1"]],
}


def test_f_spec_builds_weight_module():
    module = module_from_spec(F_SPEC)
    assert isinstance(module, FModule)
    assert isinstance(module.factors[0], MFactor)
    assert isinstance(module.v_space, OneDim)
    assert module.beta == 3


def test_f_spec_variants():
    spec = dict(F_SPEC, P={"kind": "Omega", "lambda": ["2", "3"]}, V={"kind": "Whittaker"})
    module = module_from_spec(spec)
    assert isinstance(module.factors[1], OmegaFactor)
    assert isinstance(module.v_space, Whittaker)
    spec = dict(F_SPEC, P={"kind": "P0xM", "P0": {"kind": "Omega", "lambda": "2"}, "w": "1/3"})
    module = module_from_spec(spec)
    assert isinstance(module.factors[0], OmegaFactor)
    assert isinstance(module.factors[1], MFactor)
    assert module.factors[1].weight == F(1, 3)


def test_omega_and_tensor_specs():
    module = module_from_spec(OMEGA_SPEC)
    assert isinstance(module, OmegaModule)
    assert module.params.g == (F(1), F(0), F(1))
    t_spec = {"family": "T", "factors": [dict(OMEGA_SPEC), dict(OMEGA_SPEC, **{"lambda": "3"})]}
    for f in t_spec["factors"]:
        f.pop("family", None)
    module = module_from_spec(t_spec)
    assert isinstance(module, TensorModule)
    assert module.m == 2


def test_schema_rejects_bad_specs_with_pointer():
    with pytest.raises(InvalidSpec):
        validate_module_spec({"family": "F", "alpha": "x"})
    with pytest.raises(InvalidSpec) as err:
        validate_module_spec(dict(OMEGA_SPEC, beta="1.5"))
    assert "beta" in str(err.value) or "/" in str(err.value)
    with pytest.raises(InvalidSpec):
        validate_module_spec({"family": "T", "factors": []})


T_FACTOR = {k: v for k, v in OMEGA_SPEC.items() if k != "family"}


@pytest.mark.parametrize("zero", ["0", "-0", "0/3"])
@pytest.mark.parametrize("spec_with", [
    pytest.param(lambda z: dict(OMEGA_SPEC, beta=z), id="Omega-beta"),
    pytest.param(lambda z: dict(OMEGA_SPEC, **{"lambda": z}), id="Omega-lambda"),
    pytest.param(lambda z: {"family": "T", "factors": [dict(T_FACTOR, beta=z)]}, id="T-beta"),
    pytest.param(lambda z: {"family": "T", "factors": [T_FACTOR, dict(T_FACTOR, **{"lambda": z})]},
                 id="T-lambda"),
    pytest.param(lambda z: dict(F_SPEC, beta=z), id="F-beta"),
    pytest.param(lambda z: dict(
        F_SPEC, P={"kind": "P0xM", "P0": {"kind": "Omega", "lambda": z}, "w": "1"}),
        id="F-Omega-factor-lambda"),
    pytest.param(lambda z: dict(F_SPEC, P={"kind": "Omega", "lambda": ["2", z]}),
                 id="F-Omega-pair-lambda"),
])
def test_schema_rejects_zero_where_constructors_need_nonzero(spec_with, zero):
    # The same spec with 1 in that field is valid, so the schema rejects the zero.
    module_from_spec(spec_with("1"))
    with pytest.raises(InvalidSpec):
        validate_module_spec(spec_with(zero))


@pytest.mark.parametrize("spec, pointer", [
    (dict(OMEGA_SPEC, beta="x"), "/beta"),
    (dict(OMEGA_SPEC, beta="0"), "/beta"),
    (dict(OMEGA_SPEC, **{"lambda": "0"}), "/lambda"),
    (dict(OMEGA_SPEC, gamma="1.5"), "/gamma"),
    (dict(F_SPEC, alpha="x"), "/alpha"),
    (dict(F_SPEC, P={"kind": "P0xM", "P0": {"kind": "Omega", "lambda": "0"}, "w": "1"}),
     "/P/P0/lambda"),
    (dict(F_SPEC, P={"kind": "P0xM", "P0": {"kind": "M", "w": "x"}, "w": "1"}), "/P/P0/w"),
    (dict(F_SPEC, P={"kind": "P0xM", "P0": {"kind": "Q", "w": "1"}, "w": "1"}), "/P/P0/kind"),
    (dict(F_SPEC, P={"kind": "Omega", "lambda": ["2", "0"]}), "/P/lambda/1"),
    (dict(F_SPEC, V={"kind": "C_eps", "eps": "x"}), "/V/eps"),
    ({**OMEGA_SPEC, "family": "X"}, "/family"),
], ids=lambda x: x if isinstance(x, str) else None)
def test_schema_error_names_the_field_of_the_chosen_branch(spec, pointer):
    with pytest.raises(InvalidSpec) as err:
        validate_module_spec(spec)
    assert err.value.pointer == pointer


def test_poly_json_round_trip():
    module = module_from_spec(OMEGA_SPEC)
    p = module.ring.from_terms([((1, 2), F(3, 2)), ((0, 0), F(-1))])
    assert poly_from_json(module.ring, poly_to_json(p)) == p


def test_rank1_data_json():
    data = rank1_data_from_json(
        {
            "lambda": "2",
            "p": [[[0, 0], "1/2"]],
            "B0": [[[0, 2], "1"]],
            "C0": [[[0, 0], "-3"]],
            "D0": [[[0, 3], "1/3"]],
        }
    )
    assert data.lam == 2
    assert data.C0.coefficient((0, 0)) == -3
    with pytest.raises(InvalidSpec):
        rank1_data_from_json({"lambda": "2"})
