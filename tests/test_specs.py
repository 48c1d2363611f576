"""JSON module specs: the reader, its agreement with the shipped schema, serialization."""

import copy
from fractions import Fraction as F

import jsonschema
import pytest
from conftest import load_schema
from hypothesis import given, settings, strategies as st

from wittdiamond.exceptions import InvalidSpec
from wittdiamond.fock import FModule, MFactor, OmegaFactor, OneDim, Whittaker
from wittdiamond.omega import OmegaModule
from wittdiamond.specs import (
    MAX_G_POWER,
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


# Broken specs with the pointer of the field the reader names; the first
# eleven pin the branch chosen by "family" and each "kind".
BROKEN_SPECS = [
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
    (dict(OMEGA_SPEC, g=[[True, "1"]]), "/g/0/0"),
    (dict(OMEGA_SPEC, g=[[1.5, "1"]]), "/g/0/0"),
    (dict(OMEGA_SPEC, g=[[-1, "1"]]), "/g/0/0"),
    (dict(OMEGA_SPEC, g=[[0, "1"], [1, 2]]), "/g/1/1"),
    (dict(OMEGA_SPEC, g=[[0, "1", "2"]]), "/g/0"),
    (dict(OMEGA_SPEC, g={"0": "1"}), "/g"),
    (dict(OMEGA_SPEC, w="1"), "/w"),
    ({k: v for k, v in OMEGA_SPEC.items() if k != "gamma"}, "/gamma"),
    ({"family": "T", "factors": [T_FACTOR, dict(T_FACTOR, family="T")]}, "/factors/1/family"),
    ({"family": "T", "factors": []}, "/factors"),
    ({"family": "T", "factors": [T_FACTOR], "alpha": "1"}, "/alpha"),
    (dict(F_SPEC, P={"kind": "M", "w": ["0"]}), "/P/w"),
    (dict(F_SPEC, P={"kind": "M", "lambda": ["1", "2"]}), "/P/lambda"),
    (dict(F_SPEC, V={"kind": "Whittaker", "eps": "1"}), "/V/eps"),
    (dict(F_SPEC, V={"eps": "1"}), "/V/kind"),
    (dict(F_SPEC, beta=3), "/beta"),
    (dict(F_SPEC, beta=True), "/beta"),
    ({"alpha": "1"}, "/family"),
    ([OMEGA_SPEC], ""),
    # g is stored densely, so its powers are bounded.
    (dict(OMEGA_SPEC, g=[[0, "1"], [MAX_G_POWER + 1, "1"]]), "/g/1/0"),
    (dict(OMEGA_SPEC, g=[[10**6 * 1.0, "1"]]), "/g/0/0"),
    ({"family": "T", "factors": [dict(T_FACTOR, g=[[10**12, "1"]])]}, "/factors/0/g/0/0"),
]


@pytest.mark.parametrize("spec, pointer", BROKEN_SPECS,
                         ids=lambda x: x if isinstance(x, str) else None)
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


ACTION_DATA = {"lambda": "2", "p": [[[0, 0], "1/2"]], "B0": [[[0, 2], "1"]],
               "C0": [[[0, 0], "-3"]], "D0": [[[0, 3], "1/3"]]}


@pytest.mark.parametrize("data, pointer", [
    (dict(ACTION_DATA, p=[[[0], "1"]]), "/p/0/0"),
    (dict(ACTION_DATA, p=[[[0, -1], "1"]]), "/p/0/0/1"),
    (dict(ACTION_DATA, p=[[[0, 0, 0], "1"]]), "/p/0/0"),
    (dict(ACTION_DATA, B0=[[[0, 1.5], "1"]]), "/B0/0/0/1"),
    (dict(ACTION_DATA, C0=[[[0, 0], "x"]]), "/C0/0/1"),
    (dict(ACTION_DATA, D0=[[0, "1"]]), "/D0/0/0"),
    (dict(ACTION_DATA, **{"lambda": "0"}), "/lambda"),
    (dict(ACTION_DATA, extra=[]), "/extra"),
    ({k: v for k, v in ACTION_DATA.items() if k != "D0"}, "/D0"),
    ("not an object", ""),
], ids=lambda x: x if isinstance(x, str) else None)
def test_action_data_error_names_the_field(data, pointer):
    with pytest.raises(InvalidSpec) as err:
        rank1_data_from_json(data)
    assert err.value.pointer == pointer


# -- agreement with the shipped schema ----------------------------------------

SCHEMA = jsonschema.Draft202012Validator(load_schema("module_spec.schema.json"))

# One valid spec per family and kind, with the edge cases of the schema's
# types: a float integer power, a repeated power, leading zeros, "-0".
VALID_SPECS = [
    F_SPEC,
    dict(F_SPEC, P={"kind": "Omega", "lambda": ["2", "-3/4"]}, V={"kind": "Whittaker"}),
    dict(F_SPEC, P={"kind": "P0xM", "P0": {"kind": "M", "w": "-0"}, "w": "1/3"}),
    dict(F_SPEC, P={"kind": "P0xM", "P0": {"kind": "Omega", "lambda": "007"}, "w": "0/5"}),
    OMEGA_SPEC,
    dict(OMEGA_SPEC, g=[]),
    dict(OMEGA_SPEC, g=[[1.0, "1/2"], [1, "-1/2"], [0, "-03/4"]], beta="-05/2"),
    dict(OMEGA_SPEC, g=[[MAX_G_POWER, "1"]]),
    {"family": "T", "factors": [T_FACTOR]},
    {"family": "T", "factors": [dict(T_FACTOR, family="Omega"), dict(T_FACTOR, **{"lambda": "3"})]},
]


def _reader_accepts(spec) -> bool:
    try:
        validate_module_spec(spec)
    except InvalidSpec:
        return False
    return True


@pytest.mark.parametrize("spec", VALID_SPECS + [spec for spec, _ in BROKEN_SPECS])
def test_reader_and_schema_agree_on_the_hand_corpus(spec):
    assert _reader_accepts(spec) == SCHEMA.is_valid(spec)


def test_schema_bounds_g_powers_by_the_reader_maximum():
    power = load_schema("module_spec.schema.json")["$defs"]["polyCoeffs"]["items"]["prefixItems"][0]
    assert power["maximum"] == MAX_G_POWER


def test_valid_corpus_passes_the_schema():
    # With the agreement above, the reader accepts these and rejects BROKEN_SPECS.
    assert all(SCHEMA.is_valid(spec) for spec in VALID_SPECS)


BAD_VALUES = ["x", "1.5", "+1", "1/0", "", "0", "-0", "0/3", "1", True, False, 0, -1, 1.0, 1.5,
              None, [], {}]
KINDS = ["F", "Omega", "T", "M", "P0xM", "C_eps", "Whittaker", "Q"]
KEYS = ["family", "kind", "alpha", "beta", "gamma", "lambda", "g", "w", "P", "P0", "V", "eps",
        "factors", "x"]


def _locations(node, path=()):
    """(path, node) for every value inside a spec, the spec itself first."""
    yield path, node
    children = node.items() if isinstance(node, dict) else enumerate(node) \
        if isinstance(node, list) else ()
    for key, child in children:
        yield from _locations(child, path + (key,))


@st.composite
def mutated_specs(draw):
    """A valid spec with one or two keys deleted or added, kinds swapped or values replaced."""
    spec = copy.deepcopy(draw(st.sampled_from(VALID_SPECS)))
    for _ in range(draw(st.integers(1, 2))):
        path, node = draw(st.sampled_from(list(_locations(spec))))
        parent = spec
        for key in path[:-1]:
            parent = parent[key]
        how = draw(st.sampled_from(["delete", "add", "kind", "value"]))
        value = copy.deepcopy(draw(st.sampled_from(BAD_VALUES)))
        if how == "delete" and path:
            del parent[path[-1]]
        elif how == "add" and isinstance(node, dict):
            node[draw(st.sampled_from(KEYS))] = value
        elif how == "add" and isinstance(node, list):
            node.append(value)
        elif how == "kind" and isinstance(node, dict):
            node["kind" if "kind" in node else "family"] = draw(st.sampled_from(KINDS))
        elif path:
            parent[path[-1]] = value
    return spec


@settings(max_examples=1000, deadline=None)
@given(mutated_specs())
def test_reader_and_schema_agree_on_mutated_specs(spec):
    assert _reader_accepts(spec) == SCHEMA.is_valid(spec)


def test_trailing_newline_is_the_one_divergence_from_python_jsonschema():
    # python-jsonschema matches "^...$" with re.search, where "$" also matches
    # before a final newline; ECMA-262 "$" does not, and the reader uses fullmatch.
    spec = dict(OMEGA_SPEC, alpha="1\n")
    assert SCHEMA.is_valid(spec)
    with pytest.raises(InvalidSpec) as err:
        validate_module_spec(spec)
    assert err.value.pointer == "/alpha"
