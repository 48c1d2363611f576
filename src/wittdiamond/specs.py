"""JSON module specifications: schema validation and construction.

Rationals travel as "p/q" strings, polynomials as [[power, "coef"], ...]
pairs, and module families are discriminated by the "family" key; the
JSON Schema shipped with the package is authoritative for the format.
"""

from __future__ import annotations

import json
from importlib import resources

import jsonschema

from .exceptions import InvalidSpec
from .fock import FModule, MFactor, OmegaFactor, OneDim, Whittaker
from .omega import RANK1_RING, OmegaModule, OmegaParams, Rank1ActionData
from .poly import SparsePoly
from .scalars import ZERO, scalar
from .tensor import TensorModule

_SCHEMA_CACHE: dict[str, dict] = {}


def load_schema(name: str) -> dict:
    if name not in _SCHEMA_CACHE:
        text = resources.files("wittdiamond").joinpath("schemas", name).read_text()
        _SCHEMA_CACHE[name] = json.loads(text)
    return _SCHEMA_CACHE[name]


def validate_module_spec(obj) -> None:
    """Schema-check a module spec; errors carry a JSON-pointer location.

    The schema dispatches on ``family`` (and on each ``kind``) before it
    validates a branch, so an error names the offending field, e.g. /beta.
    """
    validator = jsonschema.Draft202012Validator(load_schema("module_spec.schema.json"))
    best = jsonschema.exceptions.best_match(validator.iter_errors(obj))
    if best is not None:
        pointer = "/" + "/".join(str(p) for p in best.absolute_path)
        raise InvalidSpec(best.message, pointer=pointer)


def _coeffs(entries) -> tuple:
    out: dict[int, object] = {}
    for power, coef in entries:
        out[int(power)] = out.get(int(power), ZERO) + scalar(coef)
    top = max(out, default=-1)
    return tuple(out.get(k, ZERO) for k in range(top + 1))


def omega_params_from_spec(obj) -> OmegaParams:
    return OmegaParams(
        alpha=scalar(obj["alpha"]),
        beta=scalar(obj["beta"]),
        gamma=scalar(obj["gamma"]),
        lam=scalar(obj["lambda"]),
        g=_coeffs(obj["g"]),
    )


def _factor_from_1d(obj):
    if obj["kind"] == "M":
        return MFactor(scalar(obj["w"]))
    return OmegaFactor(scalar(obj["lambda"]))


def module_from_spec(obj):
    """Build a concrete module from a validated spec dictionary."""
    validate_module_spec(obj)
    family = obj["family"]
    if family == "Omega":
        return OmegaModule(omega_params_from_spec(obj))
    if family == "T":
        return TensorModule([omega_params_from_spec(f) for f in obj["factors"]])
    P = obj["P"]
    if P["kind"] == "M":
        f0, f1 = MFactor(scalar(P["w"][0])), MFactor(scalar(P["w"][1]))
    elif P["kind"] == "Omega":
        f0, f1 = OmegaFactor(scalar(P["lambda"][0])), OmegaFactor(scalar(P["lambda"][1]))
    else:
        f0, f1 = _factor_from_1d(P["P0"]), MFactor(scalar(P["w"]))
    V = obj["V"]
    v_space = OneDim(scalar(V["eps"])) if V["kind"] == "C_eps" else Whittaker()
    return FModule(scalar(obj["alpha"]), scalar(obj["beta"]), f0, f1, v_space)


def poly_to_json(p: SparsePoly):
    return [[list(exps), str(c)] for exps, c in sorted(p.terms.items())]


def poly_from_json(ring, data) -> SparsePoly:
    return ring.from_terms((tuple(exps), scalar(c)) for exps, c in data)


def rank1_data_from_json(obj) -> Rank1ActionData:
    """Action-data files: lambda plus the four structure polynomials.

    Polynomial terms are [[l0_power, a0_power], "coef"] pairs.
    """
    try:
        return Rank1ActionData(
            lam=scalar(obj["lambda"]),
            p=poly_from_json(RANK1_RING, obj["p"]),
            B0=poly_from_json(RANK1_RING, obj["B0"]),
            C0=poly_from_json(RANK1_RING, obj["C0"]),
            D0=poly_from_json(RANK1_RING, obj["D0"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidSpec(f"malformed action data: {exc}") from exc


def vector_report(p: SparsePoly):
    return {"text": str(p), "terms": poly_to_json(p)}
