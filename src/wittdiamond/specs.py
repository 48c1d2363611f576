"""JSON module specifications: one reader that checks and constructs.

Rationals travel as "p/q" strings, polynomials as [[power, "coef"], ...]
pairs, and module families are discriminated by the "family" key (and each
nested part by its "kind").  The reader checks every field as it reads it
and raises :class:`InvalidSpec` with the JSON pointer of the offending
field, e.g. ``/P/P0/lambda`` or ``/g/0/1``.  The reader is authoritative;
``schemas/module_spec.schema.json`` documents the same format, and a
differential test keeps the two in step.

JSON-Schema semantics are kept where they matter: an integer is a JSON
number with no fractional part (``1.0`` is one, ``true`` is not), and a
rational must match its pattern in full, so ``"1\\n"`` is rejected.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .exceptions import InvalidSpec
from .fock import FModule, MFactor, OmegaFactor, OneDim, Whittaker
from .omega import RANK1_RING, OmegaModule, OmegaParams, Rank1ActionData
from .poly import SparsePoly
from .scalars import ZERO
from .tensor import TensorModule

_RATIONAL = re.compile(r"-?[0-9]+(/[1-9][0-9]*)?")
_NONZERO_RATIONAL = re.compile(r"-?0*[1-9][0-9]*(/[1-9][0-9]*)?")
_OMEGA_KEYS = ("alpha", "beta", "gamma", "lambda", "g")
# The largest power of t in g; g is stored densely, so this bounds its size.
MAX_G_POWER = 1000
_ACTION_POLYS = ("p", "B0", "C0", "D0")


def _at(pointer: str, key) -> str:
    """The JSON pointer (RFC 6901) of ``key`` inside ``pointer``."""
    return f"{pointer}/{str(key).replace('~', '~0').replace('/', '~1')}"


_JSON_TYPES = {bool: "a boolean", int: "a number", float: "a number", str: "a string",
               list: "an array", dict: "an object", type(None): "null"}


def _json_type(value) -> str:
    return _JSON_TYPES.get(type(value), type(value).__name__)


def _object(value, pointer: str, keys, optional=()) -> dict:
    """``value`` as an object holding all of ``keys`` and no key but those and ``optional``."""
    if not isinstance(value, dict):
        raise InvalidSpec(f"expected an object, got {_json_type(value)}", pointer)
    for key in value:
        if key not in keys and key not in optional:
            raise InvalidSpec(f"unknown key {key!r}", _at(pointer, key))
    for key in keys:
        if key not in value:
            raise InvalidSpec(f"missing key {key!r}", _at(pointer, key))
    return value


def _kind(value, pointer: str, key: str, choices) -> str:
    """The discriminator ``key`` of an object, one of ``choices``; its branch checks the rest."""
    if not isinstance(value, dict):
        raise InvalidSpec(f"expected an object, got {_json_type(value)}", pointer)
    if key not in value:
        raise InvalidSpec(f"missing key {key!r}", _at(pointer, key))
    kind = value[key]
    if not isinstance(kind, str) or kind not in choices:
        choices = ", ".join(map(repr, choices))
        raise InvalidSpec(f"{kind!r} is not one of {choices}", _at(pointer, key))
    return kind


def _items(value, pointer: str, size: int | None = None, min_size: int = 0) -> list:
    """(item, pointer) pairs of an array of ``size`` items, or of at least ``min_size``."""
    if not isinstance(value, list):
        raise InvalidSpec(f"expected an array, got {_json_type(value)}", pointer)
    if size is not None and len(value) != size:
        raise InvalidSpec(f"expected {size} items, got {len(value)}", pointer)
    if len(value) < min_size:
        raise InvalidSpec(f"expected at least {min_size} item(s), got {len(value)}", pointer)
    return [(item, _at(pointer, i)) for i, item in enumerate(value)]


def _rational(value, pointer: str, nonzero: bool = False) -> Fraction:
    pattern = _NONZERO_RATIONAL if nonzero else _RATIONAL
    if not isinstance(value, str) or not pattern.fullmatch(value):
        what = "a nonzero rational" if nonzero else "a rational"
        raise InvalidSpec(f'{value!r} is not {what} "p" or "p/q"', pointer)
    try:
        return Fraction(value)
    except ValueError:  # above Python's limit on the digits of an int string
        raise InvalidSpec("a rational with more digits than Python converts", pointer) from None


def _integer(value, pointer: str, minimum: int | None = 0, maximum: int | None = None) -> int:
    """A JSON integer: an int that is not a bool, or a float with no fractional part."""
    integral = isinstance(value, int) or isinstance(value, float) and value.is_integer()
    if isinstance(value, bool) or not integral:
        raise InvalidSpec(f"{value!r} is not an integer", pointer)
    if minimum is not None and value < minimum:
        raise InvalidSpec(f"{value!r} is below the minimum {minimum}", pointer)
    if maximum is not None and value > maximum:
        raise InvalidSpec(f"{value!r} is above the maximum {maximum}", pointer)
    return int(value)


def _coeffs(value, pointer: str) -> tuple:
    """Dense coefficients of g from [[power, "coef"], ...] pairs; a repeated power adds up.

    A power above ``MAX_G_POWER`` is rejected before anything is allocated.
    """
    out: dict[int, Fraction] = {}
    for pair, at in _items(value, pointer):
        (power, power_at), (coef, coef_at) = _items(pair, at, 2)
        power = _integer(power, power_at, maximum=MAX_G_POWER)
        out[power] = out.get(power, ZERO) + _rational(coef, coef_at)
    top = max(out, default=-1)
    return tuple(out.get(k, ZERO) for k in range(top + 1))


def _omega_params(value, pointer: str) -> OmegaParams:
    """An Omega body; its optional "family" must then be "Omega"."""
    obj = _object(value, pointer, _OMEGA_KEYS, optional=("family",))
    if obj.get("family", "Omega") != "Omega":
        raise InvalidSpec(f"{obj['family']!r} is not 'Omega'", _at(pointer, "family"))
    return OmegaParams(
        alpha=_rational(obj["alpha"], _at(pointer, "alpha")),
        beta=_rational(obj["beta"], _at(pointer, "beta"), nonzero=True),
        gamma=_rational(obj["gamma"], _at(pointer, "gamma")),
        lam=_rational(obj["lambda"], _at(pointer, "lambda"), nonzero=True),
        g=_coeffs(obj["g"], _at(pointer, "g")),
    )


def _factor_1d(value, pointer: str):
    """A one-variable factor: {"kind": "M", "w": w} or {"kind": "Omega", "lambda": l}."""
    if _kind(value, pointer, "kind", ("M", "Omega")) == "M":
        return MFactor(_rational(_object(value, pointer, ("kind", "w"))["w"], _at(pointer, "w")))
    obj = _object(value, pointer, ("kind", "lambda"))
    return OmegaFactor(_rational(obj["lambda"], _at(pointer, "lambda"), nonzero=True))


def _weyl_factors(value, pointer: str) -> tuple:
    """The two factors of P: a pair of M or Omega factors, or P0 (x) M."""
    kind = _kind(value, pointer, "kind", ("M", "Omega", "P0xM"))
    if kind == "P0xM":
        obj = _object(value, pointer, ("kind", "P0", "w"))
        p0 = _factor_1d(obj["P0"], _at(pointer, "P0"))
        return p0, MFactor(_rational(obj["w"], _at(pointer, "w")))
    if kind == "M":
        pair = _items(_object(value, pointer, ("kind", "w"))["w"], _at(pointer, "w"), 2)
        return tuple(MFactor(_rational(w, at)) for w, at in pair)
    pair = _items(_object(value, pointer, ("kind", "lambda"))["lambda"], _at(pointer, "lambda"), 2)
    return tuple(OmegaFactor(_rational(lam, at, nonzero=True)) for lam, at in pair)


def _v_space(value, pointer: str):
    if _kind(value, pointer, "kind", ("C_eps", "Whittaker")) == "Whittaker":
        _object(value, pointer, ("kind",))
        return Whittaker()
    return OneDim(_rational(_object(value, pointer, ("kind", "eps"))["eps"], _at(pointer, "eps")))


def validate_module_spec(obj):
    """Read a module spec, checking each field as it is read; return its module.

    An error raises :class:`InvalidSpec` with the JSON pointer of the field
    of the branch that ``family`` (and each ``kind``) selects, e.g. /beta.
    """
    family = _kind(obj, "", "family", ("F", "Omega", "T"))
    if family == "Omega":
        return OmegaModule(_omega_params(obj, ""))
    if family == "T":
        factors = _object(obj, "", ("family", "factors"))["factors"]
        factors = _items(factors, "/factors", min_size=1)
        return TensorModule([_omega_params(f, at) for f, at in factors])
    obj = _object(obj, "", ("family", "alpha", "beta", "P", "V"))
    f0, f1 = _weyl_factors(obj["P"], "/P")
    return FModule(
        _rational(obj["alpha"], "/alpha"),
        _rational(obj["beta"], "/beta", nonzero=True),
        f0,
        f1,
        _v_space(obj["V"], "/V"),
    )


def module_from_spec(obj):
    """Build a concrete module from a spec dictionary, validating it once."""
    return validate_module_spec(obj)


def poly_to_json(p: SparsePoly):
    return [[list(exps), str(c)] for exps, c in sorted(p.terms.items())]


def poly_from_json(ring, data, pointer: str = "") -> SparsePoly:
    """Read [[exponents, "coef"], ...] terms, one exponent per variable of ``ring``.

    A polynomial-flagged variable takes a non-negative exponent only.
    """
    terms = []
    for term, at in _items(data, pointer):
        (exps, exps_at), (coef, coef_at) = _items(term, at, 2)
        powers = tuple(
            _integer(e, e_at, minimum=None if laurent else 0)
            for (e, e_at), laurent in zip(_items(exps, exps_at, ring.nvars), ring.laurent)
        )
        terms.append((powers, _rational(coef, coef_at)))
    return ring.from_terms(terms)


def rank1_data_from_json(obj) -> Rank1ActionData:
    """Action-data files: lambda plus the four structure polynomials.

    Polynomial terms are [[l0_power, a0_power], "coef"] pairs; every field is
    checked as it is read, and an error names its JSON pointer, e.g. /p/0/0.
    """
    obj = _object(obj, "", ("lambda", *_ACTION_POLYS))
    return Rank1ActionData(
        lam=_rational(obj["lambda"], "/lambda", nonzero=True),
        **{key: poly_from_json(RANK1_RING, obj[key], "/" + key) for key in _ACTION_POLYS},
    )


def vector_report(p: SparsePoly):
    return {"text": str(p), "terms": poly_to_json(p)}
