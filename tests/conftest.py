"""Shared test oracles and the shipped JSON schemas."""

import json
from importlib import resources

import pytest

from wittdiamond.lie import bracket, generators_in_window
from wittdiamond.operators import TensorElement


def load_schema(name: str) -> dict:
    """A JSON schema shipped with the package, read from its installed file."""
    return json.loads(resources.files("wittdiamond").joinpath("schemas", name).read_text())


def _reference_violations(phi, window):
    """verify_hom's violation list recomputed with uv - vu and a summed bracket image."""
    gens = generators_in_window(window)
    out = []
    for i, x in enumerate(gens):
        for y in gens[i:]:
            u, v = phi.image(x), phi.image(y)
            rhs = TensorElement(phi.left_algebra, phi.right_algebra)
            for g, c in bracket(x, y).terms.items():
                rhs = rhs + phi.image(g).scaled(c)
            if u * v - v * u != rhs:
                out.append((str(x), str(y)))
    return out


@pytest.fixture
def reference_violations():
    return _reference_violations
