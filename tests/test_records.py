"""The record classes: value equality by class and fields, hashing, immutability, validation.

Each former dataclass is built here the way ``perfbench/workloads.py`` and
``specs.py`` build it, positionally or by keyword.
"""

from fractions import Fraction as F

import pytest

from wittdiamond.axioms import AxiomReport
from wittdiamond.certificates import Certificate, CertStep
from wittdiamond.exceptions import InvalidSpec
from wittdiamond.fock import EpsilonSimplicity, MFactor, OmegaFactor, OneDim, Whittaker
from wittdiamond.homomorphisms import (
    CorruptedPhiAB,
    HomReport,
    PhiAB,
    PhiABGG,
    Witness,
    verify_hom,
)
from wittdiamond.lie import gen
from wittdiamond.omega import (
    RANK1_RING,
    Degenerate,
    InvarianceReport,
    OmegaModule,
    OmegaParams,
    Rank1ActionData,
    UhRankReport,
)
from wittdiamond.operators import R0, UB, UbAlgebra, WeylAlgebra
from wittdiamond.oracle import ClosureReport, TruncationPolicy
from wittdiamond.poly import PolyRing
from wittdiamond.tensor import DetResult, DetSpec, IsoResult, TensorModule, tensor_generate


def _rank1_data():
    return Rank1ActionData(lam=F(2), p=RANK1_RING.const(F(1, 2)), B0=RANK1_RING.var("a0"),
                           C0=RANK1_RING.const(-3), D0=RANK1_RING.var("a0", 2))


# name -> a builder of a fresh instance; inputs that the constructor normalizes
# are written in a form other than their normal one.
FROZEN = {
    "PolyRing": lambda: PolyRing(("s", "t"), (False, False)),
    "WeylAlgebra": lambda: WeylAlgebra(("x0", "x1"), (True, True)),
    "UbAlgebra": UbAlgebra,
    "OmegaParams": lambda: OmegaParams(F(1, 2), 3, "0", 2, (1, 0, 1, 0)),
    "Rank1ActionData": _rank1_data,
    "Degenerate": lambda: Degenerate(submodule="span{ L0^i a0^n v : i >= 0, n >= 1 }"),
    "DetSpec": lambda: DetSpec([1, "1/2"], [2, 1], 0),
    "PhiAB": lambda: PhiAB(F(1, 2), 3),
    "CorruptedPhiAB": lambda: CorruptedPhiAB("1/2", F(3)),
    "PhiABGG": lambda: PhiABGG(F(1, 2), F(-3, 5), F(2, 7), (F(1, 11), 0, F(1, 7))),
    "MFactor": lambda: MFactor("1/3"),
    "OmegaFactor": lambda: OmegaFactor(2),
    "OneDim": lambda: OneDim(-31),
    "Whittaker": Whittaker,
    "TruncationPolicy": TruncationPolicy,
    "CertStep": lambda: CertStep(((F(1, 2), ()), (F(1), (gen("L", 0), gen("a", 0))))),
}

RECORDS = {
    "AxiomReport": lambda: AxiomReport(window=1, vectors=2),
    "ClosureReport": lambda: ClosureReport("1", 3, 10, ClosureReport.PROPER, 0, 2, True),
    "InvarianceReport": lambda: InvarianceReport(probes=3),
    "UhRankReport": lambda: UhRankReport(images=[], operators={}, facts={"d[0] A": True}),
    "DetResult": lambda: DetResult(computed=F(2), closed_form=F(2), rows=[[1]], denominators=[1]),
    "IsoResult": lambda: IsoResult(isomorphic=False, invariant="lambda"),
    "HomReport": lambda: HomReport(window=1, max_index_degree=2, pairs_checked=120, violations=[]),
    "Witness": lambda: Witness("L[0]", []),
    "EpsilonSimplicity": lambda: EpsilonSimplicity(F(-31)),
    "Certificate": lambda: Certificate([CertStep(((F(1, 2), ()),))]),
}


@pytest.mark.parametrize("name", FROZEN)
def test_frozen_values_compare_and_hash_by_fields(name):
    a, b = FROZEN[name](), FROZEN[name]()
    assert a is not b and a == b and not a != b
    if name != "Rank1ActionData":  # its SparsePoly fields are unhashable
        assert hash(a) == hash(b)
        assert len({a, b}) == 1
    assert a != object() and a != () and bool(a)


@pytest.mark.parametrize("name", FROZEN)
def test_frozen_values_refuse_assignment(name):
    value = FROZEN[name]()
    before = repr(value)
    for field in list(vars(value)) or ["anything"]:
        with pytest.raises(AttributeError):
            setattr(value, field, 0)
        with pytest.raises(AttributeError):
            delattr(value, field)
    assert repr(value) == before


@pytest.mark.parametrize("name", RECORDS)
def test_result_records_compare_by_fields_and_do_not_hash(name):
    a, b = RECORDS[name](), RECORDS[name]()
    assert a == b
    with pytest.raises(TypeError):
        hash(a)
    setattr(a, next(iter(vars(a))), None)
    assert a != b


def test_equality_checks_the_class():
    assert PhiAB(1, 2) != CorruptedPhiAB(1, 2) and CorruptedPhiAB(1, 2) != PhiAB(1, 2)
    assert R0 != PolyRing(("x0",), (True,))
    assert UbAlgebra() == UbAlgebra() == UB and UbAlgebra() != () and bool(UbAlgebra())
    assert Whittaker() != UbAlgebra() and MFactor(2) != OneDim(2) != OmegaFactor(2)
    # The algebra pairs of the bracket tables are dict keys.
    assert {(R0, UB): 1}[WeylAlgebra(("x0",), (True,)), UbAlgebra()] == 1


def test_constructors_keep_their_defaults_and_normalization():
    assert TruncationPolicy() == TruncationPolicy(4, 2, 64)
    assert TruncationPolicy(max_steps=65).max_steps == 65
    par = OmegaParams(alpha=F(1, 2), beta=F(3), gamma=F(0), lam=F(2), g=(F(1), F(0), F(1)))
    assert par == FROZEN["OmegaParams"]() and par.g == (1, 0, 1)
    assert repr(par) == ("OmegaParams(alpha=Fraction(1, 2), beta=Fraction(3, 1), "
                         "gamma=Fraction(0, 1), lam=Fraction(2, 1), "
                         "g=(Fraction(1, 1), Fraction(0, 1), Fraction(1, 1)))")
    spec = FROZEN["DetSpec"]()
    assert spec.alphas == (1, F(1, 2)) and spec.sizes == (2, 1)
    assert PhiABGG(1, 2, 3, ["1/2"]).g == (F(1, 2),)
    report = AxiomReport(1, 2)
    assert report.pairs_checked == 0 and report.violations == []
    assert report.violations is not AxiomReport(1, 2).violations
    assert InvarianceReport() == InvarianceReport(0, 0, 0, [], False)
    assert IsoResult(True) == IsoResult(True, None, None)
    # DetResult equality ignores the rows and their denominators.
    assert DetResult(F(2), F(2), [[1]], [1]) == DetResult(F(2), F(2), [[2]], [3])
    assert repr(DetResult(F(2), F(3), [[1]], [1])) == (
        "DetResult(computed=Fraction(2, 1), closed_form=Fraction(3, 1))")


@pytest.mark.parametrize("build, error", [
    (lambda: DetSpec((0, 1), (1, 1), 0), InvalidSpec),
    (lambda: DetSpec((2, "4/2"), (1, 1), 0), InvalidSpec),
    (lambda: DetSpec((1,), (1, 2), 0), InvalidSpec),
    (lambda: DetSpec((1,), (0,), 0), InvalidSpec),
    (lambda: DetSpec((1,), (1,), -1), InvalidSpec),
    (lambda: PolyRing(("x", "y"), (True,)), ValueError),
    (lambda: PolyRing(("x", "x"), (True, True)), ValueError),
    (lambda: TruncationPolicy(0), ValueError),
    (lambda: TruncationPolicy(4, 2, 0), ValueError),
    (lambda: PhiAB(1, 0), InvalidSpec),
    (lambda: PhiABGG(1, "0/3", 0, ()), InvalidSpec),
    (lambda: OmegaParams(1, 0, 0, 2, ()), InvalidSpec),
    (lambda: OmegaParams(1, 1, 0, 0, ()), InvalidSpec),
    (lambda: OmegaFactor(0), InvalidSpec),
    (lambda: Rank1ActionData(0, *[RANK1_RING.one()] * 4), ValueError),
    (lambda: Rank1ActionData(1, PolyRing(("t",), (False,)).one(), *[RANK1_RING.one()] * 3),
     ValueError),
    (lambda: MFactor("foo"), ValueError),
    (lambda: verify_hom(PhiAB(1, 2), 0), ValueError),
    (lambda: tensor_generate(OmegaModule(OmegaParams(1, 1, 0, 2, ())), (1, 0, 1)), ValueError),
    (lambda: tensor_generate(TensorModule([OmegaParams(1, 1, 0, 2, ()),
                                           OmegaParams(1, 1, 0, 3, ())]), (1, 0, -1, 0)),
     ValueError),
], ids=["det-zero-alpha", "det-repeated-alpha", "det-sizes", "det-size-0", "det-r",
        "ring-lengths", "ring-names", "policy-degree", "policy-steps", "ab-beta", "abgg-beta",
        "omega-beta", "omega-lambda", "omega-factor", "rank1-lambda", "rank1-ring", "m-weight",
        "hom-window", "generate-length", "generate-negative"])
def test_validation_errors_are_unchanged(build, error):
    with pytest.raises(error):
        build()
