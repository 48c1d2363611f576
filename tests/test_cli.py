"""End-to-end CLI behavior: exit codes, reports, schema validation."""

import argparse
import json
import os
import subprocess
import sys
import time

import jsonschema
import pytest
from conftest import RANK_DEFECTS, load_schema, planted_bracket_terms, planted_rank_defect, pure

from wittdiamond import fock, omega, oracle, tensor
from wittdiamond.cli import (MAX_ACT_WORK, MAX_DET_ROWS, MAX_DET_SPECS, MAX_INPUT_POWER,
                             build_parser, main)
from wittdiamond.exceptions import CertificateError, InvalidSpec, NotApplicable
from wittdiamond.fock import FModule
from wittdiamond.homomorphisms import PhiABGG
from wittdiamond.lie import gen, parse_words
from wittdiamond.operators import OperatorElement
from wittdiamond.omega import OmegaModule
from wittdiamond.poly import PolyRing, parse_poly
from wittdiamond.specs import (MAX_DATA_POWER, MAX_G_POWER, module_from_spec, poly_from_json,
                               vector_report)

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
T_SPEC = {
    "family": "T",
    "factors": [
        {"alpha": "1/2", "beta": "3", "gamma": "0", "lambda": "2", "g": [[0, "1"]]},
        {"alpha": "1", "beta": "1", "gamma": "1", "lambda": "3", "g": [[0, "2"]]},
    ],
}
T_EQUAL = {
    "family": "T",
    "factors": [
        {"alpha": "1/2", "beta": "3", "gamma": "0", "lambda": "2", "g": [[0, "1"]]},
        {"alpha": "1", "beta": "1", "gamma": "1", "lambda": "2", "g": [[0, "2"]]},
    ],
}

T_ONE = {"family": "T", "factors": [{k: v for k, v in OMEGA_SPEC.items() if k != "family"}]}


@pytest.fixture
def write_json(tmp_path):
    def _write(name, obj):
        path = tmp_path / name
        path.write_text(json.dumps(obj))
        return str(path)

    return _write


def _check_report(path):
    with open(path) as fh:
        doc = json.load(fh)
    jsonschema.Draft202012Validator(load_schema("report.schema.json")).validate(doc)
    return doc


def test_verify_brackets(tmp_path):
    out = str(tmp_path / "r.json")
    assert main(["verify-brackets", "--out", out]) == 0
    doc = _check_report(out)
    assert doc["status"] == "pass"
    detail = {c["check"]: c["detail"] for c in doc["checks"]}
    assert set(detail) == {"antisymmetry", "jacobi"}
    # Identities in the indices: 25 ordered family pairs, 35 family multisets, no window.
    assert detail["antisymmetry"] == {"complete": True, "for": "all indices", "ring": "Q[m, n]",
                                      "family_tuples": 25, "violations": []}
    assert detail["jacobi"] == {"complete": True, "for": "all indices", "ring": "Q[l, m, n]",
                                "family_tuples": 35, "violations": []}


def test_verify_brackets_counts_the_family_tuples_it_checks(monkeypatch, tmp_path):
    from wittdiamond import lie

    # Four families: 16 ordered pairs and 20 multisets, as the check's loop counts them.
    monkeypatch.setattr(lie, "FAMILIES", ("L", "a", "b", "c"))
    out = str(tmp_path / "r.json")
    assert main(["verify-brackets", "--out", out]) == 0
    assert [c["detail"]["family_tuples"] for c in _check_report(out)["checks"]] == [16, 20]


def test_a_degree_2_bracket_plant_fails_verify_hom_and_classify(monkeypatch):
    from golden.regen import CASES_DIR, run_case

    from wittdiamond import homomorphisms

    # verify-brackets reads ``lie.BRACKET_TABLE`` with the indices as variables, so a
    # plant in the per-index cache is caught by the two checks that read the cache,
    # each on its grid: verify_hom's window {-1, 0, 1} and classify's rank-one grid.
    for module in (homomorphisms, omega):
        monkeypatch.setattr(module, "bracket_terms", planted_bracket_terms)
    for name in ("verify-hom-ab", "classify-round-trip"):
        got = run_case(CASES_DIR / name)
        assert got["exit_code.txt"] == b"1\n", name
        assert json.loads(got["report.json"])["checks"][0]["status"] == "fail", name


def test_verify_hom_both_maps(tmp_path):
    out = str(tmp_path / "r.json")
    assert main([
        "verify-hom", "--map", "ab", "--alpha", "1/2", "--beta", "3", "--out", out,
    ]) == 0
    doc = _check_report(out)
    assert doc["status"] == "pass"
    detail = doc["checks"][0]["detail"]
    assert detail["complete"] is True and detail["pairs"] == 120
    assert detail["window"] == 1 and detail["max_index_degree"] == 2
    assert main([
        "verify-hom", "--map", "abgg", "--alpha", "1/2", "--beta", "3",
        "--gamma", "2", "--g", "t^2 + 1", "--out", out,
    ]) == 0
    assert _check_report(out)["checks"][0]["detail"]["pairs"] == 120


class _PlantedPhi:
    """PhiABGG with L[m] -> phi(L[m]) + m^2 x0^m (x) 1.

    The defect of (L_m, L_n) is -m n (n - m) x0^(m+n) (x) 1: degree 2 in m
    and in n, zero whenever the indices lie in {0, 1}.  The added term
    commutes with every other image, so no other pair has a defect.
    """

    def __init__(self, alpha, beta, gamma, g):
        self.phi = PhiABGG(alpha, beta, gamma, g)

    def image(self, g):
        out = self.phi.image(g)
        if g.family != "L" or not g.index:
            return out
        x0m = OperatorElement.monomial(self.algebra.left, ((g.index,), (0,)), g.index**2)
        return out + pure(x0m, OperatorElement.one(self.algebra.right))

    def __getattr__(self, name):
        return getattr(self.phi, name)


@pytest.mark.usefixtures("verify_hom_reads_images")
def test_verify_hom_grid_catches_a_degree_2_defect(monkeypatch, tmp_path):
    from wittdiamond import cli

    monkeypatch.setattr(cli, "PhiABGG", _PlantedPhi)
    out = str(tmp_path / "r.json")
    assert main(["verify-hom", "--map", "abgg", "--alpha", "1/2", "--beta", "3",
                 "--gamma", "2", "--out", out]) == 1
    detail = _check_report(out)["checks"][0]["detail"]
    assert detail["pairs"] == 120
    assert detail["violations"] == [["L[-1]", "L[1]"]]


@pytest.mark.parametrize("joined, separate", [
    (["verify-hom", "--map", "ab", "--alpha=-2/3", "--beta=5"],
     ["verify-hom", "--map", "ab", "--alpha", "-2/3", "--beta", "5"]),
    (["verify-hom", "--map", "abgg", "--alpha=1/2", "--beta=-3", "--gamma=-1/4"],
     ["verify-hom", "--map", "abgg", "--alpha", "1/2", "--beta", "-3", "--gamma", "-1/4"]),
    (["det-lemma", "--alphas=-2,3", "--max-m", "2", "--max-s", "2"],
     ["det-lemma", "--alphas", "-2,3", "--max-m", "2", "--max-s", "2"]),
    (["verify-hom", "--map", "abgg", "--alpha", "1/2", "--beta", "3", "--g=-t"],
     ["verify-hom", "--map", "abgg", "--alpha", "1/2", "--beta", "3", "--g", "-t"]),
    (["act", "--spec", "<spec>", "--expr", "L[1]", "--vector=-s"],
     ["act", "--spec", "<spec>", "--expr", "L[1]", "--vector", "-s"]),
    (["act", "--spec", "<spec>", "--expr", "a[0]", "--vector=-1/2"],
     ["act", "--spec", "<spec>", "--expr", "a[0]", "--vector", "-1/2"]),
    (["act", "--spec", "<spec>", "--expr=-L[1]", "--vector", "s t"],
     ["act", "--spec", "<spec>", "--expr", "-L[1]", "--vector", "s t"]),
], ids=["ab", "abgg", "det-lemma", "g", "vector-sign", "vector-rational", "expr"])
def test_negative_rationals_as_separate_words(joined, separate, write_json, tmp_path):
    """A value that starts with one '-' is the value of its option, written either way."""
    spec = write_json("omega.json", OMEGA_SPEC)
    out1, out2 = str(tmp_path / "r1.json"), str(tmp_path / "r2.json")
    assert main([spec if a == "<spec>" else a for a in joined] + ["--out", out1]) == 0
    assert main([spec if a == "<spec>" else a for a in separate] + ["--out", out2]) == 0
    assert _check_report(out1) == _check_report(out2)


def test_verify_hom_corrupted_control_fails():
    assert main([
        "verify-hom", "--map", "ab", "--alpha", "1/2", "--beta", "3", "--corrupted",
    ]) == 1


def test_act_q_is_scalar_eps(write_json, tmp_path):
    spec = write_json("f.json", dict(F_SPEC, V={"kind": "C_eps", "eps": "5/2"}))
    out = str(tmp_path / "r.json")
    assert main(["act", "--spec", spec, "--expr", "Q", "--vector",
                 "x0^2 x1^-1", "--out", out]) == 0
    doc = _check_report(out)
    detail = doc["checks"][0]["detail"]
    assert detail["result"]["terms"] == [[[2, -1], "5/2"]]


def test_act_composes_negative_index_generators(write_json, tmp_path):
    out = str(tmp_path / "r.json")
    assert main(["act", "--spec", write_json("t.json", T_SPEC), "--expr", "L[1] d[-1]",
                 "--vector", "1", "--out", out]) == 0
    detail = _check_report(out)["checks"][0]["detail"]
    module = module_from_spec(T_SPEC)
    expected = module.act(gen("L", 1), module.act(gen("d", -1), module.one()))
    assert not expected.is_zero
    assert detail["expression"] == "L[1] d[-1]"
    assert detail["result"] == vector_report(expected)


def test_simplicity_commands(write_json, tmp_path):
    assert main(["simplicity", "--spec", write_json("f.json", F_SPEC)]) == 0
    non_simple = dict(
        F_SPEC,
        alpha="0",
        beta="1",
        P={"kind": "P0xM", "P0": {"kind": "M", "w": "1/3"}, "w": "2"},
        V={"kind": "C_eps", "eps": "-3"},
    )
    assert main(["simplicity", "--spec", write_json("fn.json", non_simple)]) == 0
    assert main(["simplicity", "--spec", write_json("om.json", OMEGA_SPEC)]) == 0
    assert main(["simplicity", "--spec", write_json("t.json", T_SPEC)]) == 0
    out = str(tmp_path / "r.json")
    assert main(["simplicity", "--spec", write_json("teq.json", T_EQUAL), "--out", out]) == 0
    doc = _check_report(out)
    # One check: the probes 1, t1, t2 on index-complete grids of 18 images.
    assert [c["check"] for c in doc["checks"]] == ["simplicity"]
    detail = doc["checks"][0]["detail"]
    assert detail["simple"] is False and detail["witness_pair"] == [1, 2]
    assert detail["escapes"] == [] and detail["complete"] is True
    assert detail["probes"] == 3 and detail["images_checked"] == 18
    assert detail["max_index_degree"] == 1
    assert detail["proper_witness"] == {"in_W": "1", "not_in_W": "s1", "holds": True}


F_WITNESS_31 = {"family": "F", "alpha": "1", "beta": "1", "P": {"kind": "M", "w": ["1/3", "0"]},
                "V": {"kind": "C_eps", "eps": "-31"}}


def test_f_proper_barrier_is_proved_from_probe_images(write_json, tmp_path):
    # Twelve probe images prove the barrier x1^31, where a closure from it takes 65
    # rounds (tests/test_oracle.py keeps that closure as an oracle).
    out = str(tmp_path / "r.json")
    assert main(["simplicity", "--spec", write_json("f31.json", F_WITNESS_31), "--out", out]) == 0
    doc = _check_report(out)
    assert [c["check"] for c in doc["checks"]] == ["epsilon-criterion", "barrier-invariance"]
    criterion, barrier = (c["detail"] for c in doc["checks"])
    assert criterion == {"simple": False, "witness": 31, "submodule": "span{ x1-degree <= 31 }"}
    # L on {0, 1} x {0, 1}, every other family on {0} x {0, 1}.
    assert barrier == {
        "complete": True, "probes": 2, "images_checked": 12, "max_index_degree": 1,
        "escapes": [], "proper_witness": {"in_W": "x1^31", "not_in_W": "x1^32", "holds": True},
    }


def test_f_simple_report_is_the_epsilon_criterion_with_its_crossing(write_json, tmp_path):
    out = str(tmp_path / "r.json")
    assert main(["simplicity", "--spec", write_json("f.json", F_SPEC), "--out", out]) == 0
    # -eps/beta - w = -0/3 - 1/2 is not an integer.
    assert _check_report(out)["checks"] == [{"check": "epsilon-criterion", "status": "pass", "detail": {
        "simple": True, "witness": None, "submodule": None, "crossing": "-1/2"}}]


@pytest.mark.parametrize("P, V, kind", [
    ({"kind": "M", "w": ["0", "1/2"]}, {"kind": "Whittaker"}, "Whittaker V"),
    ({"kind": "Omega", "lambda": ["2", "-1/3"]}, {"kind": "C_eps", "eps": "1"}, "shift-type x1"),
], ids=["whittaker", "omega-x1"])
def test_f_outside_the_epsilon_criterion_reports_its_closure(P, V, kind, write_json, tmp_path):
    out = str(tmp_path / "r.json")
    spec = write_json("f.json", dict(F_SPEC, P=P, V=V))
    assert main(["simplicity", "--spec", spec, "--out", out]) == 0
    [check] = _check_report(out)["checks"]
    assert check["check"] == "closure-oracle" and check["status"] == "pass"
    assert check["detail"]["verdict"] == check["detail"]["expected"] == "fills-truncation"
    assert check["detail"]["note"].startswith(f"{kind}: simple for every parameter choice")


def _plant_x1_raise(act, family):
    """FModule.act plus x0^m x1 p on the images of family[m]."""
    def planted(self, g, v):
        out = act(self, g, v)
        if g.family == family:
            out = out + self.ring.monomial({"x0": g.index, "x1": 1}) * v
        return out
    return planted


@pytest.mark.parametrize("family, escape", [("a", "a[0] on x1^31"), ("L", "L[0] on x1^31")],
                         ids=["a-coefficient-off-by-one", "x1-raising-term-in-L"])
def test_f_barrier_exits_1_on_a_planted_defect(family, escape, write_json, tmp_path, monkeypatch):
    # On a, x0^m x1 p moves the coefficient beta (w + k) + eps by one; on L it is a new raise.
    monkeypatch.setattr(FModule, "act", _plant_x1_raise(FModule.act, family))
    out = str(tmp_path / "r.json")
    assert main(["simplicity", "--spec", write_json("f31.json", F_WITNESS_31), "--out", out]) == 1
    barrier = _check_report(out)["checks"][1]
    assert barrier["check"] == "barrier-invariance" and barrier["status"] == "fail"
    assert escape in barrier["detail"]["escapes"]


def test_report_schema_pins_the_barrier_detail(write_json, tmp_path):
    out = str(tmp_path / "r.json")
    assert main(["simplicity", "--spec", write_json("f31.json", F_WITNESS_31), "--out", out]) == 0
    doc = _check_report(out)
    validator = jsonschema.Draft202012Validator(load_schema("report.schema.json"))
    entry = doc["checks"][1]
    detail = entry["detail"]
    for key, bad in (("probes", 12), ("complete", False), ("proper_witness", {"in_W": "1"})):
        assert not validator.is_valid({**doc, "checks": [doc["checks"][0],
                                                         {**entry, "detail": {**detail, key: bad}}]})
        missing = {k: v for k, v in detail.items() if k != key}
        assert not validator.is_valid({**doc, "checks": [doc["checks"][0],
                                                         {**entry, "detail": missing}]})


@pytest.mark.parametrize("eps", ["-65", "65", "-1000000000000", "1000000000000"])
@pytest.mark.parametrize("p0", [{"kind": "M", "w": "1/3"}, {"kind": "Omega", "lambda": "2"}],
                         ids=["M", "Omega"])
def test_f_proper_witness_of_any_size_is_proved(eps, p0, write_json, tmp_path):
    # The barrier x1^n is proved from the same 12 or 17 probe images for every n.
    spec = {"family": "F", "alpha": "1", "beta": "1", "P": {"kind": "P0xM", "P0": p0, "w": "0"},
            "V": {"kind": "C_eps", "eps": eps}}
    out = str(tmp_path / "r.json")
    start = time.perf_counter()
    assert main(["simplicity", "--spec", write_json("f.json", spec), "--out", out]) == 0
    assert time.perf_counter() - start < 1
    criterion, barrier = (c["detail"] for c in _check_report(out)["checks"])
    n = -int(eps)
    assert criterion["witness"] == n and barrier["complete"] is True
    assert barrier["images_checked"] == (12 if p0["kind"] == "M" else 17)
    assert barrier["proper_witness"] == {"in_W": f"x1^{n}", "not_in_W": f"x1^{n + 1}",
                                         "holds": True}


@pytest.mark.parametrize("argv, option", [
    (["verify-hom", "--map", "ab", "--alpha", "1", "--beta", "1", "--gamma", "2"], "--gamma"),
    (["verify-hom", "--map", "ab", "--alpha", "1", "--beta", "1", "--g", "t"], "--g"),
], ids=["gamma-ab", "g-ab"])
def test_options_that_would_be_ignored_exit_2(argv, option, capsys):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert option in err and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["verify-brackets", "--window", "3"],
    ["verify-hom", "--map", "ab", "--alpha", "1", "--beta", "1", "--window", "3"],
    ["det-lemma", "--max-r", "2"],
    ["det-lemma", "--naive-limit", "3"],
    *(["simplicity", "--spec", "omega.json", option, "2"]
      for option in ("--samples", "--seed", "--max-degree", "--window", "--max-steps")),
], ids=["verify-brackets", "verify-hom", "det-lemma", "det-lemma --naive-limit",
        "simplicity --samples", "simplicity --seed", "simplicity --max-degree",
        "simplicity --window", "simplicity --max-steps"])
def test_index_window_options_are_gone(argv, capsys):
    # Each check runs on the one grid its degree bound proves complete, and the
    # sampled or truncated evidence of simplicity and det-lemma is fixed.
    assert _exit_code(argv) == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_no_report_records_a_seed(write_json, tmp_path):
    out = str(tmp_path / "r.json")
    # The sampled vectors come from one fixed seed, so no report names it.
    for spec in (OMEGA_SPEC, T_SPEC, F_SPEC, T_EQUAL):
        assert main(["simplicity", "--spec", write_json("s.json", spec), "--out", out]) == 0
        assert "seed" not in _check_report(out)


def test_report_schema_pins_the_equal_lambda_detail(write_json, tmp_path):
    out = str(tmp_path / "r.json")
    assert main(["simplicity", "--spec", write_json("teq.json", T_EQUAL), "--out", out]) == 0
    doc = _check_report(out)
    validator = jsonschema.Draft202012Validator(load_schema("report.schema.json"))
    detail = doc["checks"][0]["detail"]
    for key, bad in (("probes", 18), ("complete", False), ("proper_witness", {"in_W": "s1"})):
        assert not validator.is_valid({**doc, "checks": [{**doc["checks"][0],
                                                          "detail": {**detail, key: bad}}]})
        missing = {k: v for k, v in detail.items() if k != key}
        assert not validator.is_valid({**doc, "checks": [{**doc["checks"][0], "detail": missing}]})


def test_det_lemma_small(tmp_path):
    out = str(tmp_path / "r.json")
    assert main(["det-lemma", "--max-m", "2", "--max-s", "2", "--alphas", "1,2,-2",
                 "--out", out]) == 0
    detail = _check_report(out)["checks"][0]["detail"]
    # 3 alphas and 2 sizes, then 6 ordered pairs and 4 size pairs, all at r = 0.
    assert detail == {"specs": 30, "complete": True, "r": 0, "mismatches": []}


def test_det_lemma_builds_each_matrix_once(monkeypatch, tmp_path):
    from wittdiamond import cli, tensor

    built = []
    rational = []
    original_rows = tensor.det_rows
    original_matrix = tensor.det_matrix

    def counted_rows(spec):
        built.append(spec)
        return original_rows(spec)

    def counted_matrix(spec):
        rational.append(spec)
        return original_matrix(spec)

    # Every binding is patched, so a by-name import would be counted too.
    for module in (tensor, cli):
        if hasattr(module, "det_rows"):
            monkeypatch.setattr(module, "det_rows", counted_rows)
        if hasattr(module, "det_matrix"):
            monkeypatch.setattr(module, "det_matrix", counted_matrix)
    out = str(tmp_path / "r.json")
    assert main(["det-lemma", "--max-m", "2", "--max-s", "2",
                 "--alphas", "1,2,-2", "--out", out]) == 0
    detail = {c["check"]: c["detail"] for c in _check_report(out)["checks"]}
    specs = detail["determinant-closed-form"]["specs"]
    assert detail["naive-det-agreement"]["checked"] == specs
    assert len(built) == specs
    # The naive oracle reads the rows det_r built; no spec is rebuilt.
    assert rational == []


def test_det_lemma_naive_agreement_is_live(monkeypatch, tmp_path):
    from wittdiamond import cli

    original = cli.naive_det
    monkeypatch.setattr(cli, "naive_det", lambda matrix: original(matrix) + 1)
    out = str(tmp_path / "r.json")
    assert main(["det-lemma", "--max-m", "1", "--max-s", "2", "--out", out]) == 1
    status = {c["check"]: c["status"] for c in _check_report(out)["checks"]}
    assert status == {"determinant-closed-form": "pass", "naive-det-agreement": "fail"}


class _SweepStarted(Exception):
    pass


@pytest.mark.parametrize("argv, refusal", [
    (["--alphas", "1,2", "--max-m", "2", "--max-s", "13"],
     f"block, of 26 rows, is above the bound {MAX_DET_ROWS} on the rows"),
    (["--alphas", "1,2", "--max-m", "2", "--max-s", "40"],
     f"block, of 80 rows, is above the bound {MAX_DET_ROWS} on the rows"),
    (["--max-m", "4", "--max-s", "3"], f"32688 specs are above the bound {MAX_DET_SPECS}"),
    (["--alphas", "1,2", "--max-m", "2", "--max-s", "12"], None),
    (["--max-m", "3", "--max-s", "3"], None),
], ids=["rows-26", "rows-80", "specs-32688", "rows-24", "default"])
def test_det_lemma_bounds_its_sweep_before_any_determinant(argv, refusal, monkeypatch, capsys):
    """An oversized sweep exits 2 naming its bound; the default sweep (3528 specs
    of at most 9 rows, the largest any documented command runs) is admitted."""
    from wittdiamond import cli

    def started(spec):
        raise _SweepStarted

    monkeypatch.setattr(cli, "det_r", started)
    if refusal is None:
        with pytest.raises(_SweepStarted):
            main(["det-lemma", *argv])
        return
    assert main(["det-lemma", *argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("spec error:") and refusal in err


def test_each_spec_is_validated_once(write_json, monkeypatch):
    from wittdiamond import cli, specs

    calls = []
    original = specs.validate_module_spec

    def counted(obj):
        calls.append(obj)
        return original(obj)

    # Every binding is patched, so a by-name import would be counted too.
    for module in (specs, cli):
        if hasattr(module, "validate_module_spec"):
            monkeypatch.setattr(module, "validate_module_spec", counted)
    omega = write_json("omega.json", OMEGA_SPEC)
    assert main(["rank", "--spec", omega]) == 0
    assert len(calls) == 1
    assert main(["iso", "--left", write_json("t.json", T_SPEC), "--right", omega]) == 0
    assert len(calls) == 3


def test_rank_commands(write_json, tmp_path):
    out = str(tmp_path / "r.json")
    assert main(["rank", "--spec", write_json("om.json", OMEGA_SPEC), "--out", out]) == 0
    doc = _check_report(out)
    check = doc["checks"][0]
    assert check["check"] == "uh-rank"
    assert check["detail"]["rank"] == 3 and check["detail"]["complete"] is True
    assert check["detail"]["operators"] == {"L[0]": {"A": "s", "B": "0"},
                                            "d[0]": {"A": "1/3 t^3 + 1/3 t", "B": "t"}}
    # The certificate is the four probe images; replay them from the action.
    module = module_from_spec(OMEGA_SPEC)
    for entry in check["certificate"]:
        probe = module.ring.var("t") if entry["probe"] == "t" else module.one()
        image = module.act(gen(entry["operator"][0], 0), probe)
        assert poly_from_json(module.ring, entry["image"]["terms"]) == image
    # The schema pins the uh-rank detail: a pass needs a rank >= 1 and "complete": true.
    validator = jsonschema.Draft202012Validator(load_schema("report.schema.json"))
    for key, value in (("rank", 0), ("rank", None), ("complete", False)):
        broken = json.loads(json.dumps(doc))
        broken["checks"][0]["detail"][key] = value
        assert not validator.is_valid(broken)
    assert main(["rank", "--spec", write_json("t.json", T_SPEC), "--out", out]) == 0
    detail = _check_report(out)["checks"][0]["detail"]
    # On 1 the a- and c-orbits are spanned at one point per distinct lambda.
    assert detail["value"] == 3 and detail["complete"] is True and detail["orbit_points"] == 2
    assert main(["rank", "--spec", write_json("t.json", T_SPEC),
                 "--vector", "s1 t2", "--out", out]) == 0
    detail = _check_report(out)["checks"][0]["detail"]
    # s-profile (1, 0): D = 1 for lambda_1 and 0 for lambda_2.
    assert detail["complete"] is True and detail["orbit_points"] == 3


ACTION_DATA = {
    "lambda": "2",
    "p": [[[0, 0], "1/2"]],
    "B0": [[[0, 2], "1"]],
    "C0": [[[0, 0], "-3"]],
    "D0": [[[0, 3], "1/3"]],
}


def test_classify_commands(write_json, tmp_path):
    good = ACTION_DATA
    out = str(tmp_path / "r.json")
    assert main(["classify", "--data", write_json("d.json", good), "--out", out]) == 0
    doc = _check_report(out)
    detail = doc["checks"][0]["detail"]
    assert detail["beta"] == "3" and detail["lambda"] == "2"
    assert detail["complete"] is True and detail["commutators_checked"] == 57
    bad = dict(good, p=[[[0, 1], "1"]])
    assert main(["classify", "--data", write_json("bad.json", bad)]) == 1


def test_classify_reports_degenerate_data(write_json, tmp_path):
    # B0 = C0 = 0 and D0 = 5: the degenerate branch of the classification.
    out = str(tmp_path / "r.json")
    data = dict(ACTION_DATA, B0=[], C0=[], D0=[[[0, 0], "5"]])
    assert main(["classify", "--data", write_json("d.json", data), "--out", out]) == 0
    [check] = _check_report(out)["checks"]
    assert check["status"] == "pass"
    assert check["detail"] == {
        "degenerate": True, "submodule": "span{ L0^i a0^n v : i >= 0, n >= 1 }",
        "complete": True, "commutators_checked": 57,
    }


def _data_with_a0_power(power):
    """Omega data (alpha 1/2, beta 3, gamma 0, lambda 2) with g = 1 + t^(power - 1):
    B0 = g(a0) and D0 = (a0 g(a0) + gamma) / beta, one a0-degree above g."""
    return {**ACTION_DATA, "B0": [[[0, 0], "1"], [[0, power - 1], "1"]],
            "D0": [[[0, 1], "1/3"], [[0, power], "1/3"]]}


@pytest.mark.parametrize("data, pointer", [
    (dict(ACTION_DATA, p=[[[0], "1"]]), "/p/0/0"),
    (dict(ACTION_DATA, p=[[[0, -1], "1"]]), "/p/0/0/1"),
    # Exponents above MAX_DATA_POWER = MAX_G_POWER + 1, in each variable.
    (_data_with_a0_power(MAX_G_POWER + 2), "/D0/1/0/1"),
    (dict(ACTION_DATA, B0=[[[0, 10**6], "1"]]), "/B0/0/0/1"),
    (dict(ACTION_DATA, B0=[[[0, 1e15], "1"]]), "/B0/0/0/1"),
    (dict(ACTION_DATA, p=[[[MAX_G_POWER + 2, 0], "1"]]), "/p/0/0/0"),
], ids=["exponent-arity", "negative-exponent", "D0-one-above", "a0-million", "a0-float",
        "L0-one-above"])
def test_malformed_action_data_exits_2_with_pointer(data, pointer, write_json, capsys):
    # The reader refuses each one before any work is done.
    start = time.perf_counter()
    assert main(["classify", "--data", write_json("bad.json", data)]) == 2
    assert time.perf_counter() - start < 1
    err = capsys.readouterr().err
    assert err.startswith("spec error:") and f"(at {pointer})" in err


@pytest.mark.parametrize("argv, obj, field, again", [
    (["simplicity", "--spec"], OMEGA_SPEC, '"g": [[0, "1"], [2, "1"]]', '"g": [[0, "2"]]'),
    (["classify", "--data"], ACTION_DATA, '"lambda": "2"', '"lambda": "3"'),
    (["iso", "--right", "t.json", "--left"], T_SPEC, '"lambda": "3"', '"lambda": "5"'),
], ids=["spec", "data", "left-nested"])
def test_duplicate_keys_exit_2(argv, obj, field, again, write_json, tmp_path, capsys):
    # Without the check the reader would run on the last value and the command exit 0 or 1.
    text = json.dumps(obj)
    assert field in text
    path = tmp_path / "dup.json"
    path.write_text(text.replace(field, f"{field}, {again}", 1))
    argv = [write_json(a, T_SPEC) if a == "t.json" else a for a in argv]
    assert main(argv + [str(path)]) == 2
    key = json.loads("{" + again + "}").popitem()[0]
    assert capsys.readouterr().err == f"spec error: duplicate key {key!r}\n"


def test_no_module_imports_jsonschema_at_run_time():
    import wittdiamond

    src = os.path.dirname(os.path.dirname(wittdiamond.__file__))
    code = "import sys, wittdiamond.cli; sys.exit('jsonschema' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                          timeout=60)
    assert proc.returncode == 0


def test_import_runs_no_generated_code():
    """No module imports dataclasses, or inspect through it: the record classes are
    plain classes, so import compiles and runs no generated method."""
    import wittdiamond

    src = os.path.dirname(os.path.dirname(wittdiamond.__file__))
    code = ("import sys, wittdiamond.cli; "
            "sys.exit(bool({'dataclasses', 'inspect'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                          timeout=60)
    assert proc.returncode == 0


def test_iso_commands(write_json, tmp_path, capsys):
    swapped = {"family": "T", "factors": list(reversed(T_SPEC["factors"]))}
    assert main(["iso", "--left", write_json("a.json", T_SPEC),
                 "--right", write_json("b.json", swapped)]) == 0
    assert main(["iso", "--left", write_json("a.json", T_SPEC),
                 "--right", write_json("o.json", OMEGA_SPEC)]) == 0
    # An Omega module is the one-factor product, so iso compares it with T directly.
    omega, one = write_json("o.json", OMEGA_SPEC), write_json("t1.json", T_ONE)
    out = str(tmp_path / "iso.json")
    for left, right in ((omega, one), (one, omega)):
        assert main(["iso", "--left", left, "--right", right, "--out", out]) == 0
        detail = _check_report(out)["checks"][0]["detail"]
        assert detail["isomorphic"] is True and detail["permutation"] == [1]
    # A repeated lambda is outside iso's domain, as it is outside rank's: exit 2, not 1.
    equal, distinct = write_json("e.json", T_EQUAL), write_json("a.json", T_SPEC)
    for left, right in ((equal, distinct), (distinct, equal)):
        capsys.readouterr()
        assert main(["iso", "--left", left, "--right", right]) == 2
        err = capsys.readouterr().err
        assert err.startswith("spec error:") and "pairwise distinct lambdas" in err


def test_usage_and_schema_errors(write_json, capsys):
    assert main(["act", "--spec", write_json("bad.json", {"family": "F"}),
                 "--expr", "Q", "--vector", "1"]) == 2
    with pytest.raises(SystemExit) as exc:
        main(["verify-hom", "--map", "nope", "--alpha", "1", "--beta", "1"])
    assert exc.value.code == 2


def test_reports_are_deterministic(write_json, tmp_path):
    f_proper = dict(F_SPEC, beta="1", V={"kind": "C_eps", "eps": "-3/2"})
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    for spec in (OMEGA_SPEC, T_SPEC, f_proper):
        path = write_json("s.json", spec)
        assert main(["simplicity", "--spec", path, "--out", str(out1)]) == 0
        assert main(["simplicity", "--spec", path, "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()


def test_the_parser_is_built_once_and_reused(write_json, tmp_path, capsys):
    build_parser.cache_clear()
    spec = write_json("om.json", OMEGA_SPEC)
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert main(["rank", "--spec", spec, "--out", str(out1)]) == 0
    first = capsys.readouterr().out.replace(str(out1), "OUT")
    with pytest.raises(SystemExit) as exc:
        main(["rank", "--spec", spec, "--vector"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: wittdiamond rank") and "expected one argument" in err
    assert main(["rank", "--spec", spec, "--out", str(out2)]) == 0
    assert capsys.readouterr().out.replace(str(out2), "OUT") == first
    assert out1.read_bytes() == out2.read_bytes()
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out == build_parser.__wrapped__().format_help()
    assert build_parser.cache_info().misses == 1


def _exit_code(argv):
    """main's return value, or the code of the SystemExit argparse raises."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


HOM = ["verify-hom", "--map", "ab", "--beta", "1"]
ABGG = ["verify-hom", "--map", "abgg", "--alpha", "1", "--beta", "1"]
DET = ["det-lemma", "--max-m", "1", "--max-s", "1"]
# Spec files a row names by these placeholders are written before the run;
# DIR names a directory and bin.json a file that is not UTF-8.
BAD_USAGE_SPECS = {
    "f.json": F_SPEC,
    "omega.json": OMEGA_SPEC,
    "omega-beta0.json": {**OMEGA_SPEC, "beta": "0"},
    "omega-lambda0.json": {**OMEGA_SPEC, "lambda": "0"},
    "omega-g0.json": {**OMEGA_SPEC, "g": []},
    "omega-beta-minus0.json": {**OMEGA_SPEC, "beta": "-0"},
    "omega-g-power.json": {**OMEGA_SPEC, "g": [[0, "1"], [MAX_G_POWER + 1, "1"]]},
    "t-lambda-0over3.json": {**T_SPEC, "factors": [T_SPEC["factors"][0],
                                                   {**T_SPEC["factors"][1], "lambda": "0/3"}]},
    "t.json": T_SPEC,
    "t-equal.json": T_EQUAL,
    "data.json": ACTION_DATA,
}
ACT = ["act", "--spec", "omega.json", "--expr", "L[0]", "--vector"]


@pytest.mark.parametrize("argv", [
    HOM + ["--alpha", "foo"],
    HOM + ["--alpha", "1/0"],
    HOM + ["--alpha"],
    HOM + ["--alpha", "--corrupted"],
    HOM + ["--alpha", "-"],
    ABGG + ["--gamma", "bar"],
    ABGG + ["--g", "x^2"],
    HOM + ["--alpha", "1", "--gamma", "2"],
    HOM + ["--alpha", "1", "--g", "t"],
    HOM + ["--alpha", "1", "--gamma", "foo", "--g", "zz^"],
    ["det-lemma", "--max-m", "0"],
    ["det-lemma", "--max-s", "0"],
    DET + ["--alphas", "1,bar"],
    ["act", "--spec", "omega.json", "--expr", "L[x]", "--vector", "1"],
    ["rank", "--spec", "omega-beta0.json"],
    ["rank", "--spec", "omega-lambda0.json"],
    ACT + ["z"],
    ACT + ["s^-1"],
    ["rank", "--spec", "t.json", "--vector", "z"],
    ["rank", "--spec", "t.json", "--vector", "0"],
    ["rank", "--spec", "omega-g0.json"],
    ["rank", "--spec", "omega.json", "--vector", "zz"],
    ["rank", "--spec", "omega-beta-minus0.json"],
    ["rank", "--spec", "omega-g-power.json"],
    ["simplicity", "--spec", "t-lambda-0over3.json"],
    ["rank", "--spec", "DIR"],
    ["classify", "--data", "DIR"],
    ["rank", "--spec", "bin.json"],
    ["act", "--spec", "bin.json", "--expr", "Q", "--vector", "1"],
    ["det-lemma", "--alphas", "1", "--max-m", "2", "--max-s", "1"],
    ["rank", "--spec", "t-equal.json"],
], ids=" ".join)
def test_bad_usage_exits_2(argv, write_json, tmp_path, capsys):
    (tmp_path / "bin.json").write_bytes(b"\xff\xfe\x00")  # not UTF-8
    files = {"DIR": str(tmp_path), "bin.json": str(tmp_path / "bin.json")}
    argv = [write_json(a, BAD_USAGE_SPECS[a]) if a in BAD_USAGE_SPECS else files.get(a, a)
            for a in argv]
    assert _exit_code(argv) == 2
    err = capsys.readouterr().err
    # An option the parser does not know would exit 2 without testing anything.
    assert "Traceback" not in err and "unrecognized arguments" not in err


@pytest.mark.parametrize("argv, option", [
    (["act", "--spec", "t.json", "--expr", "L[99999999999]", "--vector", "s1^3"], "--expr"),
    (["act", "--spec", "t.json", "--expr", f"c[0] d[-{MAX_INPUT_POWER + 1}]", "--vector", "1"],
     "--expr"),
    (["act", "--spec", "omega.json", "--expr", "L[1]", "--vector", "s^100000"], "--vector"),
    (["act", "--spec", "f.json", "--expr", "L[1]", "--vector", f"x1^-{MAX_INPUT_POWER + 1}"],
     "--vector"),
    (["rank", "--spec", "t.json", "--vector", f"t1 + t2^{MAX_INPUT_POWER + 1}"], "--vector"),
    (ABGG + ["--g", f"1 + t^{MAX_G_POWER + 1}"], "--g"),
], ids=lambda a: " ".join(a) if isinstance(a, list) else a)
def test_oversized_index_or_exponent_exits_2(argv, option, write_json, capsys):
    argv = [write_json(a, BAD_USAGE_SPECS[a]) if a in BAD_USAGE_SPECS else a for a in argv]
    assert _exit_code(argv) == 2
    err = capsys.readouterr().err
    assert f"{option}: " in err and "above the bound" in err


HUGE = "1" + "0" * 5000  # 5001 digits, above Python's default limit of 4300 on int strings


@pytest.mark.parametrize("argv, text, pointer", [
    (["rank", "--spec"], json.dumps({**OMEGA_SPEC, "alpha": HUGE}), "/alpha"),
    (["rank", "--spec"], json.dumps({**OMEGA_SPEC, "alpha": f"1/{HUGE}"}), "/alpha"),
    (["rank", "--spec"], json.dumps({**OMEGA_SPEC, "g": [[0, "1"]]}).replace("[0,", f"[{HUGE},"),
     None),
    (["classify", "--data"], json.dumps({**ACTION_DATA, "lambda": HUGE}), "/lambda"),
], ids=["omega-alpha", "omega-alpha-denominator", "json-integer-g-power", "data-lambda"])
def test_number_above_the_digit_limit_exits_2(argv, text, pointer, tmp_path, capsys):
    path = tmp_path / "huge.json"
    path.write_text(text)
    assert _exit_code(argv + [str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("spec error:") and "more digits than Python converts" in err
    assert "Traceback" not in err and (pointer is None or f"(at {pointer})" in err)


def test_expr_index_above_the_digit_limit_exits_2(write_json, capsys):
    # The index is an input, read once by the expression parser.
    argv = ["act", "--spec", write_json("omega.json", OMEGA_SPEC), "--expr", f"L[{HUGE}]",
            "--vector", "1"]
    assert _exit_code(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("spec error: --expr: ") and "report number" not in err
    assert err.count("\n") == 1 and "Traceback" not in err


def test_report_number_above_the_digit_limit_exits_2(write_json, tmp_path, capsys):
    """A 3000-digit lambda is read, but a certificate weight of the report outgrows
    the limit on int strings: one spec-error line, exit 2, and no report file."""
    factors = [{**T_SPEC["factors"][0], "lambda": "1" + "0" * 2999}, T_SPEC["factors"][1]]
    out = tmp_path / "r.json"
    spec = write_json("big.json", {"family": "T", "factors": factors})
    assert main(["simplicity", "--spec", spec, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("spec error:") and "more digits than Python converts" in err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not out.exists()


def test_index_and_exponent_at_the_bound_are_accepted(write_json, tmp_path):
    out = str(tmp_path / "r.json")
    assert main(["act", "--spec", write_json("omega.json", OMEGA_SPEC), "--expr",
                 f"L[{MAX_INPUT_POWER}] a[-{MAX_INPUT_POWER}]", "--vector",
                 f"s t^{MAX_INPUT_POWER}", "--out", out]) == 0
    # a[-N] raises the t-degree by one; L[N] keeps it.
    assert f"t^{MAX_INPUT_POWER + 1}" in _check_report(out)["checks"][0]["detail"]["result"]["text"]


def test_expr_bound_reads_the_indices_as_written(write_json, tmp_path, capsys):
    # The bound reads the indices as written, and the letters act as written:
    # a[600] L[600] is out of PBW order, but no word is straightened, so no
    # bracket term of index 1200 is ever formed.
    spec, out = write_json("omega.json", OMEGA_SPEC), str(tmp_path / "r.json")
    assert main(["act", "--spec", spec, "--expr", "a[600] L[600]", "--vector", "t",
                 "--out", out]) == 0
    assert _exit_code(["act", "--spec", spec, "--expr", f"a[600] L[{MAX_INPUT_POWER + 1}]",
                       "--vector", "t"]) == 2
    assert f"--expr: the index of L[{MAX_INPUT_POWER + 1}] is above" in capsys.readouterr().err


def test_act_applies_a_reversed_word_as_written(write_json, tmp_path):
    # L[12] ... L[1] is in reverse PBW order; straightening it first would take
    # tens of seconds, while letter by letter it stays inside MAX_ACT_WORK.
    expr = " ".join(f"L[{k}]" for k in range(12, 0, -1))
    out = str(tmp_path / "r.json")
    start = time.perf_counter()
    assert main(["act", "--spec", write_json("omega.json", OMEGA_SPEC), "--expr", expr,
                 "--vector", "1", "--out", out]) == 0
    assert time.perf_counter() - start < 1
    module = module_from_spec(OMEGA_SPEC)
    want = module.one()
    for k in range(1, 13):
        want = module.act(gen("L", k), want)
    assert _check_report(out)["checks"][0]["detail"]["result"] == vector_report(want)


def test_act_work_above_the_bound_exits_2_before_it_runs(write_json, tmp_path, capsys):
    # L[1] L[1] on s1^d s2^d grows about as d^3; d = 1000 keeps every index and
    # exponent within MAX_INPUT_POWER but would run for minutes in over 1 GB.
    spec, out = write_json("t.json", T_SPEC), str(tmp_path / "r.json")
    start = time.perf_counter()
    assert _exit_code(["act", "--spec", spec, "--expr", "L[1] L[1]",
                       "--vector", "s1^1000 s2^1000"]) == 2
    assert time.perf_counter() - start < 1
    err = capsys.readouterr().err
    assert "--expr/--vector: " in err and f"above the bound {MAX_ACT_WORK}" in err
    assert main(["act", "--spec", spec, "--expr", "L[1] L[1]", "--vector", "s1^100 s2^100",
                 "--out", out]) == 0
    module = module_from_spec(T_SPEC)
    v = module.ring.monomial({"s1": 100, "s2": 100})
    want = module.act(gen("L", 1), module.act(gen("L", 1), v))
    assert _check_report(out)["checks"][0]["detail"]["result"] == vector_report(want)


@pytest.mark.parametrize("defect", RANK_DEFECTS)
def test_rank_exits_1_on_a_planted_defect(defect, write_json, tmp_path, monkeypatch):
    monkeypatch.setattr(OmegaModule, "act", planted_rank_defect(OmegaModule.act, defect))
    out = str(tmp_path / "r.json")
    assert main(["rank", "--spec", write_json("om.json", OMEGA_SPEC), "--out", out]) == 1
    detail = _check_report(out)["checks"][0]["detail"]
    assert detail["rank"] is None and not all(detail["facts"].values())


def test_certificate_error_exits_1(write_json, monkeypatch, capsys):
    from wittdiamond import omega

    solve = omega.combination
    monkeypatch.setattr(omega, "combination",
                        lambda columns, target: [w * 2 for w in solve(columns, target)])
    spec = write_json("omega.json", OMEGA_SPEC)
    assert main(["simplicity", "--spec", spec]) == 1
    assert "does not reach its target" in capsys.readouterr().err


# Every entry point that reads a rational from text, as the argv around the text q.
# Options and the spec and data fields hold one rational; --g, --vector and --expr
# hold written sums, whose coefficients are rationals.
RATIONAL_OPTIONS = {
    "--alpha": lambda q: ["verify-hom", "--map", "ab", "--alpha", q, "--beta", "1"],
    "--beta": lambda q: ["verify-hom", "--map", "ab", "--alpha", "1", "--beta", q],
    "--gamma": lambda q: ABGG + ["--gamma", q],
    "--alphas": lambda q: DET + ["--alphas", q],
    "spec-field": lambda q: ["rank", "--spec", ("omega.json", {**OMEGA_SPEC, "alpha": q})],
    "data-field": lambda q: ["classify", "--data", ("data.json", {**ACTION_DATA,
                                                                  "p": [[[0, 0], q]]})],
}
RATIONAL_SUMS = {
    "--g": lambda q: ABGG + ["--g", f"{q} t"],
    "--vector": lambda q: ["act", "--spec", ("omega.json", OMEGA_SPEC), "--expr", "L[1]",
                           "--vector", f"{q} s"],
    "--expr": lambda q: ["act", "--spec", ("omega.json", OMEGA_SPEC), "--expr", f"{q} L[1]",
                         "--vector", "s"],
}
# Forms that Fraction reads and the one text form "p" or "p/q" does not.
NOT_RATIONALS = ["0.5", "1e3", "1_000", "1/0", "1e9999999"]
# In a written sum a leading sign and spaces belong to the sum: "+1 t" is t.
NOT_RATIONALS_ALONE = ["+1", " 1/2"]


def _run_text_entry_point(build, q, write_json):
    argv = [write_json(*a) if isinstance(a, tuple) else a for a in build(q)]
    start = time.perf_counter()
    code = _exit_code(argv)
    return code, time.perf_counter() - start


@pytest.mark.parametrize("entry, q", [
    *((entry, q) for entry in RATIONAL_OPTIONS for q in NOT_RATIONALS + NOT_RATIONALS_ALONE),
    *((entry, q) for entry in RATIONAL_SUMS for q in NOT_RATIONALS),
])
def test_rational_text_outside_the_spec_form_exits_2(entry, q, write_json, capsys):
    build = RATIONAL_OPTIONS.get(entry) or RATIONAL_SUMS[entry]
    code, seconds = _run_text_entry_point(build, q, write_json)
    err = capsys.readouterr().err
    assert code == 2 and seconds < 1, (code, seconds)
    assert err.startswith("spec error:") and err.count("\n") == 1, err
    assert f'{q!r} is not a rational "p" or "p/q"' in err, err


@pytest.mark.parametrize("q", ["-2/3", "0", "-0", "3/1"])
@pytest.mark.parametrize("entry", list(RATIONAL_OPTIONS) + list(RATIONAL_SUMS))
def test_rational_text_in_the_spec_form_is_read(entry, q, write_json, capsys):
    build = RATIONAL_OPTIONS.get(entry) or RATIONAL_SUMS[entry]
    code, _ = _run_text_entry_point(build, q, write_json)
    err = capsys.readouterr().err
    if entry in ("--beta", "--alphas") and q in ("0", "-0"):
        # Read as the rational zero, which these options refuse as a value.
        assert code == 2 and "must be nonzero" in err, err
    else:
        assert code == 0, err


def test_a_sign_or_space_before_a_coefficient_is_part_of_a_written_sum(write_json, tmp_path):
    spec, out = write_json("omega.json", OMEGA_SPEC), str(tmp_path / "r.json")
    for text, want in (("+1 s", "s"), (" 1/2 s", "1/2 s"), ("-0 s +1", "1")):
        assert main(["act", "--spec", spec, "--expr", "1", "--vector", text, "--out", out]) == 0
        assert _check_report(out)["checks"][0]["detail"]["vector"]["text"] == want


def test_data_exponents_at_the_bound_are_read(write_json, tmp_path):
    assert MAX_DATA_POWER == MAX_G_POWER + 1
    out = str(tmp_path / "r.json")
    data = write_json("d.json", _data_with_a0_power(MAX_DATA_POWER))
    assert main(["classify", "--data", data, "--out", out]) == 0
    detail = _check_report(out)["checks"][0]["detail"]
    assert len(detail["g"]) == MAX_G_POWER + 1 and detail["g"][-1] == "1"


# The written sums as whole texts w: --g, --vector and --expr.
WRITTEN_SUMS = {
    "--g": lambda w: ABGG + ["--g", w],
    "--vector": lambda w: ["act", "--spec", ("omega.json", OMEGA_SPEC), "--expr", "L[1]",
                           "--vector", w],
    "--expr": lambda w: ["act", "--spec", ("omega.json", OMEGA_SPEC), "--expr", w,
                         "--vector", "s"],
}
# A sign with nothing after it: at the end, before another sign, and at the start.
EMPTY_TERM_TEXTS = ["s -", "s - -3 t", "+ -2 x0", "L[1] -"]
# The same three places in each option's own letters, so nothing else is wrong.
EMPTY_TERMS = {
    "--g": ["t -", "t - -3 t^2", "+ -2 t"],
    "--vector": ["s -", "s - -3 t", "+ -2 s"],
    "--expr": ["L[1] -", "L[1] - -3 a[0]", "+ -2 b[1]"],
}
EMPTY_TERM = "a sign with no term after it"


def test_a_sign_with_no_term_after_it_is_refused_by_both_parsers():
    ring = PolyRing(("s", "t", "x0"), (False, False, True))
    for text in EMPTY_TERM_TEXTS:
        with pytest.raises(ValueError):
            parse_poly(ring, text)
        with pytest.raises(ValueError):
            parse_words(text)
    for text in EMPTY_TERMS["--vector"] + ["+ -2 x0"]:
        with pytest.raises(ValueError, match=EMPTY_TERM):
            parse_poly(ring, text)
    for text in EMPTY_TERMS["--expr"]:
        with pytest.raises(ValueError, match=EMPTY_TERM):
            parse_words(text)
    # One sign per term, wherever it stands, is read as before.
    assert parse_poly(ring, "s - 3 t") == parse_poly(ring, "s -3 t") == parse_poly(ring, "s-3*t^1")
    assert parse_words("- 2 b[1] - a[0]") == parse_words("-2 b[1]-a[0]")


@pytest.mark.parametrize("option", list(WRITTEN_SUMS))
def test_a_sign_with_no_term_after_it_exits_2(option, write_json, capsys):
    for text in EMPTY_TERM_TEXTS + EMPTY_TERMS[option]:
        code, _ = _run_text_entry_point(WRITTEN_SUMS[option], text, write_json)
        err = capsys.readouterr().err
        assert code == 2 and err.startswith(f"spec error: {option}: "), (text, err)
        if text in EMPTY_TERMS[option]:
            assert EMPTY_TERM in err, (text, err)


# A sign right after "*", with or without a space, in each option's own letters.
SIGN_AFTER_STAR = {
    "--g": ["2*-3 t", "t*-2", "t^2 * + 1"],
    "--vector": ["2*-3 s", "s*-2", "s * - 1"],
    "--expr": ["2*-3 L[1]", "L[1]*-2", "a[0] * +b[1]"],
}


def test_a_sign_right_after_a_star_is_refused_by_both_parsers():
    ring = PolyRing(("s", "t"), (False, False))
    for text in SIGN_AFTER_STAR["--vector"] + SIGN_AFTER_STAR["--g"]:
        with pytest.raises(ValueError, match='a sign right after "\\*"'):
            parse_poly(ring, text)
    for text in SIGN_AFTER_STAR["--expr"]:
        with pytest.raises(ValueError, match='a sign right after "\\*"'):
            parse_words(text)
    # A "*" between factors, and a sign inside brackets or after "^", are read as before.
    assert parse_poly(ring, "2*3 s - t") == parse_poly(ring, "6 s - t")
    assert parse_words("2*L[-1] - 3*a[0]") == parse_words("2 L[-1] - 3 a[0]")


@pytest.mark.parametrize("option", list(WRITTEN_SUMS))
def test_a_sign_right_after_a_star_exits_2(option, write_json, capsys):
    for text in SIGN_AFTER_STAR[option]:
        code, _ = _run_text_entry_point(WRITTEN_SUMS[option], text, write_json)
        err = capsys.readouterr().err
        assert code == 2, (text, err)
        assert err.startswith(f"spec error: {option}: a sign right after"), (text, err)


@pytest.mark.parametrize("argv", [
    ["--max-m", "\u0661", "--max-s", "1_0"],
    ["--max-m", "\u0661"],
    ["--max-s", "1_0"],
    ["--max-s", "+2"],
    ["--max-m", " 2"],
], ids=" ".join)
def test_det_lemma_sizes_take_ascii_digits_only(argv, capsys):
    """argparse refuses the size through ``_positive_int`` with SystemExit(2), before main runs."""
    with pytest.raises(SystemExit) as exc:
        main(["det-lemma", "--alphas", "1,2", *argv])
    assert exc.value.code == 2
    assert "not an integer in the digits 0-9" in capsys.readouterr().err


# Arabic-Indic digits: str.isdigit and the regex class \d take them, int reads them.
NON_ASCII_DIGITS = {"--g": "t^\u0662", "--vector": "s^\u0662", "--expr": "L[\u0661]"}


def test_indices_and_exponents_take_ascii_digits_only():
    ring = PolyRing(("s", "x0"), (False, True))
    for text in ("L[\u0661\u0662]", "L[-\u0661]", "2 L[1] a[\u0660]"):
        with pytest.raises(ValueError):
            parse_words(text)
    for text in ("s^\u0663", "x0^-\u0663", "s + x0^\u0661"):
        with pytest.raises(ValueError):
            parse_poly(ring, text)
    assert parse_words("L[12]") == [(1, (gen("L", 12),))]
    assert parse_poly(ring, "x0^-3") == ring.monomial({"x0": -3})


def test_non_ascii_digits_exit_2(write_json, capsys):
    for option, build in WRITTEN_SUMS.items():
        code, _ = _run_text_entry_point(build, NON_ASCII_DIGITS[option], write_json)
        err = capsys.readouterr().err
        assert code == 2 and err.startswith(f"spec error: {option}: "), err
    argv = ["act", "--spec", write_json("omega.json", OMEGA_SPEC),
            "--expr", NON_ASCII_DIGITS["--expr"], "--vector", NON_ASCII_DIGITS["--vector"]]
    assert main(argv) == 2


@pytest.mark.parametrize("error, code, prefix", [
    (NotApplicable, 2, "spec error"),
    (InvalidSpec, 2, "spec error"),
    (CertificateError, 1, "error"),
])
def test_a_raise_after_a_check_writes_no_report_and_no_summary(error, code, prefix, monkeypatch,
                                                               tmp_path, capsys):
    """main owns the report: a command that raises after it adds a check leaves
    its PASS line, but no report file and no summary line."""
    from wittdiamond import cli

    def planted(phi, witnesses):
        raise error("planted")

    monkeypatch.setattr(cli, "check_all_witnesses", planted)
    out = tmp_path / "r.json"
    assert main(["verify-hom", "--map", "ab", "--alpha", "1/2", "--beta", "3",
                 "--out", str(out)]) == code
    assert capsys.readouterr() == ("PASS homomorphism\n", f"{prefix}: planted\n")
    assert not out.exists()


def test_main_alone_builds_the_report_and_writes_it():
    """No subcommand constructs a Report or calls finish, and --out is declared once."""
    import ast

    from wittdiamond import cli

    with open(cli.__file__) as fh:
        tree = ast.parse(fh.read())
    def called(fn):
        return {getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                for node in ast.walk(fn) if isinstance(node, ast.Call)}

    owners = {fn.name for fn in ast.walk(tree)
              if isinstance(fn, ast.FunctionDef) and {"Report", "finish"} & called(fn)}
    assert owners == {"main"}
    outs = [node for node in ast.walk(tree) if isinstance(node, ast.Constant)
            and node.value == "--out"]
    assert len(outs) == 1


def test_out_is_the_last_option_of_every_subcommand():
    [sub] = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    assert len(sub.choices) == 8
    for name, parser in sub.choices.items():
        assert parser._actions[-1].option_strings == ["--out"], name
        assert sum("--out" in a.option_strings for a in parser._actions) == 1, name


def test_no_parser_takes_an_abbreviated_option(capsys):
    """A sign-leading value is joined only after a full option name, so no
    parser may read an abbreviation either (golden verify-hom-alpha-abbreviated*)."""
    [sub] = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    assert build_parser().allow_abbrev is False
    assert all(parser.allow_abbrev is False for parser in sub.choices.values())
    with pytest.raises(SystemExit) as exc:
        main(["det-lemma", "--max", "1", "--alphas", "1,2"])
    assert exc.value.code == 2 and "unrecognized arguments: --max" in capsys.readouterr().err


@pytest.mark.parametrize("argv, named", [
    (["verify-hom", "--map", "ab", "--alp", "-2/3", "--beta", "5"], "--alp"),
    (["verify-hom", "--map", "ab", "--alp=1/2", "--bet", "5"], "--alp=1/2 --bet"),
    (["act", "--spec", "s.json", "--exp", "Q", "--vector", "1"], "--exp"),
])
def test_a_missing_required_option_names_the_unknown_ones_too(argv, named, capsys):
    # argparse reports missing required options first; the unknown words are named with them.
    with pytest.raises(SystemExit) as exc:
        main(argv)
    last = capsys.readouterr().err.splitlines()[-1]
    assert exc.value.code == 2 and "the following arguments are required" in last
    assert last.endswith(f"; unrecognized arguments: {named}")
    with pytest.raises(SystemExit):
        main(["verify-hom", "--map", "ab"])
    assert capsys.readouterr().err.splitlines()[-1].endswith("required: --alpha, --beta")


def _omega(**fields):
    return module_from_spec({**OMEGA_SPEC, **fields})


# Every library check of a paper hypothesis, by the call that fails it.
HYPOTHESIS_FAILURES = {
    "epsilon criterion on a shift-type x1": lambda: fock.epsilon_simplicity(
        module_from_spec({**F_SPEC, "P": {"kind": "Omega", "lambda": ["2", "3"]}})),
    "epsilon criterion on a Whittaker V": lambda: fock.epsilon_simplicity(
        module_from_spec({**F_SPEC, "V": {"kind": "Whittaker"}})),
    "barrier on a Whittaker V": lambda: fock.barrier_invariance_check(
        module_from_spec({**F_SPEC, "V": {"kind": "Whittaker"}}), 0),
    "closure of 0": lambda: oracle.truncated_closure(
        _omega(), _omega().ring.zero(), oracle.TruncationPolicy()),
    "reduction of 0": lambda: omega.omega_reduce_to_one(_omega(), _omega().ring.zero()),
    "reduction with a repeated lambda": lambda: omega.tensor_reduce_to_bottom(
        module_from_spec(T_EQUAL), module_from_spec(T_EQUAL).one()),
    "free rank at g = 0": lambda: omega.uh_rank(_omega(g=[])),
    "generation with a repeated lambda": lambda: tensor.tensor_generate(
        module_from_spec(T_EQUAL), (0, 0, 0, 0)),
    "orbit rank of 0": lambda: tensor.r_g(
        module_from_spec(T_SPEC), module_from_spec(T_SPEC).ring.zero()),
    "iso with a repeated lambda": lambda: tensor.iso_check(
        module_from_spec(T_EQUAL), module_from_spec(T_SPEC)),
}


@pytest.mark.parametrize("call", list(HYPOTHESIS_FAILURES.values()),
                         ids=list(HYPOTHESIS_FAILURES))
def test_each_failed_hypothesis_raises_not_applicable(call):
    with pytest.raises(NotApplicable):
        call()


@pytest.mark.parametrize("argv, message", [
    (["rank", "--spec", "omega-g0.json"], "rank on an Omega spec needs a nonzero g"),
    (["rank", "--spec", "t.json", "--vector", "0"], "the zero vector has no orbit rank"),
    (["iso", "--left", "t-equal.json", "--right", "t.json"], "iso needs pairwise distinct lambdas"),
    (["iso", "--left", "t.json", "--right", "t-equal.json"], "iso needs pairwise distinct lambdas"),
], ids=["omega-g-zero", "t-zero-vector", "iso-equal-left", "iso-equal-right"])
def test_a_failed_hypothesis_the_cli_reaches_exits_2(argv, message, write_json, monkeypatch,
                                                     capsys):
    """The library raises NotApplicable first thing, before any work, and main maps
    it to exit 2; the command has no check of its own."""
    for module, name in ((omega, "operator_form"), (tensor, "orbit")):
        monkeypatch.setattr(module, name, lambda *a: pytest.fail(f"{name} ran"))
    argv = [write_json(a, BAD_USAGE_SPECS[a]) if a in BAD_USAGE_SPECS else a for a in argv]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"spec error: {message}") and err.count("\n") == 1, err
