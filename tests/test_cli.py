"""End-to-end CLI behavior: exit codes, reports, schema validation."""

import json

import jsonschema
import pytest

from wittdiamond.cli import main
from wittdiamond.specs import load_schema

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
    assert main(["verify-brackets", "--window", "2", "--out", out]) == 0
    doc = _check_report(out)
    assert doc["status"] == "pass"
    assert {c["check"] for c in doc["checks"]} == {"antisymmetry", "jacobi"}


def test_verify_hom_both_maps(tmp_path):
    out = str(tmp_path / "r.json")
    assert main([
        "verify-hom", "--map", "ab", "--alpha", "1/2", "--beta", "3",
        "--window", "2", "--out", out,
    ]) == 0
    assert _check_report(out)["status"] == "pass"
    assert main([
        "verify-hom", "--map", "abgg", "--alpha", "1/2", "--beta", "3",
        "--gamma", "2", "--g", "t^2 + 1", "--window", "2", "--out", out,
    ]) == 0


def test_verify_hom_corrupted_control_fails():
    assert main([
        "verify-hom", "--map", "ab", "--alpha", "1/2", "--beta", "3",
        "--window", "1", "--corrupted",
    ]) == 1


def test_act_q_is_scalar_eps(write_json, tmp_path):
    spec = write_json("f.json", dict(F_SPEC, V={"kind": "C_eps", "eps": "5/2"}))
    out = str(tmp_path / "r.json")
    assert main(["act", "--spec", spec, "--expr", "Q", "--vector",
                 "x0^2 x1^-1", "--out", out]) == 0
    doc = _check_report(out)
    detail = doc["checks"][0]["detail"]
    assert detail["result"]["terms"] == [[[2, -1], "5/2"]]


def test_simplicity_commands(write_json):
    assert main(["simplicity", "--spec", write_json("f.json", F_SPEC),
                 "--max-degree", "3"]) == 0
    non_simple = dict(
        F_SPEC,
        alpha="0",
        beta="1",
        P={"kind": "P0xM", "P0": {"kind": "M", "w": "1/3"}, "w": "2"},
        V={"kind": "C_eps", "eps": "-3"},
    )
    assert main(["simplicity", "--spec", write_json("fn.json", non_simple),
                 "--max-degree", "3"]) == 0
    assert main(["simplicity", "--spec", write_json("om.json", OMEGA_SPEC),
                 "--samples", "2", "--max-degree", "3"]) == 0
    assert main(["simplicity", "--spec", write_json("t.json", T_SPEC),
                 "--samples", "2"]) == 0
    assert main(["simplicity", "--spec", write_json("teq.json", T_EQUAL),
                 "--max-degree", "3"]) == 0


def test_det_lemma_small():
    assert main(["det-lemma", "--max-m", "2", "--max-s", "2", "--max-r", "1",
                 "--alphas", "1,2,-2"]) == 0


def test_rank_commands(write_json, tmp_path):
    out = str(tmp_path / "r.json")
    assert main(["rank", "--spec", write_json("om.json", OMEGA_SPEC), "--out", out]) == 0
    doc = _check_report(out)
    assert doc["checks"][0]["detail"]["rank"] == 3
    assert main(["rank", "--spec", write_json("t.json", T_SPEC)]) == 0
    assert main(["rank", "--spec", write_json("t.json", T_SPEC),
                 "--vector", "s1 t2"]) == 0


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
    bad = dict(good, p=[[[0, 1], "1"]])
    assert main(["classify", "--data", write_json("bad.json", bad)]) == 1


def test_iso_commands(write_json):
    swapped = {"family": "T", "factors": list(reversed(T_SPEC["factors"]))}
    assert main(["iso", "--left", write_json("a.json", T_SPEC),
                 "--right", write_json("b.json", swapped)]) == 0
    assert main(["iso", "--left", write_json("a.json", T_SPEC),
                 "--right", write_json("o.json", OMEGA_SPEC)]) == 0


def test_usage_and_schema_errors(write_json, capsys):
    assert main(["act", "--spec", write_json("bad.json", {"family": "F"}),
                 "--expr", "Q", "--vector", "1"]) == 2
    with pytest.raises(SystemExit) as exc:
        main(["verify-hom", "--map", "nope", "--alpha", "1", "--beta", "1"])
    assert exc.value.code == 2


def test_reports_are_deterministic(write_json, tmp_path):
    spec = write_json("t.json", T_SPEC)
    out1, out2 = str(tmp_path / "r1.json"), str(tmp_path / "r2.json")
    assert main(["simplicity", "--spec", spec, "--samples", "2", "--seed", "7",
                 "--out", out1]) == 0
    assert main(["simplicity", "--spec", spec, "--samples", "2", "--seed", "7",
                 "--out", out2]) == 0
    assert json.loads(open(out1).read()) == json.loads(open(out2).read())


def _exit_code(argv):
    """main's return value, or the code of the SystemExit argparse raises."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


HOM = ["verify-hom", "--map", "ab", "--beta", "1"]
ABGG = ["verify-hom", "--map", "abgg", "--alpha", "1", "--beta", "1", "--window", "1"]
DET = ["det-lemma", "--max-m", "1", "--max-s", "1", "--max-r", "0"]
# Spec files a row names by these placeholders are written before the run.
BAD_USAGE_SPECS = {
    "omega.json": OMEGA_SPEC,
    "omega-beta0.json": {**OMEGA_SPEC, "beta": "0"},
    "omega-lambda0.json": {**OMEGA_SPEC, "lambda": "0"},
    "omega-g0.json": {**OMEGA_SPEC, "g": []},
    "t.json": T_SPEC,
    "data.json": ACTION_DATA,
}
SIMPLICITY = ["simplicity", "--spec", "omega.json", "--samples", "1"]
ACT = ["act", "--spec", "omega.json", "--expr", "L[0]", "--vector"]


@pytest.mark.parametrize("argv", [
    HOM + ["--alpha", "1", "--window", "0"],
    HOM + ["--alpha", "1", "--window", "x"],
    HOM + ["--alpha", "foo"],
    HOM + ["--alpha", "1/0"],
    ABGG + ["--gamma", "bar"],
    ABGG + ["--g", "x^2"],
    ["verify-brackets", "--window", "0"],
    ["verify-brackets", "--window", "-2"],
    ["det-lemma", "--max-m", "0"],
    ["det-lemma", "--max-s", "0"],
    ["det-lemma", "--max-r", "-1"],
    DET + ["--alphas", "1,bar"],
    DET + ["--naive-limit", "-1"],
    ["act", "--spec", "omega.json", "--expr", "L[x]", "--vector", "1"],
    ["simplicity", "--spec", "omega.json", "--samples", "0"],
    ["rank", "--spec", "omega-beta0.json"],
    ["rank", "--spec", "omega-lambda0.json"],
    SIMPLICITY + ["--max-degree", "0"],
    SIMPLICITY + ["--window", "0"],
    SIMPLICITY + ["--max-steps", "0"],
    ["classify", "--data", "data.json", "--window", "0"],
    ACT + ["z"],
    ACT + ["s^-1"],
    ["rank", "--spec", "t.json", "--vector", "z"],
    ["rank", "--spec", "t.json", "--vector", "0"],
    ["rank", "--spec", "omega-g0.json"],
], ids=" ".join)
def test_bad_usage_exits_2(argv, write_json, capsys):
    argv = [write_json(a, BAD_USAGE_SPECS[a]) if a in BAD_USAGE_SPECS else a for a in argv]
    assert _exit_code(argv) == 2
    assert "Traceback" not in capsys.readouterr().err


def test_certificate_error_exits_1(write_json, monkeypatch, capsys):
    from wittdiamond import omega

    monkeypatch.setattr(omega, "combination", lambda columns, target: None)
    spec = write_json("omega.json", OMEGA_SPEC)
    assert main(["simplicity", "--spec", spec, "--samples", "1"]) == 1
    assert "window exhausted" in capsys.readouterr().err
