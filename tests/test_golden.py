"""The golden report corpus: each case's report, stdout, stderr and exit code, byte for byte,
from ``cli.main`` in this process and from ``python -m wittdiamond.cli`` in a new one.

An expected file changes only through ``tests/golden/regen.py``.
"""

import json
import shutil
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from pathlib import Path

import jsonschema
import pytest
from conftest import load_schema
from golden.regen import CASES_DIR, OUTPUTS, case_dirs, run_case, run_case_fresh


def _check_case(case, produce=run_case):
    got = produce(case)
    for name in OUTPUTS:
        path = case / name
        assert got.get(name) == (path.read_bytes() if path.is_file() else None), \
            f"{case.name}/{name}"


@pytest.mark.parametrize("case", case_dirs(), ids=lambda p: p.name)
def test_golden_case(case):
    _check_case(case)


@pytest.fixture(scope="module")
def fresh_outputs():
    """Every case's files from ``run_case_fresh``, two interpreters at a time."""
    with ThreadPoolExecutor(2) as pool:
        return dict(zip(case_dirs(), pool.map(run_case_fresh, case_dirs())))


@pytest.mark.parametrize("case", case_dirs(), ids=lambda p: p.name)
def test_golden_case_in_a_fresh_process(case, fresh_outputs):
    _check_case(case, fresh_outputs.__getitem__)


def test_every_stored_report_validates_against_the_report_schema():
    """A case writes a report exactly when it exits 0 or 1, and each stored one is valid."""
    validator = jsonschema.Draft202012Validator(load_schema("report.schema.json"))
    reported = [case for case in case_dirs() if (case / "report.json").is_file()]
    assert reported == [case for case in case_dirs()
                        if int((case / "exit_code.txt").read_text()) in (0, 1)]
    for case in reported:
        errors = validator.iter_errors(json.loads((case / "report.json").read_bytes()))
        assert [e.message for e in errors] == [], case.name


# Three commands whose modules keep per-instance memos (``act_rules``,
# ``orbit_weights``) and a process-wide cache (``poly._shift_row``).
ONE_PROCESS = ("simplicity-t-three", "simplicity-omega", "classify-round-trip")
# The one tensor algebra of a pair of algebras in a process keeps int ids for its
# keys and its bracket tables, so a later map must not read an earlier map's.
MAPS = ("verify-hom-ab", "verify-hom-abgg", "verify-hom-ab-corrupted", "verify-brackets",
        "simplicity-t-two", "det-lemma-small")


@pytest.mark.parametrize("order", [ONE_PROCESS, ONE_PROCESS[::-1], MAPS, MAPS[::-1]],
                         ids=["forward", "backward", "maps-forward", "maps-backward"])
def test_golden_cases_in_one_process_in_either_order(order):
    """No memo leaks from one command to the next: each report equals its stored file
    whichever ran before it in the same process."""
    for name in order:
        _check_case(CASES_DIR / name)


def test_a_sign_flip_in_the_reversed_pair_branch_fails_verify_brackets(monkeypatch):
    """``lie.family_bracket`` negates a pair that ``BRACKET_TABLE`` lists in the
    other order; without that negation verify-brackets fails, and so does its case."""
    from wittdiamond import lie

    table, read = lie.BRACKET_TABLE, lie.family_bracket

    def unnegated(fx, fy):
        out = read(fx, fy)
        if (fx, fy) not in table and (fy, fx) in table:
            z, (k, k_m, k_n) = out
            return z, (-k, -k_m, -k_n)
        return out

    case = CASES_DIR / "verify-brackets"
    try:
        with monkeypatch.context() as patch:
            patch.setattr(lie, "family_bracket", unnegated)
            got = run_case(case)
            with pytest.raises(AssertionError):
                _check_case(case)
    finally:
        # ``bracket_terms`` reads the reader too: no value read under the plant may stay.
        lie.bracket_terms.cache_clear()
    assert got["exit_code.txt"] == b"1\n"
    checks = {c["check"]: c["status"] for c in json.loads(got["report.json"])["checks"]}
    assert checks == {"antisymmetry": "fail", "jacobi": "fail"}


# The ``d`` family's ``e`` term of ``ab_terms``, coefficient n, and the same term at n + 1.
AB_ENTRY = "((one, one, e), (ZERO, ONE))"
PLANTED_AB_ENTRY = "((one, one, e), (ONE, ONE))"


def test_a_planted_ab_table_coefficient_fails_verify_hom_ab_in_both_producers(
        tmp_path, monkeypatch):
    """With one coefficient of the d family's image changed, ``verify-hom --map ab``
    exits 1 and its case fails, in a fresh process and in this one."""
    import wittdiamond
    from wittdiamond import homomorphisms

    case = CASES_DIR / "verify-hom-ab"
    copy = tmp_path / "wittdiamond"
    shutil.copytree(Path(wittdiamond.__file__).resolve().parent, copy,
                    ignore=shutil.ignore_patterns("__pycache__"))
    source = (copy / "homomorphisms.py").read_text()
    assert source.count(AB_ENTRY) == 1
    (copy / "homomorphisms.py").write_text(source.replace(AB_ENTRY, PLANTED_AB_ENTRY))
    fresh = run_case_fresh(case, tmp_path)

    terms = homomorphisms.ab_terms

    def planted(alpha, beta):
        out = terms(alpha, beta)
        out["d"] = tuple((parts, (Fraction(1), Fraction(1)) if parts[-1] == (0, 1) else coef)
                         for parts, coef in out["d"])
        return out

    monkeypatch.setattr(homomorphisms, "ab_terms", planted)
    for got in (fresh, run_case(case)):
        assert got["exit_code.txt"] == b"1\n"
        with pytest.raises(AssertionError):
            _check_case(case, lambda _: got)
