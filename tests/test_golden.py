"""The golden report corpus: each case's report, stdout, stderr and exit code, byte for byte.

An expected file changes only through ``tests/golden/regen.py``.
"""

import pytest
from golden.regen import CASES_DIR, OUTPUTS, case_dirs, run_case


def _check_case(case):
    got = run_case(case)
    for name in OUTPUTS:
        path = case / name
        assert got.get(name) == (path.read_bytes() if path.is_file() else None), \
            f"{case.name}/{name}"


@pytest.mark.parametrize("case", case_dirs(), ids=lambda p: p.name)
def test_golden_case(case):
    _check_case(case)


# Three commands whose modules keep per-instance memos (``act_rules``,
# ``orbit_weights``) and a process-wide cache (``poly._shift_row``).
ONE_PROCESS = ("simplicity-t-three", "simplicity-omega", "classify-round-trip")


@pytest.mark.parametrize("order", [ONE_PROCESS, ONE_PROCESS[::-1]],
                         ids=["forward", "backward"])
def test_golden_cases_in_one_process_in_either_order(order):
    """No memo leaks from one command to the next: each report equals its stored file
    whichever ran before it in the same process."""
    for name in order:
        _check_case(CASES_DIR / name)


def test_a_sign_flip_in_the_reversed_pair_branch_fails_verify_brackets(monkeypatch):
    """``lie._structure_constants`` negates a pair that ``BRACKET_TABLE`` lists in the
    other order; without that negation verify-brackets fails, and so does its case."""
    from wittdiamond import lie

    table, read = lie.BRACKET_TABLE, lie._structure_constants.__wrapped__

    def unnegated(x, y):
        out = read(x, y)
        if (x.family, y.family) not in table and (y.family, x.family) in table:
            return -out
        return out

    monkeypatch.setattr(lie, "_structure_constants", unnegated)
    case = CASES_DIR / "verify-brackets"
    got = run_case(case)
    assert got["exit_code.txt"] == b"1\n"
    assert got["report.json"] != (case / "report.json").read_bytes()
    with pytest.raises(AssertionError):
        _check_case(case)
