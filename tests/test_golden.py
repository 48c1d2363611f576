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
