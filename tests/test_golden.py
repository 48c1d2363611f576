"""The golden report corpus: each case's report, stdout and exit code, byte for byte.

An expected file changes only through ``tests/golden/regen.py``.
"""

import pytest
from golden.regen import case_dirs, run_case


@pytest.mark.parametrize("case", case_dirs(), ids=lambda p: p.name)
def test_golden_case(case):
    for name, data in run_case(case).items():
        assert data == (case / name).read_bytes(), f"{case.name}/{name}"
