"""A kill matrix of planted defects: each mutant changes one source of truth, and the
golden cases named with it must change their exit code.

A mutant is one monkeypatch, in this process, on a builder of the data that the
commands read; a map or module built after the patch reads the planted data.  Each
case is replayed through ``regen.run_case``, as ``tests/test_golden.py`` replays it,
and its stored ``exit_code.txt`` is the verdict without the defect.
"""

import json
from fractions import Fraction as F

import pytest
from golden.regen import CASES_DIR, run_case

from wittdiamond import homomorphisms

# n (n^2 - 1) = n^3 - n, constant first: zero at n = -1, 0, 1, so the window {-1, 0, 1}
# alone does not see it.
CUBIC = (F(0), F(-1), F(0), F(1))


def _with_term(builder, family, term):
    """``builder`` of a generator table with ``term`` appended to ``family``'s terms."""
    def planted(*params):
        table = builder(*params)
        table[family] = (*table[family], term)
        return table
    return planted


# What verify-hom reports at window 2 (D = 4, 25 generators) and at window 1 (D = 2).
WINDOW_2 = {"complete": True, "window": 2, "max_index_degree": 4, "pairs": 325}
WINDOW_1 = {"complete": True, "window": 1, "max_index_degree": 2, "pairs": 120}

# (id, table builder, family, planted term (x, right, coefficient),
#  {case: (exit code, fields the case's first check must report)}).
MUTANTS = [
    # n (n^2 - 1) x0^n (x) 1 on the L image: coefficient degree 3, so D = 3 + 1 and the
    # window grows to 2, where [L_m, L_n] sees the term.
    ("ab-L-cubic", "ab_terms", "L", (((0, 0), (0, 0)), (0, 0), CUBIC),
     {"verify-hom-ab": (1, WINDOW_2)}),
    ("abgg-L-cubic", "abgg_terms", "L", (((0,), (0,)), ((0,), (0,)), CUBIC),
     {"verify-hom-abgg": (1, WINDOW_2)}),
    # n x0^n (x) 1 on the c image: degree 1 keeps D = 2 and the window {-1, 0, 1},
    # which decides it: [L_m, c_n] differs from n c_{m+n} by n m x0^(m+n).
    ("ab-c-linear", "ab_terms", "c", (((0, 0), (0, 0)), (0, 0), (F(0), F(1))),
     {"verify-hom-ab": (1, WINDOW_1)}),
]

# Known survivors: defects that no check catches yet, each owned by a ROADMAP item
# and recorded here without a test.
KNOWN_SURVIVORS = [
    # ROADMAP item 3: the closed form of ``tensor.det_r`` times
    # prod_t (1 + prod_v (alpha_t - v)) over the six default alphas v equals the true
    # closed form at every alpha the default sweep uses, so ``det-lemma`` and
    # ``det-lemma-small`` still exit 0 with "complete": true (``det-lemma-rational``,
    # whose alphas differ, exits 1).
    ("det-closed-form-off-grid", "tensor.det_r", {"det-lemma-small": 0}),
]


@pytest.mark.parametrize("mutant, builder, family, term, flips", MUTANTS,
                         ids=[m[0] for m in MUTANTS])
def test_each_mutant_flips_its_cases(mutant, builder, family, term, flips, monkeypatch):
    for name in flips:
        assert int((CASES_DIR / name / "exit_code.txt").read_text()) == 0, name
    monkeypatch.setattr(homomorphisms, builder,
                        _with_term(getattr(homomorphisms, builder), family, term))
    for name, (code, fields) in flips.items():
        got = run_case(CASES_DIR / name)
        detail = json.loads(got["report.json"])["checks"][0]["detail"]
        assert int(got["exit_code.txt"]) == code, (mutant, name)
        assert {key: detail[key] for key in fields} == fields, (mutant, name)
