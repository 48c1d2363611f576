"""A kill matrix of planted defects: each mutant changes one source of truth, and the
golden cases named with it must change their exit code.

A mutant is one monkeypatch, in this process, on a builder of the data that the
commands read or on the one reader of a premise; a map or module built after the
patch reads the planted data.  Each
case is replayed through ``regen.run_case``, as ``tests/test_golden.py`` replays it,
and its stored ``exit_code.txt`` is the verdict without the defect.  One mutant is a
function recompiled from its source with one slice changed; it changes no verdict, so
the case must report a different count.
"""

import inspect
import json
from fractions import Fraction as F

import pytest
from golden.regen import CASES_DIR, case_dirs, run_case

from wittdiamond import cli, homomorphisms, lie, omega
from wittdiamond.lie import gen

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

# (id, table builder, family, planted term (parts, coefficient),
#  {case: (exit code, fields the case's first check must report)}).
MUTANTS = [
    # n (n^2 - 1) x0^n (x) 1 on the L image: coefficient degree 3, so D = 3 + 1 and the
    # window grows to 2, where [L_m, L_n] sees the term.
    ("ab-L-cubic", "ab_terms", "L", (((0, 0), (0, 0), (0, 0)), CUBIC),
     {"verify-hom-ab": (1, WINDOW_2)}),
    ("abgg-L-cubic", "abgg_terms", "L", (((0, 0), (0, 0)), CUBIC),
     {"verify-hom-abgg": (1, WINDOW_2)}),
    # n x0^n (x) 1 on the c image: degree 1 keeps D = 2 and the window {-1, 0, 1},
    # which decides it: [L_m, c_n] differs from n c_{m+n} by n m x0^(m+n).
    ("ab-c-linear", "ab_terms", "c", (((0, 0), (0, 0), (0, 0)), (F(0), F(1))),
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
    # ROADMAP item 12: with every bound of ``PullbackModule.index_degrees`` one lower, the
    # r-g orbit rank of ``rank-t-mixed`` reads 8 in place of 11 (``INDEX_DEGREE_MOVES``),
    # and a wrong rank still passes its only check, value >= m + 1.
    ("index-degrees-lowered", "homomorphisms.PullbackModule.index_degrees", {"rank-t-mixed": 0}),
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


# One changed constant of ``lie.BRACKET_TABLE``: [d_m, a_n] = 2 a_{m+n} in place of a_{m+n}.
# The Jacobi identity fails on the family multiset (a, b, d) only, with residual -c_{l+m+n},
# the image of [a_m, d_n] under either map is off by phi(a_{m+n}), and classify rejects the
# relation [a_m, d_n] at its first point.
TABLE_KEY, TABLE_PLANT = ("d", "a"), ("a", (2, 0, 0))
A_D_PAIRS = [[f"a[{m}]", f"d[{n}]"] for m in (-1, 0, 1) for n in (-1, 0, 1)]
HOM_FLIP = (1, "homomorphism", {**WINDOW_1, "violations": A_D_PAIRS})
CLASSIFY_FLIP = (1, "classify", {"relation": "[a_m, d_n]", "detail": "at (m, n) = (0, 0)"})
# case -> (exit code, the check that fails, fields it must report).
TABLE_FLIPS = {
    "verify-brackets": (1, "jacobi", {"complete": True, "for": "all indices", "family_tuples": 35,
                                      "violations": [["a[0]", "b[0]", "d[0]"]]}),
    "verify-hom-ab": HOM_FLIP,
    "verify-hom-ab-negative-alpha": HOM_FLIP,
    "verify-hom-abgg": HOM_FLIP,
    "verify-hom-abgg-t2": HOM_FLIP,
    "verify-hom-g-leading-sign": HOM_FLIP,
    "classify-degenerate": CLASSIFY_FLIP,
    "classify-round-trip": CLASSIFY_FLIP,
}


def test_a_changed_bracket_table_constant_flips_exactly_its_cases():
    """The cache of ``lie.bracket_terms`` lives for the process, so it is cleared
    before the plant, or it would hide it, and after, or it would keep it."""
    stored = {case.name: int((case / "exit_code.txt").read_text()) for case in case_dirs()}
    assert all(stored[name] == 0 for name in TABLE_FLIPS)
    original = lie.BRACKET_TABLE[TABLE_KEY]
    lie.bracket_terms.cache_clear()
    lie.BRACKET_TABLE[TABLE_KEY] = TABLE_PLANT
    try:
        got = {case.name: run_case(case) for case in case_dirs()}
    finally:
        lie.BRACKET_TABLE[TABLE_KEY] = original
        lie.bracket_terms.cache_clear()
    assert lie.bracket_terms(gen("d", 0), gen("a", 0)) == ((gen("a", 0), 1),)
    codes = {name: int(files["exit_code.txt"]) for name, files in got.items()}
    assert {name for name in codes if codes[name] != stored[name]} == set(TABLE_FLIPS)
    for name, (code, check, fields) in TABLE_FLIPS.items():
        checks = {c["check"]: c for c in json.loads(got[name]["report.json"])["checks"]}
        detail = checks[check]["detail"]
        assert codes[name] == code and checks[check]["status"] == "fail", name
        assert {key: detail[key] for key in fields} == fields, name


# The simplicity certificates whose orbit steps read every bound of
# ``PullbackModule.index_degrees``; each exits 0 without the defect.
INDEX_DEGREE_FLIPS = ["simplicity-omega", "simplicity-t-one", "simplicity-t-three",
                      "simplicity-t-two"]
# The cases that keep exit 0 under the same defect, with the check whose fields move:
# {field: (value without the defect, value with it)}.  Each invariance grid shrinks, and
# the r-g orbit of ``rank-t-mixed`` takes fewer points and reads a lower rank.
INVARIANCE_GRID = {"images_checked": (12, 10), "max_index_degree": (1, 0)}
INDEX_DEGREE_MOVES = {
    "rank-t-mixed": ("r-g", {"value": (11, 8), "orbit_points": (7, 4)}),
    "simplicity-f-m-p0": ("barrier-invariance", INVARIANCE_GRID),
    "simplicity-f-omega-p0": ("barrier-invariance",
                              {"images_checked": (17, 11), "max_index_degree": (2, 1)}),
    "simplicity-f-witness31": ("barrier-invariance", INVARIANCE_GRID),
    "simplicity-f-witness65": ("barrier-invariance", INVARIANCE_GRID),
    "simplicity-t-equal": ("simplicity", {"images_checked": (18, 15), "max_index_degree": (1, 0)}),
}


def _detail(report: bytes, check: str) -> dict:
    return next(c["detail"] for c in json.loads(report)["checks"] if c["check"] == check)


def test_lowered_index_degrees_flip_exactly_the_certificate_cases(monkeypatch):
    """F, Omega and T modules read one index-degree reader, so one patch plants the defect
    in all three: every bound one lower, with a floor of 0.  A reduction step then asks
    for a part n^x lam^n above its lowered bound, and ``omega.orbit_component`` finds
    no combination of the orbit's images that isolates it."""
    stored = {case.name: int((case / "exit_code.txt").read_text()) for case in case_dirs()}
    assert all(stored[name] == 0 for name in INDEX_DEGREE_FLIPS)
    reader = homomorphisms.PullbackModule.index_degrees
    monkeypatch.setattr(homomorphisms.PullbackModule, "index_degrees", lambda module, family, v: {
        scale: max(d - 1, 0) for scale, d in reader(module, family, v).items()})
    got = {case.name: run_case(case) for case in case_dirs()}
    codes = {name: int(files["exit_code.txt"]) for name, files in got.items()}
    assert sorted(name for name in codes if codes[name] != stored[name]) == INDEX_DEGREE_FLIPS
    for name in INDEX_DEGREE_FLIPS:
        assert codes[name] == 1, name
        assert b"-orbit combination isolates" in got[name]["stderr.txt"], name
    moved = {case.name for case in case_dirs() if codes[case.name] == stored[case.name]
             and (case / "report.json").exists()
             and got[case.name].get("report.json") != (case / "report.json").read_bytes()}
    assert sorted(moved) == sorted(INDEX_DEGREE_MOVES)
    for name, (check, fields) in INDEX_DEGREE_MOVES.items():
        before = _detail((CASES_DIR / name / "report.json").read_bytes(), check)
        after = _detail(got[name]["report.json"], check)
        assert codes[name] == 0 and after["complete"] is True, name
        assert {key: (before[key], after[key]) for key in fields} == fields, name


# n + n(n-1)(n-2)(n-3)(n-4) in place of n on the p part of L's rank-one symbol, constant
# first: the quintic term vanishes at n = 0..4, so an index-degree premise of 1 for L would
# grid [L_m, L_n] on {0, 1, 2}^2 and round-trip L[1] only, and never see it.
RANK1_L_QUINTIC = (("L0", 0, (1,)), ("p", 0, (0, 25, -50, 35, -10, 1)))
RANK1_FLIPS = ["classify-degenerate", "classify-round-trip"]
RANK1_REJECTION = {"rejected": True, "relation": "[L_m, L_n]", "detail": "at (m, n) = (1, 4)"}


def test_a_planted_rank_one_symbol_term_flips_exactly_the_classify_cases(monkeypatch):
    """``rank1_grid`` reads L's index degree 5 from ``omega.RANK1_SYMBOL``, so [L_m, L_n]
    is gridded on {0..6}^2 and fails at the first point where the term shows."""
    stored = {case.name: int((case / "exit_code.txt").read_text()) for case in case_dirs()}
    assert all(stored[name] == 0 for name in RANK1_FLIPS)
    monkeypatch.setitem(omega.RANK1_SYMBOL, "L", RANK1_L_QUINTIC)
    got = {case.name: run_case(case) for case in case_dirs()}
    codes = {name: int(files["exit_code.txt"]) for name, files in got.items()}
    assert sorted(name for name in codes if codes[name] != stored[name]) == RANK1_FLIPS
    for name in RANK1_FLIPS:
        check = json.loads(got[name]["report.json"])["checks"][0]
        assert codes[name] == 1 and check["status"] == "fail", name
        assert check["detail"] == RANK1_REJECTION, name


def _source_mutant(module, name, old, new):
    """``module.name`` compiled again from its source with the one ``old`` replaced by
    ``new``, over a copy of the module's globals."""
    source = inspect.getsource(getattr(module, name))
    assert source.count(old) == 1, old
    namespace = dict(vars(module))
    exec(compile(source.replace(old, new), module.__file__, "exec"), namespace)
    return namespace[name]


def test_a_narrowed_pair_loop_changes_the_reported_pair_count(monkeypatch):
    """ROADMAP item 12: ``pairs_checked`` is counted where the loop runs.  The mutant skips
    the diagonal pairs, which never fail, so only the count can show it: 120 - 15."""
    stored = json.loads((CASES_DIR / "verify-hom-ab" / "report.json").read_text())
    assert stored["checks"][0]["detail"]["pairs"] == 120
    mutant = _source_mutant(homomorphisms, "verify_hom", "gens[i:]", "gens[i + 1:]")
    for module in (homomorphisms, cli):
        monkeypatch.setattr(module, "verify_hom", mutant)
    got = run_case(CASES_DIR / "verify-hom-ab")
    detail = json.loads(got["report.json"])["checks"][0]["detail"]
    assert int(got["exit_code.txt"]) == 0
    assert (detail["pairs"], detail["violations"]) == (105, [])
