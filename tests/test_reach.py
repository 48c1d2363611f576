"""Every ``def`` under ``src`` that the golden corpus never enters is listed, with a reason.

A fresh interpreter replays the whole corpus through ``golden.regen.run_case`` under
``sys.setprofile``, with the package imported after the profiler is set, so import-time
calls count.  In this process the ``functools.cache`` of ``build_parser``,
``bracket_terms``, ``weyl_product`` and ``_shift_row`` would hide an entry, depending on
which tests ran first.  Code objects have no ``co_qualname`` before Python 3.11, so each
entered code object is matched to its ``ast`` def by file, name and first line: the
``def`` line, or the line of its first decorator.

``NEVER_ENTERED`` names each def that no command runs.  A def outside it that the corpus
never enters fails, and so does a listed def that the corpus enters or that is gone, so
the list only shrinks.
"""

import ast
import functools
import json
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "wittdiamond"

ERROR_ONLY = "error-only"
DUNDER = "dunder or printing"
PERFBENCH = "bound by perfbench"
TEST_ONLY = "test-only"
REASONS = (ERROR_ONLY, DUNDER, PERFBENCH, TEST_ONLY)
ROADMAP_ITEM = re.compile(r"kept for ROADMAP item \d+")

# module:qualified name -> why no command enters it.
NEVER_ENTERED = {
    "axioms:AxiomReport.__init__": PERFBENCH,
    "axioms:AxiomReport.ok": PERFBENCH,
    "axioms:_fractions": PERFBENCH,
    "axioms:_integer_action": PERFBENCH,
    "axioms:_integer_action.act": PERFBENCH,
    "axioms:apply_uenv": PERFBENCH,
    "axioms:module_axiom_check": PERFBENCH,
    "certificates:CertStep.from_jsonable": "kept for ROADMAP item 9",
    "certificates:Certificate.from_jsonable": "kept for ROADMAP item 9",
    "cli:_det_case": ERROR_ONLY,
    "fock:q_action": PERFBENCH,
    "lie:LElement._sort_key": DUNDER,
    "lie:UEnvElement._format_key": DUNDER,
    "lie:UEnvElement._sort_key": DUNDER,
    "lie:parse_uenv": PERFBENCH,
    "linalg:SpanBasis.contains": PERFBENCH,
    "linalg:exact_nullspace": PERFBENCH,
    "omega:rank1_data_from_action": "kept for ROADMAP item 5",
    "operators:OperatorElement._format_key": DUNDER,
    "operators:OperatorElement.monomial": PERFBENCH,
    "operators:TensorAlgebra.format_key": DUNDER,
    "operators:UbAlgebra.format_key": DUNDER,
    "operators:WeylAlgebra.format_key": DUNDER,
    "operators:commutator": PERFBENCH,
    "poly:SparsePoly.__repr__": DUNDER,
    "poly:SparsePoly._coerce": DUNDER,
    "poly:SparsePoly.shift": PERFBENCH,
    "scalars:Frozen.__delattr__": DUNDER,
    "scalars:Frozen.__setattr__": DUNDER,
    "scalars:LinComb.__bool__": DUNDER,
    "scalars:LinComb.__repr__": DUNDER,
    "scalars:LinComb.__rmul__": DUNDER,
    "scalars:LinComb.__rsub__": DUNDER,
    "scalars:LinComb._coerce": DUNDER,
    "scalars:LinComb._format_key": DUNDER,
    "scalars:LinComb._sort_key": DUNDER,
    "scalars:Record.__repr__": DUNDER,
    "specs:_json_type": ERROR_ONLY,
    "tensor:det_matrix": PERFBENCH,
}

# Run in a fresh interpreter: set the profiler, then import and replay; print
# (file, first line, name) of every code object entered under argv[1].
TRACE = """
import json, sys
prefix, entered = sys.argv[1], set()

def profile(frame, event, arg):
    code = frame.f_code
    if event == "call" and code.co_filename.startswith(prefix):
        entered.add((code.co_filename, code.co_firstlineno, code.co_name))

sys.setprofile(profile)
from golden.regen import case_dirs, run_case
for case in case_dirs():
    run_case(case)
sys.setprofile(None)
print(json.dumps(sorted(entered)))
"""


def _defs() -> dict[str, tuple[Path, str, set[int]]]:
    """{module:qualified name: (file, name, first lines)} for every def under ``src``, with
    enclosing classes and defs dotted into the qualified name."""
    out = {}

    def walk(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                key = prefix + child.name
                assert key not in out, key
                first = {child.lineno, *(d.lineno for d in child.decorator_list[:1])}
                out[key] = (path, child.name, first)
                walk(child, path, key + ".")
            elif isinstance(child, ast.ClassDef):
                walk(child, path, f"{prefix}{child.name}.")
            else:
                walk(child, path, prefix)

    for path in sorted(SRC.rglob("*.py")):
        module = ".".join(path.relative_to(SRC).with_suffix("").parts)
        walk(ast.parse(path.read_text()), path.resolve(), f"{module}:")
    return out


@functools.cache
def _never_entered() -> frozenset[str]:
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(ROOT / "tests")])}
    proc = subprocess.run([sys.executable, "-c", TRACE, str(SRC)], env=env, cwd=ROOT,
                          stdout=subprocess.PIPE, text=True, timeout=300, check=True)
    entered = {(Path(f).resolve(), line, name)
               for f, line, name in json.loads(proc.stdout.splitlines()[-1])}
    return frozenset(key for key, (path, name, lines) in _defs().items()
                     if not any((path, line, name) in entered for line in lines))


def test_the_trace_sees_the_commands():
    defs = _defs()
    assert len(defs) > 200
    never = _never_entered()
    assert "cli:main" in defs and "cli:main" not in never
    assert "homomorphisms:PullbackModule.index_degrees" not in never


def test_every_def_the_corpus_never_enters_is_listed():
    assert sorted(_never_entered() - NEVER_ENTERED.keys()) == []


def test_every_listed_def_exists_and_is_never_entered():
    assert sorted(NEVER_ENTERED.keys() - _never_entered()) == []


def test_each_listed_def_has_one_known_reason():
    assert [key for key, reason in NEVER_ENTERED.items()
            if reason not in REASONS and not ROADMAP_ITEM.fullmatch(reason)] == []
