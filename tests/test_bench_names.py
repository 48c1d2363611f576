"""The benchmark's traced names still resolve in the package under ``src``.

``perfbench/tracer.py`` wraps the callables named in ``TARGETS``, and
``perfbench/selftest.py`` checks that the names in ``IMPORTED_BINDINGS`` are
traced.  Both are read here as literals, without importing the benchmark or
running a workload, so a rename under ``src`` fails this test rather than only
a benchmark run.
"""

import ast
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "wittdiamond"


def _literal(path: Path, name: str):
    """The value of a module-level ``name = <literal>`` in a Python file."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise LookupError(f"{name} not assigned in {path}")


TARGETS = _literal(ROOT / "perfbench" / "tracer.py", "TARGETS")
IMPORTED_BINDINGS = _literal(ROOT / "perfbench" / "selftest.py", "IMPORTED_BINDINGS")


def _owner(module_name: str, path: str):
    """The object that holds the last name of ``path``, and that name."""
    owner = importlib.import_module(f"wittdiamond.{module_name}")
    assert Path(owner.__file__).resolve().parent == SRC
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr


@pytest.mark.parametrize("span", sorted(TARGETS))
def test_each_traced_target_is_defined_under_src(span):
    module_name, paths = TARGETS[span]
    for path in paths.split():
        owner, attr = _owner(module_name, path)
        # The tracer reads the owner's own attribute, so an inherited one does not count.
        assert callable(vars(owner).get(attr)), f"wittdiamond.{module_name}.{path}"


@pytest.mark.parametrize("module_name, path", IMPORTED_BINDINGS,
                         ids=[f"{m}.{p}" for m, p in IMPORTED_BINDINGS])
def test_each_imported_binding_is_a_traced_function(module_name, path):
    owner, attr = _owner(module_name, path)
    traced = [vars(o)[a] for m, paths in TARGETS.values()
              for o, a in (_owner(m, p) for p in paths.split())]
    assert any(getattr(owner, attr) is fn for fn in traced), f"wittdiamond.{module_name}.{path}"


def _unused_imports():
    """(module, name) for each name that a module under ``src`` imports with
    ``# noqa: F401``, that is, imports without using it."""
    out = []
    for path in sorted(SRC.rglob("*.py")):
        lines = path.read_text().splitlines()
        for node in ast.walk(ast.parse("\n".join(lines))):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and any(
                    "noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
                module_name = ".".join(path.relative_to(SRC).with_suffix("").parts)
                out += [(module_name, alias.asname or alias.name) for alias in node.names]
    return out


def test_each_unused_import_under_src_is_an_imported_binding():
    # Such an import is kept only so that the benchmark's tracer can rebind it; once
    # ``IMPORTED_BINDINGS`` drops its entry, the import is dead and goes too.
    unused = _unused_imports()
    assert unused
    assert [b for b in unused if b not in IMPORTED_BINDINGS] == []
