"""The benchmark's traced names, and the names the docs cite, still resolve in the package
under ``src``.

``perfbench/tracer.py`` wraps the callables named in ``TARGETS``, and
``perfbench/selftest.py`` checks that the names in ``IMPORTED_BINDINGS`` are
traced.  Both are read here as literals, without importing the benchmark or
running a workload, so a rename under ``src`` fails this test rather than only
a benchmark run.  A dotted ``module.name`` cited in a docstring under ``src``
or in the README must name an object of that module, or a span of ``TARGETS``.
"""

import ast
import importlib
import re
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


MODULES = {path.stem for path in SRC.glob("*.py")}
# A module under ``src``, a dotted attribute path, and the arguments of a call, if any.
CITATION = re.compile(r"([a-z_]+)\.([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*)(?:\(.*\))?")


def _citations(text: str, tick: str) -> list[tuple[str, str]]:
    """(module, attribute path) for each span between two ``tick`` marks of ``text`` that
    cites a module under ``src``."""
    out = []
    for span in re.findall(f"{tick}([^`]+?){tick}", text):
        match = CITATION.fullmatch(" ".join(span.split()))
        if match and match[1] in MODULES:
            out.append((match[1], match[2]))
    return out


def _doc_citations() -> list[tuple[str, str]]:
    out = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef)):
                out += _citations(ast.get_docstring(node, clean=False) or "", "``")
    readme = re.sub(r"```.*?```", "", (ROOT / "README.md").read_text(), flags=re.S)
    return out + _citations(readme, "`")


def _resolves(module_name: str, path: str) -> bool:
    owner = importlib.import_module(f"wittdiamond.{module_name}")
    for part in path.split("."):
        if not hasattr(owner, part):
            return False
        owner = getattr(owner, part)
    return True


def test_each_name_the_docs_cite_is_defined_under_src_or_traced():
    citations = _doc_citations()
    # One cited function, and one cited span that is no attribute of its module.
    assert {("operators", "pullback_rules"), ("operators", "tensor_mul")} <= set(citations)
    assert [f"{m}.{p}" for m, p in citations
            if not _resolves(m, p) and f"{m}.{p}" not in TARGETS] == []
