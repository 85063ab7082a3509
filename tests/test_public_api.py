"""The exported surface: every name a module lists in ``__all__`` exists.
``quartet.cli`` exports ``main`` through the package's script entry and
lists no ``__all__``. No module imports a name it neither uses nor
exports, and no function, class or method goes unnamed by the code and
tests."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import quartet

MODULES = ["quartet"] + [
    f"quartet.{m.name}" for m in pkgutil.iter_modules(quartet.__path__) if m.name != "cli"
]
SOURCES = sorted(Path(quartet.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = module.__all__
    assert len(exported) == len(set(exported))
    assert [n for n in exported if not hasattr(module, n)] == []


def test_star_import_gives_the_package_exports():
    namespace: dict = {}
    exec("from quartet import *", namespace)
    assert set(quartet.__all__) <= set(namespace)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_import_is_used_or_exported(path):
    """A name kept imported after its last use is gone fails here, and so
    does a program function the benchmark's tracer wraps at its importing
    module (``perfbench/spans.py``) but that module no longer calls."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported, used, exported = set(), set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {alias.asname or alias.name for alias in node.names}
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported |= set(ast.literal_eval(node.value))
    assert sorted(imported - used - exported) == []


def _mentions(path: Path) -> set[str]:
    """Every identifier a file names: variables, attributes, imported names
    and string constants that are identifiers (``__all__`` entries, the
    tracer's site names)."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name.split(".")[-1])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier():
                out.add(node.value)
    return out


def test_every_definition_is_named_somewhere():
    """A function, class or method of ``src/quartet`` that nothing in
    ``src/``, ``tests/`` or ``perfbench/`` names is dead code (dunder methods
    are called by Python itself)."""
    root = Path(__file__).resolve().parents[1]
    named = set().union(*(_mentions(p) for d in ("src", "tests", "perfbench")
                          for p in (root / d).rglob("*.py")))
    dead = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            dunder = node.name.startswith("__") and node.name.endswith("__")
            if not dunder and node.name not in named:
                dead.append(f"{path.name}:{node.lineno} {node.name}")
    assert dead == []
