"""The benchmark's tracer (``perfbench/spans.py``) wraps program functions at
the module or class attribute where callers look them up. A renamed or
moved call site must fail here, not as a KeyError under ``--trace 1``."""

import ast
import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def resolves(module: str, name: str) -> bool:
    """``from module import name`` would succeed: an attribute or a submodule."""
    owner = importlib.import_module(module)
    return hasattr(owner, name) or (
        hasattr(owner, "__path__") and importlib.util.find_spec(f"{module}.{name}") is not None
    )


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_site_is_an_attribute_of_its_owner():
    spans = load_spans()
    missing = [
        f"{mod}.{attr}"
        for mod, attr, _ in spans.FUNCTION_SITES
        if attr not in vars(importlib.import_module(mod))
    ]
    missing += [
        f"{mod}.{cls}.{attr}"
        for mod, cls, attr, _ in spans.METHOD_SITES
        if attr not in vars(getattr(importlib.import_module(mod), cls))
    ]
    assert spans.FUNCTION_SITES and spans.METHOD_SITES
    assert missing == []


def test_every_benchmark_import_of_the_program_resolves():
    """The benchmark reaches the program through plain imports too
    (``perfbench/workload.py`` reads matrices and trees and warms caches);
    a reader moved or renamed must fail here, not as a failed benchmark run."""
    missing = []
    for path in sorted(SPANS.parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "quartet":
                missing += [f"{path.name}: {node.module}.{alias.name}"
                            for alias in node.names if not resolves(node.module, alias.name)]
            elif isinstance(node, ast.Import):
                missing += [f"{path.name}: {alias.name}" for alias in node.names
                            if alias.name.split(".")[0] == "quartet"
                            and importlib.util.find_spec(alias.name) is None]
    assert missing == []
