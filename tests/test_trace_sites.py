"""The benchmark's tracer (``perfbench/spans.py``) wraps program functions at
the module or class attribute where callers look them up. A renamed or
moved call site must fail here, not as a KeyError under ``--trace 1``."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


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
