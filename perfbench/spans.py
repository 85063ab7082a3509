"""In-memory span tracing of the ``quartet`` layers, from outside the program.

``Tracer.instrument`` replaces each layer's public entry point with a timing
wrapper at the place where the calling module looks it up (for example
``quartet.search.simple_mutation``, which is what the search loop calls), and
``Tracer.restore`` puts the originals back. A span is (name, start, end,
parent); spans live in flat arrays while the run lasts and are written out as
JSON lines when it ends. Layer self time is span duration minus the time
covered by the span's children.
"""

from __future__ import annotations

import json
import os
import platform
import sys
from array import array
from pathlib import Path
from time import perf_counter_ns

# (module, attribute, span name). Names start with the layer they measure.
FUNCTION_SITES = [
    ("quartet.cli", "read_distance_matrix", "matrix_io.read"),
    ("quartet.cli", "write_distance_matrix", "matrix_io.write"),
    ("quartet.cli", "search", "search.search"),
    ("quartet.bench", "search", "search.search"),
    ("quartet.cli", "collect_runs", "bench.collect_runs"),
    ("quartet.cli", "run_statistics", "bench.run_statistics"),
    ("quartet.cli", "write_statistics_csv", "bench.write_statistics_csv"),
    ("quartet.cli", "room_for_improvement", "bench.room_for_improvement"),
    ("quartet.cli", "load_corpus", "ncd.load_corpus"),
    ("quartet.cli", "ncd_matrix", "ncd.ncd_matrix"),
    ("quartet.cli", "bounds", "cost.bounds"),
    ("quartet.search", "cost_bounds", "cost.bounds"),
    ("quartet.cli", "is_min_perfect", "cost.certify"),
    ("quartet.search", "is_min_perfect", "cost.certify"),
    ("quartet.search", "tree_cost_naive", "cost.naive"),
    ("quartet.cli", "tree_cost_fast", "fastcost.score"),
    ("quartet.search", "cost_distance_from_adj", "fastcost.score"),
    ("quartet.search", "simple_mutation", "mutate.simple_mutation"),
    ("quartet.search", "apply_record", "mutate.apply_record"),
    ("quartet.search", "sample_k", "mutate.sample_k"),
    ("quartet.search", "random_tree", "trees.random_tree"),
    ("quartet.cli", "tree_to_newick", "trees.newick"),
    ("quartet.cli", "tree_from_newick", "trees.newick"),
    ("quartet.cli", "tree_to_dot", "trees.dot"),
]
# (module, class, method, span name): methods are wrapped on the class.
METHOD_SITES = [
    ("quartet.trees", "Tree", "canonical_key", "trees.canonical_key"),
    ("quartet.ncd", "ZlibCompressor", "compressed_length", "ncd.compress"),
    ("quartet.ncd", "Bz2Compressor", "compressed_length", "ncd.compress"),
    ("quartet.ncd", "LzmaCompressor", "compressed_length", "ncd.compress"),
]
MUTATION_KINDS = ("leaf_interchange", "subtree_interchange", "subtree_transfer")
LAYERS = ("cli", "trees", "cost", "fastcost", "mutate", "search", "ncd", "matrix_io", "bench")


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self._stack: list[int] = []
        self.counters = {"k_sum": 0, "trees_examined": 0, "improvements": 0, "ncd_bytes": 0}
        self._patched: list[tuple[object, str, object]] = []
        # per-span bookkeeping on the value a wrapped call returns
        self._after = {
            "mutate.simple_mutation": self._after_mutation,
            "mutate.sample_k": self._after_sample_k,
            "search.search": self._after_search,
            "ncd.compress": self._after_compress,
        }

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn(*args, **kwargs) inside a span; returns (span index, result)."""
        idx = len(self.start)
        self.name.append(self.name_id(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(0)
        self.end.append(0)
        self._stack.append(idx)
        t0 = perf_counter_ns()
        try:
            out = fn(*args, **kwargs)
        finally:
            t1 = perf_counter_ns()
            self._stack.pop()
            self.start[idx] = t0
            self.end[idx] = t1
        return idx, out

    def _wrapper(self, fn, name: str):
        span = self.span
        after = self._after.get(name)
        if after is None:
            return lambda *a, **kw: span(name, fn, *a, **kw)[1]

        def wrapped(*a, **kw):
            idx, out = span(name, fn, *a, **kw)
            after(idx, out, a)
            return out

        return wrapped

    def _after_mutation(self, idx, record, args) -> None:
        self.name[idx] = self.name_id("mutate." + record.kind)

    def _after_sample_k(self, idx, k, args) -> None:
        self.counters["k_sum"] += int(k)

    def _after_search(self, idx, result, args) -> None:
        self.counters["trees_examined"] += result.trees_examined
        self.counters["improvements"] += len(result.history)

    def _after_compress(self, idx, length, args) -> None:
        self.counters["ncd_bytes"] += len(args[1])

    def instrument(self) -> None:
        import importlib

        for mod_name, attr, name in FUNCTION_SITES:
            mod = importlib.import_module(mod_name)
            self._patch(mod, attr, name)
        for mod_name, cls_name, attr, name in METHOD_SITES:
            cls = getattr(importlib.import_module(mod_name), cls_name)
            self._patch(cls, attr, name)

    def _patch(self, owner, attr: str, name: str) -> None:
        original = owner.__dict__[attr]
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self._wrapper(original, name))

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------ #

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, busy seconds and self seconds."""
        child = [0] * len(self.start)
        for i in range(len(self.start)):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out: dict[str, dict[str, float]] = {}
        for i in range(len(self.start)):
            row = out.setdefault(self.names[self.name[i]], {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
            dur = self.end[i] - self.start[i]
            row["calls"] += 1
            row["busy_s"] += dur * 1e-9
            row["self_s"] += (dur - child[i]) * 1e-9
        return out

    def write_jsonl(self, path: Path, meta: dict) -> None:
        """One metadata line, then one line per span:
        [index, name, start_ns, end_ns, parent index or -1]."""
        path.parent.mkdir(parents=True, exist_ok=True)
        names = [json.dumps(nm) for nm in self.names]
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"meta": meta}) + "\n")
            for i in range(len(self.start)):
                fh.write(
                    f"[{i},{names[self.name[i]]},{self.start[i]},{self.end[i]},{self.parent[i]}]\n"
                )


def span_cost_s(calls: int = 100_000, repeats: int = 3) -> float:
    """Seconds one span adds to a call: a traced no-op against a plain one,
    the fastest of ``repeats`` batches each. Spans times this is an estimate
    of tracing overhead that, unlike traced minus untraced wall time, does not
    move with the machine's slow spells."""

    def noop() -> None:
        return None

    def batch(fn) -> int:
        t0 = perf_counter_ns()
        for _ in range(calls):
            fn()
        return perf_counter_ns() - t0

    traced = Tracer()._wrapper(noop, "calibration")
    plain = min(batch(noop) for _ in range(repeats))
    return (min(batch(traced) for _ in range(repeats)) - plain) * 1e-9 / calls


def environment() -> dict:
    """What a speed figure depends on besides the code: backend, cores, versions."""
    import numpy
    import quartet

    return {
        "backend": quartet.BACKEND,
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "machine": platform.machine(),
    }


def layer_metrics(summary: dict[str, dict[str, float]], counters: dict[str, int]) -> dict[str, float]:
    """Per-layer figures from a span summary (see README for what each should move)."""

    def get(name: str, field: str) -> float:
        return summary.get(name, {}).get(field, 0)

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    m: dict[str, float] = {}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(
            row["self_s"] for nm, row in summary.items() if nm.split(".")[0] == layer
        )
        m[f"{layer}.calls"] = sum(
            row["calls"] for nm, row in summary.items() if nm.split(".")[0] == layer
        )
    m["fastcost.calls"] = get("fastcost.score", "calls")
    m["fastcost.busy_s"] = get("fastcost.score", "busy_s")
    m["fastcost.us_per_call"] = 1e6 * ratio(m["fastcost.busy_s"], m["fastcost.calls"])

    moves = sum(get("mutate." + k, "calls") for k in MUTATION_KINDS)
    move_s = sum(get("mutate." + k, "busy_s") for k in MUTATION_KINDS)
    m["mutate.moves"] = moves
    m["mutate.busy_s"] = move_s
    m["mutate.us_per_move"] = 1e6 * ratio(move_s, moves)
    m["mutate.rollback_busy_s"] = get("mutate.apply_record", "busy_s")
    m["mutate.k_mean"] = ratio(counters["k_sum"], get("mutate.sample_k", "calls"))
    for k in MUTATION_KINDS:
        m[f"mutate.{k}.us_per_move"] = 1e6 * ratio(get("mutate." + k, "busy_s"), get("mutate." + k, "calls"))

    m["search.trees_examined"] = counters["trees_examined"]
    m["search.improvements"] = counters["improvements"]
    m["search.improvement_ratio"] = ratio(counters["improvements"], counters["trees_examined"])

    m["cost.bounds.calls"] = get("cost.bounds", "calls")
    m["cost.bounds.busy_s"] = get("cost.bounds", "busy_s")
    m["cost.certify.calls"] = get("cost.certify", "calls")
    m["cost.certify.busy_s"] = get("cost.certify", "busy_s")

    m["trees.canonical_key.calls"] = get("trees.canonical_key", "calls")
    m["trees.canonical_key.busy_s"] = get("trees.canonical_key", "busy_s")
    m["trees.newick.busy_s"] = get("trees.newick", "busy_s")

    m["ncd.compressions"] = get("ncd.compress", "calls")
    m["ncd.busy_s"] = get("ncd.ncd_matrix", "busy_s")
    m["ncd.mb_per_s"] = ratio(counters["ncd_bytes"] / 2**20, get("ncd.compress", "busy_s"))

    m["matrix_io.read_s"] = get("matrix_io.read", "busy_s")
    m["matrix_io.write_s"] = get("matrix_io.write", "busy_s")
    return m
