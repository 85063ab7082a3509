"""Property tests: the simple moves on the neighbour-list working state,
record inversion, mutation paths, search trace replay, and the Newick and
matrix text formats.

Examples are derandomized, so every run checks the same cases."""

import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from quartet.cost import DistanceCostFunction, DistanceMatrix
from quartet.fastcost import tree_cost_fast
from quartet.matrix_io import FORMATS, format_matrix, parse_matrix
from quartet.mutate import apply_record, mutation_path, replay_records, simple_mutation
from quartet.search import replay_trace, search
from quartet.trees import Tree, random_tree, tree_from_newick, tree_to_newick, trees_equal

from conftest import random_symmetric_matrix, rng_for

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=60)

seeds = st.integers(0, 2**32 - 1)


@PROPERTY
@given(n=st.integers(4, 20), seed=seeds, steps=st.integers(1, 40))
def test_moves_keep_a_valid_tree_and_inverses_restore_it(n, seed, steps):
    rng = rng_for(seed)
    t = random_tree(n, rng)
    rows = t.copy_adjacency()
    records = []
    for _ in range(steps):
        records.append(simple_mutation(rows, n, rng))
        Tree(rows)  # validates degree, symmetry and connectivity
    for rec in reversed(records):
        apply_record(rows, rec.inverse())
    # slot order may differ from the start; the frozen, sorted form may not
    assert np.array_equal(Tree(rows).adj_array, t.adj_array)


@PROPERTY
@given(n=st.integers(4, 24), seed=seeds)
def test_mutation_path_within_bound_and_reaches_target(n, seed):
    rng = rng_for(seed)
    t0, t1 = random_tree(n, rng), random_tree(n, rng)
    records = mutation_path(t0, t1)
    assert len(records) <= (4 if n == 4 else 5 * n - 16)
    assert trees_equal(replay_records(t0, records), t1)


@settings(PROPERTY, max_examples=150)
@given(
    n=st.integers(5, 10),
    seed=seeds,
    mode=st.sampled_from(["hill_climb", "metropolis"]),
    termination=st.sampled_from(["simple", "agreement"]),
    max_trees=st.integers(1, 300),
)
def test_trace_replay_reaches_best_tree(n, seed, mode, termination, max_trees):
    dm = random_symmetric_matrix(n, rng_for(seed))
    with tempfile.TemporaryDirectory() as tmp:
        trace = Path(tmp) / "trace.log"
        res = search(DistanceCostFunction(dm), seed=seed, mode=mode, termination=termination,
                     max_trees=max_trees, trace_path=trace)
        replayed = replay_trace(trace)[2]
    assert trees_equal(replayed, res.best_tree)
    cost = tree_cost_fast(replayed, dm)
    assert abs(cost - res.best_cost) <= 1e-12 * abs(res.best_cost)


leaf_names = st.text(min_size=1, max_size=6)


@PROPERTY
@given(n=st.integers(4, 16), seed=seeds, data=st.data())
def test_newick_round_trip(n, seed, data):
    t = random_tree(n, rng_for(seed))
    names = data.draw(st.lists(leaf_names, min_size=n, max_size=n, unique=True))
    back, back_names = tree_from_newick(tree_to_newick(t, names), names)
    assert back_names == names
    assert trees_equal(back, t)


def _is_number(text):
    try:
        float(text)
    except ValueError:
        return False
    return True


item_names = st.from_regex(r"[A-Za-z][A-Za-z0-9_]{0,7}", fullmatch=True).filter(
    lambda s: not _is_number(s)
)
distances = st.floats(min_value=0.0, allow_nan=False, allow_infinity=False)


@PROPERTY
@given(n=st.integers(2, 8), fmt=st.sampled_from(FORMATS), data=st.data())
def test_matrix_formats_round_trip(n, fmt, data):
    upper = data.draw(st.lists(distances, min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2))
    d = np.zeros((n, n))
    d[np.triu_indices(n, 1)] = upper
    d += d.T
    names = data.draw(st.lists(item_names, min_size=n, max_size=n, unique=True))
    if fmt == "csv" and data.draw(st.booleans()):
        names = None  # headerless CSV
    dm = DistanceMatrix(d, names)
    back = parse_matrix(format_matrix(dm, fmt), fmt)
    assert np.array_equal(back.d, d)
    assert back.names == names
