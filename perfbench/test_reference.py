"""Tests of the benchmark's own generators and correctness references.

Run with ``python3 -m pytest perfbench``. They do not import ``quartet``.
"""

from __future__ import annotations

import itertools
import math
import random
from collections import Counter

import numpy as np
import pytest

import gen
import reference


def brute_force_costs(adj, d):
    """Literal O(n^4) loop: per quartet, the pairing whose two tree paths
    share no vertex is embedded."""
    n = d.shape[0]

    def path(u, v):
        prev, frontier = {u: u}, [u]
        while v not in prev:
            nxt = []
            for x in frontier:
                for w in adj[x]:
                    if w not in prev:
                        prev[w] = x
                        nxt.append(w)
            frontier = nxt
        out = {v}
        while v != u:
            v = prev[v]
            out.add(v)
        return out

    cost = lo = hi = 0.0
    for a, b, c, e in itertools.combinations(range(n), 4):
        pairings = [((a, b), (c, e)), ((a, c), (b, e)), ((a, e), (b, c))]
        costs = [d[p] + d[q] for p, q in pairings]
        embedded = [k for k, (p, q) in enumerate(pairings) if not path(*p) & path(*q)]
        assert len(embedded) == 1
        cost += costs[embedded[0]]
        lo += min(costs)
        hi += max(costs)
    return cost, lo, hi


def test_random_tree_is_ternary_and_connected():
    rng = np.random.default_rng(1)
    for n in (4, 5, 9, 30):
        adj = gen.random_tree(n, rng)
        assert len(adj) == 2 * n - 2
        assert all(len(adj[v]) == 1 for v in range(n))
        assert all(len(adj[v]) == 3 for v in range(n, 2 * n - 2))
        assert all(v in adj[w] for v in range(2 * n - 2) for w in adj[v])
        L = gen.hop_distances(adj, n)
        assert (L[~np.eye(n, dtype=bool)] >= 2).all()


def test_random_tree_is_uniform_over_labelled_shapes():
    # n=5 has 15 labelled unrooted ternary trees, each with probability 1/15
    rng = np.random.default_rng(2)
    draws = 3000
    seen = Counter(reference.splits(gen.random_tree(5, rng), 5) for _ in range(draws))
    assert len(seen) == 15
    assert all(abs(c - draws / 15) < 5 * math.sqrt(draws / 15) for c in seen.values())


def test_tree_metric_is_symmetric_with_zero_diagonal():
    adj = gen.random_tree(12, np.random.default_rng(3))
    d = gen.tree_metric(adj, 12)
    assert np.array_equal(d, d.T) and not d.diagonal().any()
    assert d[~np.eye(12, dtype=bool)].min() == 3 / 12


def test_newick_round_trip_gives_the_same_splits():
    rng = np.random.default_rng(4)
    for n in (4, 7, 20):
        adj = gen.random_tree(n, rng)
        names = gen.names_for(n)
        parsed = reference.parse_newick(gen.to_newick(adj, names), names)
        assert reference.splits(parsed, n) == reference.splits(adj, n)
        assert len(reference.splits(adj, n)) == n - 3


def test_newick_parser_smooths_a_rooted_input_and_reorders_names():
    names = ["a", "b", "c", "d", "e"]
    rooted = reference.parse_newick("((b:1,a:2)x:0.5,((c,d),e));", names)
    unrooted = reference.parse_newick("(a,b,((d,c),e));", names)
    assert reference.splits(rooted, 5) == reference.splits(unrooted, 5)
    assert reference.splits(rooted, 5) == {frozenset({2, 3}), frozenset({2, 3, 4})}
    with pytest.raises(ValueError):
        reference.parse_newick("(a,b,(c,d));", names)


def test_leaf_swap_changes_the_splits():
    adj = gen.random_tree(10, np.random.default_rng(5))
    v = 1 if adj[0][0] != adj[1][0] else 2
    swapped = gen.leaf_swap(adj, 0, v)
    assert reference.splits(swapped, 10) != reference.splits(adj, 10)


@pytest.mark.parametrize("n", [4, 5, 7])
def test_quartet_oracle_matches_brute_force(n):
    rng = np.random.default_rng(n)
    d = rng.random((n, n))
    d = (d + d.T) / 2
    np.fill_diagonal(d, 0)
    adj = gen.random_tree(n, rng)
    got = reference.quartet_costs(adj, d)
    want = brute_force_costs(adj, d)
    assert all(reference.rel_close(g, w, 1e-12) for g, w in zip(got, want))


def test_planted_tree_reaches_the_lower_bound_and_a_swap_does_not():
    rng = np.random.default_rng(6)
    adj = gen.random_tree(16, rng)
    d = gen.tree_metric(adj, 16)
    cost, lo, hi = reference.quartet_costs(adj, d)
    assert reference.rel_close(cost, lo) and hi > lo
    v = 1 if adj[0][0] != adj[1][0] else 2
    swapped_cost, _, _ = reference.quartet_costs(gen.leaf_swap(adj, 0, v), d)
    assert swapped_cost > cost


@pytest.mark.parametrize("codec", sorted(reference.CODECS))
def test_ncd_reference(codec):
    rnd = random.Random(7)
    x = bytes(rnd.choice(b"ACGT") for _ in range(4000))
    y = bytes(rnd.choice(b"ACGT") for _ in range(4000))
    related = x[:3000] + y[:1000]
    assert reference.ncd(x, y, codec) == reference.ncd(y, x, codec)
    # bz2 compresses a short doubled string poorly, so only the order holds for all codecs
    assert reference.ncd(x, x, codec) < reference.ncd(x, related, codec) < reference.ncd(x, y, codec)
    z = reference.CODECS[codec]
    value = (min(z(x + y), z(y + x)) - min(z(x), z(y))) / max(z(x), z(y))
    assert reference.ncd(x, y, codec) == max(value, 0.0)


def test_instances_are_reproducible(tmp_path):
    a = gen.make_instance("score-n96", 3, 1, tmp_path / "a")
    b = gen.make_instance("score-n96", 3, 1, tmp_path / "b")
    c = gen.make_instance("score-n96", 4, 1, tmp_path / "c")
    for name in ("matrix.csv", "planted.nwk", "swapped.nwk"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    assert a["adj"] == b["adj"] and a["adj"] != c["adj"]
    corpus = gen.make_instance("ncd-agreement", 3, 0, tmp_path / "d")
    assert len(corpus["seqs"]) == gen.CORPUS_N
    assert all(len(s) == gen.CORPUS_BYTES for s in corpus["seqs"])
