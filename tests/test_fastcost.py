import math
import time

import numpy as np
import pytest

from quartet.cost import DistanceCostFunction, DistanceMatrix, tree_cost_fast, tree_cost_naive
from quartet.fastcost import BACKEND, cost_distance_from_adj
from quartet.trees import (
    QuartetTopology,
    Tree,
    random_tree,
    tree_from_newick,
    tree_to_newick,
)

from conftest import _bfs_path, embedded_quartets, random_symmetric_matrix, rng_for


def test_zero_matrix_costs_zero(rng):
    dm = DistanceMatrix(np.zeros((7, 7)))
    assert tree_cost_fast(random_tree(7, rng), dm) == 0.0


def test_single_quartet_matches_pair_sum():
    t = Tree.from_adjacency({0: [4], 1: [4], 2: [5], 3: [5], 4: [0, 1, 5], 5: [2, 3, 4]})
    d = np.array(
        [
            [0.0, 1.0, 0.3, 0.8],
            [1.0, 0.0, 0.6, 0.2],
            [0.3, 0.6, 0.0, 2.0],
            [0.8, 0.2, 2.0, 0.0],
        ]
    )
    assert tree_cost_fast(t, DistanceMatrix(d)) == pytest.approx(3.0, abs=1e-15)


def test_fast_matches_naive_oracle_1000_pairs():
    rng = rng_for(42)
    for _ in range(1000):
        n = int(rng.integers(4, 13))
        t = random_tree(n, rng)
        dm = random_symmetric_matrix(n, rng)
        naive = tree_cost_naive(t, DistanceCostFunction(dm))
        fast = tree_cost_fast(t, dm)
        assert abs(fast - naive) / max(1.0, abs(naive)) <= 1e-9


def test_pair_weight_counts_embedded_topologies(rng):
    # with d the indicator of the leaf pair (u,v), C_T is the pair weight
    # W(u,v): the number of pairs {w,x} for which uv|wx is embedded
    for n in range(4, 11):
        t = random_tree(n, rng)
        emb = embedded_quartets(t)
        for u in range(n):
            for v in range(u + 1, n):
                d = np.zeros((n, n))
                d[u, v] = d[v, u] = 1.0
                count = sum((u, v) in (topo.pair_a, topo.pair_b) for topo in emb)
                assert cost_distance_from_adj(t.adj_array, d) == count


def test_cost_is_representation_invariant(rng):
    # the same labeled tree under permuted internal ids, or read back from
    # its Newick text, scores bit-identically
    for _ in range(20):
        n = int(rng.integers(5, 65))
        t = random_tree(n, rng)
        dm = random_symmetric_matrix(n, rng)
        perm = list(range(n)) + [n + int(x) for x in rng.permutation(n - 2)]
        mapping = {
            perm[v]: [perm[int(w)] for w in t.adj_array[v] if w >= 0]
            for v in range(t.node_count)
        }
        t2 = Tree.from_adjacency(mapping)
        names = [f"item{i}" for i in range(n)]
        t3, _ = tree_from_newick(tree_to_newick(t, names), names)
        assert tree_cost_fast(t, dm) == tree_cost_fast(t2, dm) == tree_cost_fast(t3, dm)


def test_dimension_mismatch_rejected(rng):
    with pytest.raises(ValueError):
        tree_cost_fast(random_tree(6, rng), random_symmetric_matrix(7, rng))


@pytest.mark.parametrize("leaves, size", [(5, 6), (6, 5)])
def test_scorer_checks_the_rows_against_the_matrix(rng, leaves, size):
    rows = random_tree(leaves, rng).copy_adjacency()
    d = random_symmetric_matrix(size, rng)
    for call in (lambda: cost_distance_from_adj(rows, d.d), lambda: tree_cost_fast(Tree(rows), d)):
        with pytest.raises(ValueError) as exc:
            call()
        assert str(exc.value) == f"tree has {leaves} leaves but distance matrix is {size}x{size}"


@pytest.mark.parametrize(
    "d,message",
    [
        (np.ones((6, 1)), "must be square"),
        (np.full((6, 6), np.nan), "non-finite"),
        (np.triu(np.ones((6, 6)), 1), "not symmetric"),
    ],
    ids=["column", "nan", "asymmetric"],
)
def test_raw_arrays_get_the_distance_matrix_checks(rng, d, message):
    with pytest.raises(ValueError, match=message):
        tree_cost_fast(random_tree(6, rng), d)


def _node_buckets(tree):
    """Topologies credited to each internal node: one pair split across two
    of its subtrees, the other pair inside the remaining subtree."""
    n = tree.n
    adj = tree.adj_array
    buckets = {}
    for p in tree.internal_nodes:
        sub = {}
        for slot, root in enumerate(adj[p]):
            stack, seen = [int(root)], {int(root), p}
            while stack:
                v = stack.pop()
                if v < n:
                    sub[v] = slot
                    continue
                for w in adj[v]:
                    if int(w) not in seen:
                        seen.add(int(w))
                        stack.append(int(w))
        topos = set()
        leaves = list(range(n))
        for i, u in enumerate(leaves):
            for v in leaves[i + 1 :]:
                if sub[u] == sub[v]:
                    continue
                third = 3 - sub[u] - sub[v]
                inside = [w for w in leaves if sub[w] == third and w not in (u, v)]
                for a_i, w in enumerate(inside):
                    for x in inside[a_i + 1 :]:
                        topos.add(QuartetTopology((u, v), (w, x)))
        buckets[p] = topos
    return buckets


def test_decomposition_buckets_cover_embedded_set(rng):
    # union over internal nodes equals the embedded set; every embedded
    # topology is credited at exactly two nodes (once per sibling pair),
    # and the per-node credited pair costs sum to the tree cost
    for n in (5, 6, 8):
        t = random_tree(n, rng)
        dm = random_symmetric_matrix(n, rng)
        buckets = _node_buckets(t)
        union = set().union(*buckets.values())
        emb = embedded_quartets(t)
        assert union == emb
        for topo in emb:
            assert sum(topo in b for b in buckets.values()) == 2
        # credit d(u,v) at p whenever the (u,v) pair splits at p and the
        # partner pair sits together in the remaining subtree
        total = 0.0
        for p, topos in buckets.items():
            for topo in topos:
                for pair in (topo.pair_a, topo.pair_b):
                    u, v = pair
                    path_counts = _splits_at(t, p, u, v)
                    if path_counts:
                        total += dm.d[u, v]
        assert total == pytest.approx(tree_cost_fast(t, dm), rel=1e-9)


def _splits_at(tree, p, u, v):
    # whether the u-v path passes through p
    return p in _bfs_path(tree.adj_array, u, v)


def test_runtime_scaling_at_most_quadratic():
    # the scorer is O(n^2): doubling n may multiply the scoring time by at
    # most 2^2.3, the margin covering cache and allocation effects
    rng = rng_for(7)
    times = {}
    for n in (128, 256):
        t = random_tree(n, rng)
        dm = random_symmetric_matrix(n, rng)
        adj = t.adj_array
        best = math.inf
        for _ in range(7):
            t0 = time.perf_counter()
            for _ in range(30):
                cost_distance_from_adj(adj, dm.d)
            best = min(best, (time.perf_counter() - t0) / 30)
        times[n] = best
    exponent = math.log2(times[256] / times[128])
    assert exponent <= 2.3, times


def test_backend_reporting():
    assert BACKEND == "numpy"
