"""Shared helpers and the test-only oracles: tree shapes, exhaustive
enumerations and the literal quartet-embedding checks the program's faster
paths are compared against."""

from typing import Iterator

import numpy as np
import pytest

from quartet.cost import DistanceMatrix, ExplicitCostFunction
from quartet.mutate import _RAND_BY_KIND, KINDS, MutationRecord, _k_cdf, shifted_pmf_normalizer
from quartet.trees import (
    QuartetTopology,
    Tree,
    _bfs_path,
    _replace_neighbor,
    enumerate_quartets,
    topology_from_index,
)


def rng_for(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))


def one_move(tree: Tree, kind: str, rng: np.random.Generator) -> tuple[Tree, MutationRecord | None]:
    """A random simple move of one kind on a copy of ``tree``: the new tree
    and its record, or ``tree`` and None when no move of that kind exists."""
    adj = tree.copy_adjacency()
    rec = _RAND_BY_KIND[KINDS.index(kind)](adj, tree.n, rng)
    return (tree, None) if rec is None else (Tree(adj), rec)


def shifted_pmf(k, k_max: int | None = None):
    """p(k) of the shifted fat-tail mutation-count distribution. With k_max
    given, the tail mass beyond the cap sits on k_max itself."""
    k = np.asarray(k, dtype=np.float64)
    p = 1.0 / ((k + 2.0) * np.log(k + 2.0) ** 2) / shifted_pmf_normalizer()
    if k_max is not None:
        cdf = _k_cdf(k_max)
        top = 1.0 - (cdf[k_max - 2] if k_max >= 2 else 0.0)
        p = np.where(k == k_max, top, np.where(k > k_max, 0.0, p))
    if p.ndim == 0:
        return float(p)
    return p


def sample_k_batch(rng: np.random.Generator, size: int, k_max: int) -> np.ndarray:
    """``size`` draws of ``mutate.sample_k`` at once, from ``rng.random(size)``."""
    u = rng.random(size)
    return np.searchsorted(_k_cdf(k_max), u, side="right").astype(np.int64) + 1


def caterpillar(n: int) -> Tree:
    """The maximally linear shape: a chain of internal nodes, one leaf each,
    two leaves on both chain ends; leaves labeled 0..n-1 along the chain."""
    if n < 4:
        raise ValueError(f"need at least 4 leaves, got n={n}")
    m = 2 * n - 2
    rows: dict[int, list[int]] = {v: [] for v in range(m)}
    ints = list(range(n, m))
    for a, b in zip(ints, ints[1:]):
        rows[a].append(b)
        rows[b].append(a)
    rows[ints[0]] += [0, 1]
    rows[0], rows[1] = [ints[0]], [ints[0]]
    leaf = 2
    for v in ints[1:-1]:
        rows[v].append(leaf)
        rows[leaf] = [v]
        leaf += 1
    rows[ints[-1]] += [leaf, leaf + 1]
    rows[leaf], rows[leaf + 1] = [ints[-1]], [ints[-1]]
    return Tree.from_adjacency(rows)


def all_topologies(n: int) -> list[QuartetTopology]:
    """All 3*C(n,4) canonical quartet topologies over labels 0..n-1."""
    return [topology_from_index(q, idx) for q in enumerate_quartets(n) for idx in range(3)]


def enumerate_all_trees(n: int) -> Iterator[Tree]:
    """Yield every labeled ternary shape on n leaves, (2n-5)!! in total, by
    exhaustive stepwise addition; each shape appears exactly once."""
    if n < 4:
        raise ValueError(f"need at least 4 leaves, got n={n}")

    def grow(adj: list[list[int]], edges: list[tuple[int, int]], leaf: int, nxt: int):
        if leaf == n:
            yield Tree(adj, validate=False)
            return
        for u, v in list(edges):
            a = [row[:] for row in adj]
            w = nxt
            _replace_neighbor(a, u, v, w)
            _replace_neighbor(a, v, u, w)
            a[w] = [u, v, leaf]
            a[leaf][0] = w
            e2 = [e for e in edges if e != (u, v)] + [(u, w), (v, w), (leaf, w)]
            yield from grow(a, e2, leaf + 1, nxt + 1)

    adj0 = [[-1, -1, -1] for _ in range(2 * n - 2)]
    for leaf in range(3):
        adj0[leaf][0] = n
        adj0[n][leaf] = leaf
    yield from grow(adj0, [(0, n), (1, n), (2, n)], 3, n + 1)


def is_consistent(tree: Tree, topo: QuartetTopology) -> bool:
    """Whether ``topo`` is embedded in ``tree``: the path joining its first
    pair must not share a vertex with the path joining its second pair."""
    for lbl in topo.labels:
        if not 0 <= lbl < tree.n:
            raise ValueError(f"label {lbl} not present in tree with n={tree.n}")
    adj = tree.copy_adjacency()
    path_uv = set(_bfs_path(adj, *topo.pair_a))
    return not any(node in path_uv for node in _bfs_path(adj, *topo.pair_b))


def floyd_warshall_leaf_hops(tree: Tree) -> np.ndarray:
    """Leaf-to-leaf path lengths in edges by Floyd-Warshall over all 2n-2
    nodes, independent of the program's tree walks."""
    adj = tree.adj_array
    m = tree.node_count
    h = np.full((m, m), m, dtype=np.int64)
    np.fill_diagonal(h, 0)
    for v in range(m):
        for w in adj[v]:
            if w >= 0:
                h[v, w] = 1
    for k in range(m):
        h = np.minimum(h, h[:, [k]] + h[[k], :])
    return h[: tree.n, : tree.n]


def embedded_quartets(tree: Tree) -> frozenset[QuartetTopology]:
    """The C(n,4) quartet topologies embedded in ``tree``, by the four-point
    condition on hop distances: with unit edge lengths the embedded pairing
    has the strictly smallest sum of within-pair distances."""
    L = floyd_warshall_leaf_hops(tree)
    out = []
    for a, b, c, d in enumerate_quartets(tree.n):
        sums = (L[a, b] + L[c, d], L[a, c] + L[b, d], L[a, d] + L[b, c])
        out.append(topology_from_index((a, b, c, d), sums.index(min(sums))))
    return frozenset(out)


def random_symmetric_matrix(n: int, rng: np.random.Generator) -> DistanceMatrix:
    d = rng.random((n, n))
    d = (d + d.T) / 2.0
    np.fill_diagonal(d, 0.0)
    return DistanceMatrix(d)


def adversarial_five_costs(eps: float) -> ExplicitCostFunction:
    """The 5-item instance whose optimum stays strictly below score 1.

    Labels u,v,w,x,y = 0,1,2,3,4. One topology of the {u,v,w,x} quartet
    costs 1-eps, its siblings cost 0, the four y-topologies compatible with
    the target tree cost 0, everything else costs 1. Bounds: m=0, M=5-eps;
    the best tree reaches S = 4/(5-eps).
    """
    mapping = {topo: 1.0 for topo in all_topologies(5)}
    mapping[QuartetTopology((0, 1), (2, 3))] = 1.0 - eps  # uv|wx
    mapping[QuartetTopology((0, 2), (3, 1))] = 0.0  # uw|xv
    mapping[QuartetTopology((0, 3), (1, 2))] = 0.0  # ux|vw
    mapping[QuartetTopology((3, 4), (0, 1))] = 0.0  # xy|uv
    mapping[QuartetTopology((2, 4), (0, 1))] = 0.0  # wy|uv
    mapping[QuartetTopology((0, 4), (2, 3))] = 0.0  # uy|wx
    mapping[QuartetTopology((1, 4), (2, 3))] = 0.0  # vy|wx
    return ExplicitCostFunction.from_mapping(5, mapping)


def five_leaf_target() -> Tree:
    """(y,((u,v),(w,x))): u,v siblings and w,x siblings, y on the middle."""
    return Tree.from_adjacency(
        {0: [5], 1: [5], 2: [6], 3: [6], 4: [7], 5: [0, 1, 7], 6: [2, 3, 7], 7: [4, 5, 6]}
    )


@pytest.fixture
def rng():
    return rng_for(20240817)
