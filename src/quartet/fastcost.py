"""O(n^2) tree-cost evaluation for distance-backed cost functions.

With C(uv|wx) = d(u,v) + d(w,x), every leaf pair (u,v) contributes d(u,v)
once for each pair {w,x} with uv|wx embedded, so

    C_T = sum_{u<v} d(u,v) * W(u,v),

where W(u,v) counts those pairs. Each internal node p on the u-v path
contributes C(h_p, 2) of them, h_p being the number of leaves behind p's
off-path neighbour. Writing G(p) = sum_k C(n_k(p), 2) over p's three
neighbour directions and H(e) = C(s,2) + C(n-s,2) for an internal edge that
splits s leaves from n-s, C(h_p,2) = G(p) minus the C(.,2) of the two path
directions, so W is an integer tree metric: doubled, an internal edge (a,b)
weighs G(a) + G(b) - 2 H(e) and a leaf edge at p weighs G(p). One rooted
walk gives each node its doubled depth D; then 2 W(u,v) = D(u) + D(v) -
2 D(lca(u,v)). The leaves below each node form a contiguous range in walk
order, so the lca depths fill one block per pair of sibling subtrees: n
blocks that tile the leaf pairs, O(n^2) work in all.

Determinism: W holds exact integers, and the final reduction multiplies d
by W over the upper triangle of the leaf-pair matrix in label order and
sums the products in numpy's fixed pairwise order. The result therefore depends on the
labelled tree alone, never on internal node numbering or walk order, so
isomorphic trees score bit-identically; it does not depend on the thread
count either, as a multithreaded BLAS dot product would.
"""

from __future__ import annotations

import functools

import numpy as np

from .trees import Tree

BACKEND = "numpy"

__all__ = [
    "BACKEND",
    "cost_distance_from_adj",
    "subtree_leaf_counts",
    "tree_cost_fast",
]


def cost_distance_from_adj(adj: list[list[int]], n: int, d: np.ndarray) -> float:
    """C_T of the tree in the search's working state (the inner loop):
    ``adj`` holds the 2n-2 neighbour rows of ``Tree.copy_adjacency()``, in
    any slot order, and ``d`` is the (n, n) distance matrix."""
    m = 2 * n - 2
    root = n
    # Walk the internal nodes from ``root``. A leaf takes the next walk-order
    # position when its parent is expanded, so the leaves below node v fill
    # positions lo[v] : lo[v] + size[v].
    parent = [-1] * m
    parent[root] = root
    size = [1] * n + [0] * (n - 2)
    lo = [0] * m
    pre = []
    stack = [root]
    leaves = 0
    while stack:
        v = stack.pop()
        pre.append(v)
        lo[v] = leaves
        for w in adj[v]:
            if parent[w] < 0:
                parent[w] = v
                if w < n:
                    lo[w] = leaves
                    leaves += 1
                    size[v] += 1
                else:
                    stack.append(w)
    g = [0] * m  # G(p), first over the child directions only
    for v in reversed(pre[1:]):
        s = size[v]
        size[parent[v]] += s
        g[parent[v]] += s * (s - 1) // 2
    dep = [0] * m  # doubled depth D
    # D(lca) over walk positions, each leaf pair in one of its two
    # orientations; float64 holds these integers exactly
    lca = np.zeros((n, n))
    for v in pre:
        pv = parent[v]
        sv = size[v]
        s = n - sv
        g[v] += s * (s - 1) // 2
        if v != root:
            dep[v] = dep[pv] + g[pv] + g[v] - sv * (sv - 1) - s * (s - 1)
        a, b, c = adj[v]
        if a == pv:
            a = c
        elif b == pv:
            b = c
        a0, a1 = lo[a], lo[a] + size[a]
        b0, b1 = lo[b], lo[b] + size[b]
        lca[a0:a1, b0:b1] = dep[v]
        if v == root:
            c0, c1 = lo[c], lo[c] + size[c]
            lca[a0:a1, c0:c1] = dep[v]
            lca[b0:b1, c0:c1] = dep[v]
    leaf_dep = np.array([dep[parent[u]] + g[parent[u]] for u in range(n)], dtype=np.float64)
    pos = np.array(lo[:n])
    # To label order, in place where possible: each n x n temporary is a
    # fresh allocation, which page-faults on every call once it is too large
    # for the allocator to reuse (at n = 256, not at n = 128, under glibc).
    # mode="wrap" lets take write straight into ``out`` ("raise" buffers it).
    lca = lca + lca.T
    lca.take(pos, 0).take(pos, 1, out=lca, mode="wrap")
    lca *= -2.0
    lca += leaf_dep[:, None]
    lca += leaf_dep  # 2 W
    lca *= _upper_triangle(n)
    lca *= d
    return 0.5 * float(lca.sum())


@functools.lru_cache(maxsize=1)
def _upper_triangle(n: int) -> np.ndarray:
    """1.0 on the pairs u < v, 0.0 elsewhere."""
    mask = np.triu(np.ones((n, n)), 1)
    mask.setflags(write=False)
    return mask


def tree_cost_fast(tree: Tree, dm) -> float:
    """C_T for the distance matrix ``dm``; equals the naive scorer up to
    float summation order (<= 1e-9 relative)."""
    d = dm.d if hasattr(dm, "d") else np.asarray(dm, dtype=np.float64)
    if d.shape[0] != tree.n:
        raise ValueError(
            f"tree has {tree.n} leaves but distance matrix is {d.shape[0]}x{d.shape[1]}"
        )
    return cost_distance_from_adj(tree.copy_adjacency(), tree.n, d)


def subtree_leaf_counts(tree: Tree, p: int) -> tuple[int, int, int]:
    """Leaf counts of the three subtrees hanging off internal node ``p``,
    ordered by ascending neighbor id. They always partition the n leaves."""
    if tree.is_leaf(p):
        raise ValueError(f"node {p} is a leaf; subtree counts need an internal node")
    if not p < tree.node_count:
        raise ValueError(f"node {p} out of range")
    adj = tree.adj_array
    out = []
    for root in adj[p]:
        seen = {int(root), p}
        stack = [int(root)]
        cnt = 0
        while stack:
            v = stack.pop()
            if v < tree.n:
                cnt += 1
                continue
            for w in adj[v]:
                w = int(w)
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        out.append(cnt)
    return tuple(out)  # type: ignore[return-value]
