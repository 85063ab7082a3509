"""Shared helpers and the test-only oracles: tree shapes, exhaustive
enumerations, the literal quartet-embedding checks the program's faster
paths are compared against, a canonical key over {node: neighbours}
mappings, a breadth-first Newick writer and a record check on walks of its
own that the program's walk-based ones are compared against, a reader of
Graphviz leaf labels, the record-making random moves the samplers in
``mutate`` are checked against draw for draw, the numpy summation the
k-mutation pmf's pinned normalizer was taken from, and the appendix
construction of a mutation path between any two trees, which shows the
5n-16 bound the hill climber's k cap rests on."""

import math
import re
from typing import Iterable, Iterator, Mapping

import numpy as np
import pytest

from quartet.cost import DistanceCostFunction, DistanceMatrix, ExplicitCostFunction
from quartet.mutate import (
    _APPLY,
    _RAND_BY_KIND,
    KINDS,
    MutationRecord,
    _apply_leaf_swap,
    _apply_subtree_swap,
    _apply_transfer,
    _k_cdf,
    apply_record,
    shifted_pmf_normalizer,
)
from quartet.trees import (
    QuartetTopology,
    Tree,
    _check_names,
    _quote_name,
    _replace_neighbor,
    enumerate_quartets,
    topology_from_index,
    trees_equal,
)


def rng_for(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))


def one_move(tree: Tree, kind: str, rng: np.random.Generator) -> tuple[Tree, MutationRecord | None]:
    """A random simple move of one kind on a copy of ``tree``: the new tree
    and its record, or ``tree`` and None when no move of that kind exists."""
    adj = tree.copy_adjacency()
    move = _RAND_BY_KIND[KINDS.index(kind)](adj, tree.n, rng)
    return (tree, None) if move is None else (Tree(adj), MutationRecord(*move))


def pmf_normalizer_by_summation() -> float:
    """The sum of 1/(j ln^2 j) over j >= 3 as ``mutate.shifted_pmf_normalizer``
    was once computed in every process: the partial sum over 3 <= j < 2^20 in
    numpy's pairwise order, plus the Euler-Maclaurin tail beyond it."""
    J = 1 << 20
    j = np.arange(3, J, dtype=np.float64)
    partial = float(np.sum(1.0 / (j * np.log(j) ** 2)))
    lj = math.log(J)
    tail = 1.0 / lj + 1.0 / (2 * J * lj**2) + (lj + 2.0) / (12 * J**2 * lj**3)
    return partial + tail


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


# ---------------------------------------------------------------------- #
# Random simple moves, one helper per step, each returning a record: the
# oracle ``mutate``'s samplers must match draw for draw and slot for slot
# ---------------------------------------------------------------------- #


def oracle_leaf_interchange(adj, n, rng) -> MutationRecord:
    while True:
        u = int(rng.integers(n))
        v = int(rng.integers(n))
        if u != v and adj[u][0] != adj[v][0]:
            _apply_leaf_swap(adj, u, v)
            return MutationRecord("leaf_interchange", (u, v))


def _near(adj, u, w) -> bool:
    """Path distance < 3: equal, adjacent, or sharing a neighbor."""
    ru = adj[u]
    if w in ru:
        return True
    for x in ru:
        if x >= 0 and w in adj[x]:
            return True
    return False


def oracle_subtree_interchange(adj, n, rng) -> MutationRecord | None:
    m = 2 * n - 2
    if n == 4:  # nothing is 3 steps from an internal node
        return None
    while True:
        u = int(rng.integers(m))
        w = int(rng.integers(m))
        if u == w or (u < n and w < n):
            continue
        if u < n:  # keep the internal node in the u role
            u, w = w, u
        if _near(adj, u, w):
            continue
        x, y = _path_ends(adj, u, w)
        _apply_subtree_swap(adj, u, x, y, w)
        return MutationRecord("subtree_interchange", (u, x, y, w))


def _path_ends(adj, u, w) -> tuple[int, int]:
    """(x, y): the nodes after u and before w on the u-w path, from a walk
    out of u that stops once it reaches w."""
    parent = [-1] * len(adj)
    parent[u] = u
    stack = [u]
    while parent[w] < 0:
        v = stack.pop()
        for q in adj[v]:
            if q >= 0 and parent[q] < 0:
                parent[q] = v
                stack.append(q)
    x = w
    while parent[x] != u:
        x = parent[x]
    return x, parent[w]


def oracle_subtree_transfer(adj, n, rng) -> MutationRecord | None:
    """Cut a-s, smooth a, and reattach on an edge with neither end in the
    detached side S or at a, the k-th of those 2(n - l) - 4 edges in (lower
    end, slot) order, l the leaves of S."""
    if n == 4:  # only recreates the same labeled tree
        return None
    while True:
        a = n + int(rng.integers(n - 2))
        s = adj[a][int(rng.integers(3))]
        inside = bytearray(len(adj))
        inside[s] = 1
        leaves = 0
        stack = [s]
        while stack:
            v = stack.pop()
            if v < n:
                leaves += 1
                continue
            for w in adj[v]:
                if w != a and not inside[w]:
                    inside[w] = 1
                    stack.append(w)
        count = 2 * (n - leaves) - 4
        if count == 0:
            continue
        e, f = _kth_edge_outside(adj, a, inside, int(rng.integers(count)))
        b, c = sorted(q for q in adj[a] if q != s)
        _apply_transfer(adj, s, a, b, c, e, f)
        return MutationRecord("subtree_transfer", (s, a, b, c, e, f))


def _kth_edge_outside(adj, a, inside, k) -> tuple[int, int]:
    """The k-th edge (v, w), v < w, with no end in ``inside`` or at a, by v
    and then by w's slot in v's row. The only edge out of S is a-s, so an
    end v outside S and not a has every neighbour outside S."""
    for v, row in enumerate(adj):
        if inside[v] or v == a:
            continue
        for w in row:
            if w > v and w != a:
                if k == 0:
                    return v, w
                k -= 1
    raise AssertionError("fewer transfer edges than counted")


ORACLE_BY_KIND = (oracle_leaf_interchange, oracle_subtree_interchange, oracle_subtree_transfer)


def oracle_simple_mutation(adj, n, rng) -> MutationRecord:
    """One simple move, kind uniform over the three; a kind with no move
    (n = 4) is drawn again."""
    while True:
        rec = ORACLE_BY_KIND[int(rng.integers(3))](adj, n, rng)
        if rec is not None:
            return rec


def _bfs_path(adj, src: int, dst: int) -> list[int]:
    """Vertex path src..dst inclusive (unique in a tree) in neighbour rows
    ``adj``, a list or a {node: neighbours} mapping."""
    if src == dst:
        return [src]
    prev = {src: -1}
    queue = [src]
    while queue:
        nxt = []
        for v in queue:
            for w in adj[v]:
                if w >= 0 and w not in prev:
                    prev[w] = v
                    if w == dst:
                        path = [dst]
                        while path[-1] != src:
                            path.append(prev[path[-1]])
                        path.reverse()
                        return path
                    nxt.append(w)
        queue = nxt
    raise ValueError(f"no path from {src} to {dst}")


def mapping_canonical_key(adjacency: Mapping[int, Iterable[int]], n: int) -> str:
    """Canonical key of the tree given as a {node: neighbours} mapping, in
    which ids below n are leaves and other ids are arbitrary: the oracle for
    ``Tree.canonical_key``, walked from a leaf.

    Each directed edge (p, v) gets the nested-parenthesis encoding of the
    side of v seen from p: one walk from a leaf fills the edges pointing
    away from it, leaves first, and a second pass in walk order fills the
    edges pointing back. The key is the least "a|b" over all edges, with
    a <= b the encodings of the edge's two sides.
    """
    root = next(v for v in adjacency if v < n)
    parent = {root: -1}
    order = [root]
    for v in order:
        for w in adjacency[v]:
            if w not in parent:
                parent[w] = v
                order.append(w)
    enc: dict[tuple[int, int], str] = {}

    def side(p: int, v: int) -> str:
        if v < n:
            return str(v)
        return "(" + ",".join(sorted(enc[v, w] for w in adjacency[v] if w != p)) + ")"

    for v in reversed(order[1:]):
        enc[parent[v], v] = side(parent[v], v)
    for v in order:
        for w in adjacency[v]:
            if w != parent[v]:
                enc[w, v] = side(w, v)
    return min("|".join(sorted((a, enc[w, v]))) for (v, w), a in enc.items() if v < w)


def oracle_tree_to_newick(tree: Tree, names=None) -> str:
    """Newick text rooted at leaf 0's neighbour by a breadth-first walk of
    its own, children in row order: the oracle for ``trees.tree_to_newick``."""
    n = tree.n
    names = _check_names(n, names)
    adj = tree.copy_adjacency()
    root = adj[0][0]
    # children follow their parent in ``order``, so walking it backwards
    # writes every subtree before the clade that holds it, without recursion
    parent = [-1] * len(adj)
    order = [root]
    for v in order:
        if v >= n:
            kids = [w for w in adj[v] if w != parent[v]]
            for w in kids:
                parent[w] = v
            order += kids
    text = [_quote_name(nm) for nm in names] + [""] * (n - 2)
    for v in reversed(order):
        if v >= n:
            text[v] = "(" + ",".join(text[w] for w in adj[v] if w != parent[v]) + ")"
    return text[root] + ";"


_DOT_LEAF = re.compile(r'  n(\d+) \[label="((?:[^"\\]|\\.)*)" shape=box\];\n')


def dot_leaf_labels(dot: str) -> dict[int, str]:
    """Leaf id -> label of each leaf line of ``tree_to_dot`` text whose label
    is a DOT quoted string (any character but ``"`` and ``\\``, or a
    backslash pair), with its backslash escapes undone."""
    return {int(m[1]): re.sub(r"\\(.)", r"\1", m[2], flags=re.S) for m in _DOT_LEAF.finditer(dot)}


def _walk(adj, start: int, avoid: int, stop: int) -> dict[int, int]:
    """Walk out of start, never into avoid, until stop is met or no node is
    left: {node met: the node it was met from}, avoid included."""
    came = {avoid: avoid, start: avoid}
    stack = [start]
    while stack and stop not in came:
        v = stack.pop()
        for q in adj[v]:
            if q >= 0 and q not in came:
                came[q] = v
                stack.append(q)
    return came


def oracle_check_move(adj, kind: str, ops: tuple[int, ...]) -> str | None:
    """Why (kind, ops) is not a simple move on the rows ``adj``, by walks out
    of the move's own nodes; None when it is one: the oracle for
    ``mutate._check_move``, which reads the tree's rooted walk instead."""
    if kind not in _APPLY:
        return f"unknown mutation kind {kind!r}"
    try:
        rows = [adj[q] for q in ops]
    except IndexError:
        rows = None
    if rows is None or min(ops) < 0:  # -1 would index the last row
        return "record names a node the tree does not have"
    if kind == "leaf_interchange":
        ru, rv = rows  # a leaf's row holds one neighbour, and -1 padding
        if len(ru) - ru.count(-1) != 1 or len(rv) - rv.count(-1) != 1:
            return "leaf interchange of a non-leaf"
        if ru[0] == rv[0]:
            return "leaves are siblings"
    elif kind == "subtree_interchange":
        # x after u and y before w on the u-w path, of 3 or more edges: the
        # walk out of x away from u meets w from y
        u, x, y, w = ops
        if x not in rows[0] or w in (u, x) or x == y or _walk(adj, x, u, w).get(w) != y:
            return "interchange record mismatch"
    else:
        # e-f an edge of the tree with neither end at a or on s's side
        s, a, b, c, e, f = ops
        if sorted(rows[1]) != sorted((s, b, c)):
            return f"transfer record mismatch: node {a} has neighbors {rows[1]}"
        if f not in rows[4] or a in (e, f) or e in _walk(adj, s, a, e):
            return "transfer record mismatch"
    return None


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


def overflowing_costs(kind: str) -> ExplicitCostFunction | DistanceCostFunction:
    """Finite costs whose sums overflow. "distances-8": distances in
    [1e306, 1e307] at n = 8, where m = M = inf; "distances-5": distances in
    [1.1e307, 1.3e307] at n = 5, where m and M are finite but every tree
    cost is inf; "explicit-5": explicit costs in [1e307, 1.7e308] at n = 5."""
    if kind == "explicit-5":
        return ExplicitCostFunction(5, rng_for(0).uniform(1e307, 1.7e308, (5, 3)))
    n, lo, hi = {"distances-8": (8, 1e306, 1e307), "distances-5": (5, 1.1e307, 1.3e307)}[kind]
    d = np.triu(rng_for(n).uniform(lo, hi, (n, n)), 1)
    return DistanceCostFunction(DistanceMatrix(d + d.T))


OVERFLOWING = ["distances-8", "distances-5", "explicit-5"]


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


# ---------------------------------------------------------------------- #
# Constructive mutation path (appendix induction)
# ---------------------------------------------------------------------- #

# Abstract ops used by the construction: ("leaf", u, v) swaps two non-sibling
# leaves; ("subleaf", u, w) swaps the subtree hanging at node u with leaf w
# at path distance >= 3. Operands are resolved against the current tree when
# the op is applied, which keeps one op meaningful both on a glued view and
# on the corresponding full tree. The construction works on {node: [neighbours]}
# mappings, since gluing drops nodes.


def _op_record(adj, op) -> MutationRecord:
    """The simple mutation that carries out ``op`` on the tree ``adj``."""
    if op[0] == "leaf":
        return MutationRecord("leaf_interchange", (op[1], op[2]))
    _, u, w = op
    path = _bfs_path(adj, u, w)
    assert len(path) >= 4, f"subtree swap needs distance >= 3, path {path}"
    return MutationRecord("subtree_interchange", (u, path[1], path[-2], w))


def _leaf_nbrs(adj, n, v):
    return sorted(w for w in adj[v] if w < n)


def _end_internals(adj, n):
    return sorted(v for v in adj if v >= n and len(_leaf_nbrs(adj, n, v)) == 2)


def _solve_path(W: dict[int, list[int]], T: dict[int, list[int]], n: int) -> list:
    """Emit ops transforming W into (a tree leaf-label-isomorphic to) T.
    Mutates W; T is never modified."""
    ops: list = []

    def emit(op) -> None:
        rec = _op_record(W, op)  # operands from W's own path, as the samplers take theirs
        _APPLY[rec.kind](W, *rec.operands)
        ops.append(op)

    if mapping_canonical_key(W, n) == mapping_canonical_key(T, n):
        return ops
    leaves = sorted(v for v in W if v < n)
    if len(leaves) == 4:
        target = mapping_canonical_key(T, n)
        for i in range(4):
            for j in range(i + 1, 4):
                u, v = leaves[i], leaves[j]
                (pu,) = W[u]
                (pv,) = W[v]
                if pu == pv:
                    continue
                trial = {a: list(b) for a, b in W.items()}
                _apply_leaf_swap(trial, u, v)
                if mapping_canonical_key(trial, n) == target:
                    emit(("leaf", u, v))
                    return ops
        raise AssertionError("distinct 4-leaf trees always differ by one swap")

    # normalize: an end internal node E whose internal neighbor M carries
    # exactly one leaf
    M = E = lhid = None
    for Y in _end_internals(W, n):
        X = next(w for w in W[Y] if w >= n)
        xl = _leaf_nbrs(W, n, X)
        if len(xl) == 1:
            M, E, lhid = X, Y, xl[0]
            break
    if M is None:
        ends = _end_internals(W, n)
        Y, U = ends[0], ends[1]
        a1, a2 = _leaf_nbrs(W, n, Y)
        emit(("subleaf", U, a1))
        M, E, lhid = Y, U, a2

    # glue {M, l, E} into a composite end node kept under M's id
    Wg = {v: list(nb) for v, nb in W.items() if v not in (E, lhid)}
    slots = [w for w in W[E] if w != M]
    _replace_neighbor(Wg, M, lhid, slots[0])
    _replace_neighbor(Wg, M, E, slots[1])
    for t in slots:
        _replace_neighbor(Wg, t, E, M)

    # target-side contraction
    (N1,) = T[lhid]
    n1_leaves = _leaf_nbrs(T, n, N1)
    fix_swap = None
    if len(n1_leaves) == 2:
        lprime = next(x for x in n1_leaves if x != lhid)
        P = next(w for w in T[N1] if w not in (lhid, lprime))
        Tg = {v: list(nb) for v, nb in T.items() if v not in (lhid, N1)}
        Tg[lprime] = [P]
        _replace_neighbor(Tg, P, N1, lprime)
    else:
        e1 = min(_end_internals(T, n), key=lambda v: min(_leaf_nbrs(T, n, v)))
        p_, q_ = _leaf_nbrs(T, n, e1)
        lprime = p_
        P = next(w for w in T[e1] if w >= n or w not in (p_, q_))
        Tg = {v: list(nb) for v, nb in T.items() if v not in (q_, e1)}
        Tg[lprime] = [P]
        _replace_neighbor(Tg, P, e1, lprime)
        # stand-in: label q_ takes l's place during the recursion
        (pl,) = Tg[lhid]
        _replace_neighbor(Tg, pl, lhid, q_)
        Tg[q_] = Tg.pop(lhid)
        fix_swap = (lhid, q_)

    # Replay the child ops on the unglued tree. A child op naming the
    # composite id M means "the component on M's side of the cut": when its
    # path leaves through the glued-in node E, the physical cut edge is
    # E-slot rather than M-E, so the op is re-anchored at E.
    for op in _solve_path(Wg, Tg, n):
        if op[0] == "subleaf" and op[1] == M and _bfs_path(W, M, op[2])[1] == E:
            op = ("subleaf", E, op[2])
        emit(op)

    # expansion fix-up: route the composite's extra node to l'-position
    zcur = next(w for w in W[M] if w not in (lhid, E))
    pathml = _bfs_path(W, M, lprime)
    if pathml[1] == E:
        if lprime in W[E]:
            other = next(w for w in W[E] if w not in (M, lprime))
            emit(("leaf" if other < n else "subleaf", other, lhid))
        else:
            for op in (("subleaf", M, lprime),
                       ("leaf" if zcur < n else "subleaf", zcur, lprime)):
                emit(op)
    elif zcur != lprime:
        if len(pathml) == 3:  # l' hangs directly on M's third neighbor
            emit(("subleaf", E, lprime))
        else:
            for op in (("subleaf", M, lprime), ("subleaf", E, lprime)):
                emit(op)
    # zcur == lprime: composite already sits at l'-position

    if fix_swap is not None:
        emit(("leaf", *fix_swap))

    assert mapping_canonical_key(W, n) == mapping_canonical_key(T, n), (
        "level did not reach its target"
    )
    return ops


def mutation_path(t0: Tree, t1: Tree) -> list[MutationRecord]:
    """Records transforming t0 into t1 using only leaf swaps and
    subtree-to-leaf swaps; at most max_path_moves(n) = 5n-16 of them.
    Replaying them on t0 yields a tree equal to t1."""
    if t0.n != t1.n:
        raise ValueError(f"trees have different label sets (n={t0.n} vs n={t1.n})")
    W, T = ({v: list(t.neighbors(v)) for v in range(t.node_count)} for t in (t0, t1))
    ops = _solve_path(W, T, t0.n)
    records = []
    adj = t0.copy_adjacency()
    for op in ops:
        rec = _op_record(adj, op)
        apply_record(adj, rec)
        records.append(rec)
    if not trees_equal(Tree(adj, validate=True), t1):  # pragma: no cover
        raise AssertionError("mutation path failed to reach the target tree")
    return records


@pytest.fixture
def rng():
    return rng_for(20240817)
