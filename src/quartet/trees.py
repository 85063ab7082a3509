"""Unrooted ternary leaf-labeled trees and their quartet structure.

A tree over n >= 4 items has n leaves labeled 0..n-1 (node ids equal labels)
and n-2 unlabeled internal nodes with ids n..2n-3, every internal node of
degree 3. The adjacency has one layout: 2n-2 neighbour rows of three slots,
leaf rows holding their single neighbor in slot 0 (-1 elsewhere), internal
rows their three neighbors. A ``Tree`` keeps its rows as frozen tuples, each
internal row sorted ascending; ``Tree.copy_adjacency()`` hands them out as
writable lists, the working state that the moves, the search and the
scorers edit and walk in place, in whatever slot order the moves leave, and
``Tree(rows)`` freezes them again; a pass that only reads a ``Tree`` reads
its own rows. The row count fixes n: every pass reads n from it and takes
no n beside the rows. Passes that compute on numbers (hop matrices, lca
blocks, quartet slabs) build numpy arrays from the rows.
``_edges`` lists the edges, by lower end and then by slot.

One walk serves every pass over a whole tree. ``_rooted_walk`` roots the
rows at an internal node, node n unless told otherwise, and gives every node
its parent, edge depth, leaf count and walk-order range of the leaves below
it; ``_tree_path`` follows its parents and depths from two nodes to the path
between them, and ``_move_path`` from a simple move's operands to the path
that the move's record check and its cost change (``fastcost``) read.
``Tree._validate`` finds a disconnected input as a node the walk leaves
without a parent, ``_canonical_key`` encodes each edge's two sides over the
walk's order, and the Newick writer roots the walk at leaf 0's neighbour and
writes each clade after the clades below it. Leaf-pair path lengths come
from the walk and one fill: ``_lca_fill`` takes the walk and any integer
node depth D and returns D(u) + D(v) - 2 D(lca(u, v)) for every leaf pair,
by tiling D(lca) over sibling-subtree blocks. With edge counts for D that is
``hop_distances``; ``fastcost`` passes the doubled quartet weights of its
O(n^2) scorer and keeps the walk for its move deltas and proposals.

Quartet topologies are canonical pairings uv|wx of four distinct labels; a
topology is embedded in a tree when the u-v and w-x paths share no vertex.
Each quartet has exactly one embedded topology, so trees are identified by
their embedded-topology sets; ``canonical_key`` gives an equivalent string
form used for fast equality and hashing.

Text: Newick here and Nexus in ``matrix_io`` are read through one tokenizer,
``_tokens``. A label is a bare word or is quoted in single quotes, with
``''`` for a quote inside; a bare word ends at a blank, at the format's
punctuation, at ``'`` or at ``[``. Bracketed comments, which may nest, are
skipped anywhere, so Newick input may carry ``[&R]`` or ``[&&NHX...]``
annotations. Item names, whether written to Newick, Graphviz or a matrix,
pass one check (``_check_names``): as many as the items, unique, non-empty.
"""

from __future__ import annotations

import functools
import re
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

__all__ = [
    "QuartetTopology",
    "Tree",
    "enumerate_quartets",
    "hop_distances",
    "random_tree",
    "tree_from_newick",
    "tree_to_dot",
    "tree_to_newick",
    "trees_equal",
]


# ---------------------------------------------------------------------- #
# Quartet topologies
# ---------------------------------------------------------------------- #


@dataclass(frozen=True)
class QuartetTopology:
    """Canonical pairing ``uv|wx`` of four distinct leaf labels.

    Canonical form: each pair sorted ascending, and ``pair_a`` is the pair
    containing the smallest of the four labels, so uv|wx == wx|uv == vu|xw.
    """

    pair_a: tuple[int, int]
    pair_b: tuple[int, int]

    def __init__(self, pair_a: Iterable[int], pair_b: Iterable[int]):
        a = tuple(sorted(int(x) for x in pair_a))
        b = tuple(sorted(int(x) for x in pair_b))
        if len(a) != 2 or len(b) != 2:
            raise ValueError("each side of a quartet topology needs two labels")
        if len({*a, *b}) != 4:
            raise ValueError(f"quartet labels must be distinct, got {a} | {b}")
        if b[0] < a[0]:
            a, b = b, a
        object.__setattr__(self, "pair_a", a)
        object.__setattr__(self, "pair_b", b)

    @property
    def labels(self) -> tuple[int, int, int, int]:
        """The four labels sorted ascending."""
        return tuple(sorted(self.pair_a + self.pair_b))  # type: ignore[return-value]

    @property
    def topo_index(self) -> int:
        """Index 0..2 of this pairing within its quartet.

        For sorted labels a<b<c<d: 0 is ab|cd, 1 is ac|bd, 2 is ad|bc,
        i.e. the index is the position of the smallest label's partner
        among b, c, d.
        """
        return self.labels.index(self.pair_a[1]) - 1

    def __str__(self) -> str:
        return f"{self.pair_a[0]},{self.pair_a[1]}|{self.pair_b[0]},{self.pair_b[1]}"


def topology_from_index(quartet: Sequence[int], topo_index: int) -> QuartetTopology:
    """Inverse of ``QuartetTopology.topo_index``: the smallest label paired
    with the other labels' ``topo_index``-th, in ascending order."""
    a, b, c, d = sorted(quartet)
    if topo_index not in (0, 1, 2):
        raise ValueError(f"topology index must be 0, 1 or 2, got {topo_index}")
    rest = [b, c, d]
    return QuartetTopology((a, rest.pop(topo_index)), rest)


def enumerate_quartets(n: int) -> Iterator[tuple[int, int, int, int]]:
    """Yield all C(n,4) label quartets in colex order (the rank order used
    throughout the cost machinery)."""
    if n < 4:
        raise ValueError(f"need at least 4 items, got n={n}")
    for d in range(3, n):
        for c in range(2, d):
            for b in range(1, c):
                for a in range(0, b):
                    yield (a, b, c, d)


# ---------------------------------------------------------------------- #
# Tree type
# ---------------------------------------------------------------------- #


class Tree:
    """Immutable unrooted ternary tree; see module docstring for the layout."""

    __slots__ = ("n", "_rows", "_canon")

    def __init__(self, adj, *, validate: bool = True):
        if len(adj) % 2 != 0:
            raise ValueError(f"adjacency needs 2n-2 rows, an even count, got {len(adj)} rows")
        for v, row in enumerate(adj):
            if len(row) != 3:
                raise ValueError(f"node {v} has {len(row)} slots, expected 3")
        n = (len(adj) + 2) // 2
        self.n = n
        self._rows = tuple(map(tuple, adj[:n])) + tuple(tuple(sorted(row)) for row in adj[n:])
        self._canon: str | None = None
        if validate:
            self._validate()

    @classmethod
    def from_adjacency(cls, adjacency: Mapping[int, Iterable[int]]) -> "Tree":
        """Build from a node-id -> neighbor-ids mapping (leaves 0..n-1)."""
        m = len(adjacency)
        n = (m + 2) // 2
        adj = [[-1, -1, -1] for _ in range(m)]
        for v, nbrs in adjacency.items():
            nbrs = sorted(int(x) for x in nbrs)
            if not 0 <= v < m:
                raise ValueError(f"node id {v} out of range for {m} nodes")
            want = 1 if v < n else 3
            if len(nbrs) != want:
                raise ValueError(
                    f"node {v} has degree {len(nbrs)}, expected {want} "
                    f"({'leaf' if v < n else 'internal'})"
                )
            adj[v][: len(nbrs)] = nbrs
        return cls(adj, validate=True)

    def _validate(self) -> None:
        n, rows = self.n, self._rows
        if n < 4:
            raise ValueError(f"need at least 4 leaves, got n={n}")
        m = 2 * n - 2
        for v, row in enumerate(rows):
            nbrs = [x for x in row if x >= 0]
            want = 1 if v < n else 3
            if len(nbrs) != want:
                raise ValueError(f"node {v} has degree {len(nbrs)}, expected {want}")
            if v < n and row[1:] != (-1, -1):
                raise ValueError(f"leaf {v} must hold its neighbour in slot 0, -1 in the others")
            if len(set(nbrs)) != len(nbrs):
                raise ValueError(f"node {v} has a repeated neighbor")
            for w in nbrs:
                if not 0 <= w < m or w == v:
                    raise ValueError(f"node {v} has invalid neighbor {w}")
                if v not in rows[w]:
                    raise ValueError(f"edge {v}-{w} is not symmetric")
        # Every row now holds its degree in distinct, symmetric neighbours, so
        # the n + 3(n-2) row entries name each edge twice: 2n-3 = |V|-1 edges.
        # Connected with that many edges means acyclic; every internal row
        # holds three valid neighbours, so the walk ends.
        if min(_rooted_walk(rows)[0]) < 0:
            raise ValueError("tree is not connected")

    # -- basic queries ---------------------------------------------------

    @property
    def leaf_count(self) -> int:
        return self.n

    @property
    def node_count(self) -> int:
        return 2 * self.n - 2

    @property
    def leaves(self) -> range:
        return range(self.n)

    @property
    def internal_nodes(self) -> range:
        return range(self.n, 2 * self.n - 2)

    def neighbors(self, v: int) -> tuple[int, ...]:
        if not 0 <= v < self.node_count:
            raise ValueError(f"node {v} out of range")
        return tuple(x for x in self._rows[v] if x >= 0)

    @property
    def adj_array(self) -> np.ndarray:
        """The rows as a read-only (2n-2, 3) int32 array, built on each call;
        -1 pads leaf rows."""
        adj = np.array(self._rows, dtype=np.int32)
        adj.setflags(write=False)
        return adj

    def copy_adjacency(self) -> list[list[int]]:
        """The writable working state: a fresh list of 2n-2 neighbour lists
        (leaf rows ``[p, -1, -1]``, internal rows sorted ascending)."""
        return list(map(list, self._rows))

    # -- identity ----------------------------------------------------------

    def canonical_key(self) -> str:
        """Representation-independent identity string.

        Minimum over all edge rootings of the nested-parenthesis encoding,
        so two trees get the same key iff they are isomorphic as
        leaf-labeled trees (internal ids ignored).
        """
        if self._canon is None:
            self._canon = _canonical_key(self._rows)
        return self._canon

    def __repr__(self) -> str:
        return f"Tree(n={self.n})"


def trees_equal(t1: Tree, t2: Tree) -> bool:
    """True iff the trees embed identical quartet-topology sets.

    Equivalent to leaf-labeled isomorphism, decided via canonical keys.
    """
    if t1.n != t2.n:
        raise ValueError(f"trees have different label sets (n={t1.n} vs n={t2.n})")
    return t1.canonical_key() == t2.canonical_key()


def _canonical_key(rows: Sequence[Sequence[int]]) -> str:
    """Canonical key of the tree in neighbour rows.

    Each directed edge gets the nested-parenthesis encoding of the side it
    points to. On the walk from ``_rooted_walk``, the sides below each node
    fill leaves first (reversed ``pre``), then the sides above it in walk
    order. The key is the least "a|b" over the 2n-3 edges, with a <= b the
    encodings of the edge's two sides, so no rooting shows in it.
    """
    n = (len(rows) + 2) // 2
    parent, _, _, _, pre = _rooted_walk(rows)
    down = [str(v) for v in range(n)] + [""] * (n - 2)  # v's side of v-parent[v]
    for v in reversed(pre[1:]):
        p = parent[v]
        down[v] = "(" + ",".join(sorted([down[w] for w in rows[v] if w != p])) + ")"
    up = [""] * (2 * n - 2)  # parent[v]'s side of v-parent[v]
    for v in pre:
        p = parent[v]
        sides = [up[v] if w == p else down[w] for w in rows[v]]
        for i, w in enumerate(rows[v]):
            if w != p:
                a, b = sides[i - 2], sides[i - 1]  # the other two slots
                up[w] = f"({a},{b})" if a <= b else f"({b},{a})"
    return min(f"{a}|{b}" if a <= b else f"{b}|{a}" for a, b in zip(down, up) if b)


# ---------------------------------------------------------------------- #
# Generation
# ---------------------------------------------------------------------- #


def random_tree(n: int, rng) -> Tree:
    """Random labeled ternary tree by stepwise leaf addition.

    Starts from the star on leaves 0,1,2 and attaches each next leaf by
    splitting an edge chosen uniformly at random, which makes every labeled
    shape reachable (in fact uniformly distributed). Each edge is drawn by
    ``rng.integers(edge count)``: a ``np.random.Generator``, or the search's
    ``mutate._Draws``, which gives the same values.
    """
    if n < 4:
        raise ValueError(f"need at least 4 leaves, got n={n}")
    m = 2 * n - 2
    adj = [[-1, -1, -1] for _ in range(m)]
    center = n
    for leaf in range(3):
        adj[leaf][0] = center
        adj[center][leaf] = leaf
    edges = [(0, center), (1, center), (2, center)]
    next_internal = n + 1
    for leaf in range(3, n):
        u, v = edges[int(rng.integers(len(edges)))]
        w = next_internal
        next_internal += 1
        _replace_neighbor(adj, u, v, w)
        _replace_neighbor(adj, v, u, w)
        adj[w] = [u, v, leaf]
        adj[leaf][0] = w
        edges.remove((u, v))
        edges.extend([(u, w), (v, w), (leaf, w)])
    return Tree(adj, validate=False)


def _replace_neighbor(adj, v: int, old: int, new: int) -> None:
    """In neighbour rows ``adj`` (a list, or a {node: list} mapping), make
    ``new`` take the slot of ``old`` in row v."""
    row = adj[v]
    try:
        row[row.index(old)] = new
    except ValueError:
        raise ValueError(f"node {v} has no neighbor {old}") from None


# ---------------------------------------------------------------------- #
# Paths, distances, consistency
# ---------------------------------------------------------------------- #


def _rooted_walk(adj: Sequence[Sequence[int]], root: int | None = None) -> tuple[list[int], ...]:
    """Walk the internal nodes of the 2n-2 rows ``adj`` from the internal
    node ``root``, node n by default: (parent, depth, size, lo, pre).

    ``parent[root]`` is root itself, ``depth[v]`` counts the edges from root
    to v, ``size[v]`` the leaves below v, and ``pre`` lists the internal nodes
    in walk order. A leaf takes the next walk-order position when its parent
    is expanded, so the leaves below node v fill positions lo[v] : lo[v] +
    size[v]."""
    m = len(adj)
    n = (m + 2) // 2
    if root is None:
        root = n
    parent = [-1] * m
    parent[root] = root
    depth = [0] * m
    size = [1] * n + [0] * (n - 2)
    lo = [0] * m
    pre = []
    stack = [root]
    leaves = 0
    while stack:
        v = stack.pop()
        pre.append(v)
        lo[v] = leaves
        dw = depth[v] + 1
        for w in adj[v]:
            if parent[w] < 0:
                parent[w] = v
                depth[w] = dw
                if w < n:
                    lo[w] = leaves
                    leaves += 1
                    size[v] += 1
                else:
                    stack.append(w)
    for v in reversed(pre[1:]):
        size[parent[v]] += size[v]
    return parent, depth, size, lo, pre


def _tree_path(parent: list[int], depth: list[int], a: int, b: int) -> list[int]:
    """The nodes on the tree path from a to b, both included, from the
    parents and depths of a ``_rooted_walk``."""
    up, down = [a], [b]
    while depth[a] > depth[b]:
        a = parent[a]
        up.append(a)
    while depth[b] > depth[a]:
        b = parent[b]
        down.append(b)
    while a != b:
        a = parent[a]
        b = parent[b]
        up.append(a)
        down.append(b)
    down.pop()
    up.extend(reversed(down))
    return up


def _move_path(parent: list[int], depth: list[int], kind: str, ops: tuple[int, ...]) -> list[int]:
    """The path of a simple move (``MutationRecord`` kind and operands) from a
    ``_rooted_walk``'s parents and depths: u to w for an interchange; for a
    transfer, a to the nearer end of e-f and on to the farther one."""
    if kind != "subtree_transfer":
        return _tree_path(parent, depth, ops[0], ops[-1])
    _, a, _, _, e, f = ops
    path = _tree_path(parent, depth, a, e)
    if path[-2] != f:
        path.append(f)
    return path


def _lca_fill(walk, depth) -> np.ndarray:
    """D(u) + D(v) - 2 D(lca(u, v)) off the diagonal, in label order: the
    leaf-pair path lengths of the tree metric with integer node depths
    ``depth`` from the root of ``walk``. A node's children fill consecutive
    walk-order ranges, so the lca depths tile the leaf pairs with one block
    per child that is not its parent's last, its range against the rest of
    its parent's: n - 1 blocks in all."""
    parent, _, size, lo, _ = walk
    n = (len(parent) + 2) // 2
    hi = [a + b for a, b in zip(lo, size)]
    # D(lca) over walk positions, each leaf pair in one of its two orientations
    out = np.zeros((n, n))
    for v, p in enumerate(parent):
        if hi[v] < hi[p]:
            out[lo[v] : hi[v], hi[v] : hi[p]] = depth[p]
    leaf_dep = np.array(depth[:n], dtype=np.float64)
    pos = np.array(lo[:n])
    # To label order, in place where possible: each n x n temporary is a
    # fresh allocation, which page-faults on every call once it is too large
    # for the allocator to reuse (at n = 256, not at n = 128, under glibc).
    # mode="wrap" lets take write straight into ``out`` ("raise" buffers it).
    out = out + out.T
    out.take(pos, 0).take(pos, 1, out=out, mode="wrap")
    out *= -2.0
    out += leaf_dep[:, None]
    out += leaf_dep
    return out


def _adj_of(tree_or_adj) -> Sequence[Sequence[int]]:
    """Neighbour rows of a ``Tree`` (its own, to be read only) or rows as
    given."""
    return tree_or_adj._rows if isinstance(tree_or_adj, Tree) else tree_or_adj


def _edges(rows: Sequence[Sequence[int]]) -> list[tuple[int, int]]:
    """The edges (v, w), v < w, of neighbour rows by lower end v, then by
    v's slot: leaf v's one edge (to its slot 0) is edge v."""
    n = (len(rows) + 2) // 2
    inner = [(v, w) for v in range(n, len(rows)) for w in rows[v] if w > v]
    return [(v, rows[v][0]) for v in range(n)] + inner


def hop_distances(tree_or_adj) -> np.ndarray:
    """Leaf-to-leaf path lengths in edges, as an (n, n) int32 matrix, of a
    ``Tree`` or of neighbour rows: the lca fill on edge depths."""
    walk = _rooted_walk(_adj_of(tree_or_adj))
    out = _lca_fill(walk, walk[1]).astype(np.int32)  # walk[1]: edge depths
    np.fill_diagonal(out, 0)
    return out


def pick_embedded(hop_sums, choices) -> np.ndarray:
    """Per quartet, the entry of ``choices`` (indexed by topology index) for
    its embedded topology. ``hop_sums`` are the three pairings' hop-distance
    sums from ``quartet_pair_sums``; by the four-point condition the embedded
    pairing has the strictly smallest one and the other two are equal, so
    s0 < s1 holds iff pairing 0 is embedded, and otherwise s1 < s2 iff
    pairing 1 is."""
    s0, s1, s2 = hop_sums
    c0, c1, c2 = choices
    return np.where(s0 < s1, c0, np.where(s1 < s2, c1, c2))


# entries per block of ``quartet_pair_sums``: a block's indices, sums and
# within-triple entries (3 x 128 KiB) stay in a 2 MiB L2 cache from the
# gather to the addition
_PAIR_SUM_BLOCK = 1 << 14


def quartet_pair_sums(M: np.ndarray) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """For x = 3..n-1, the slab of quartets (a, b, c, x) with largest label
    x, in colex rank order: per quartet the sums M[a,b] + M[c,x],
    M[a,c] + M[b,x] and M[a,x] + M[b,c] of the symmetric (n, n) matrix
    ``M`` over its pairings with topology index 0, 1 and 2, in the dtype of
    ``M``. The slabs follow each other in colex order too, so concatenated
    they cover all C(n,4) quartets as ``enumerate_quartets`` lists them, one
    slab of memory at a time. Every pass over all quartets runs on them.

    The three arrays it yields are views of three buffers that the next slab
    overwrites: copy them to keep them. Slab x holds the first C(x,3) of
    the colex triples of 0..n-2 (``_colex_triples``), a prefix of the last
    slab's, so the within-triple entries M[a,b], M[a,c] and M[b,c] are
    gathered once, for the last slab, and the buffers are sized for it. A
    slab then allocates nothing: block by block, a gather from row x of
    ``M`` writes straight into a buffer (``take`` with ``mode="wrap"``,
    which copies no output where "raise" does; the colex labels are in
    range) and the within-triple entries are added in place while both are
    in cache. Each sum has the same two operands however the slab is
    blocked, so the sums are bit for bit those of one whole-slab addition."""
    n = len(M)
    a, b, c = _colex_triples(n - 1)
    mab, mac, mbc = M[a, b], M[a, c], M[b, c]
    K = len(a)
    s0, s1, s2 = np.empty(K, M.dtype), np.empty(K, M.dtype), np.empty(K, M.dtype)
    k = 0
    for x in range(3, n):
        k += (x - 1) * (x - 2) // 2  # C(x,3) = C(x-1,3) + C(x-1,2)
        take = M[x].take
        for lo in range(0, k, _PAIR_SUM_BLOCK):
            hi = min(lo + _PAIR_SUM_BLOCK, k)
            out = s0[lo:hi]
            take(c[lo:hi], None, out, "wrap")
            out += mab[lo:hi]
            out = s1[lo:hi]
            take(b[lo:hi], None, out, "wrap")
            out += mac[lo:hi]
            out = s2[lo:hi]
            take(a[lo:hi], None, out, "wrap")
            out += mbc[lo:hi]
        yield s0[:k], s1[:k], s2[:k]


@functools.lru_cache(maxsize=1)
def _colex_triples(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Label arrays (a, b, c) of all 3-subsets a < b < c of 0..n-1 in colex
    rank order a + C(b,2) + C(c,3), read-only; the triples of 0..k-1 are
    their first C(k,3) rows. They are ``np.intp``, the index type that
    ``take`` would otherwise convert them to on every call."""
    labels = np.arange(n, dtype=np.intp)
    pair_starts = labels * (labels - 1) // 2  # C(b,2): rank of the first pair with top b
    triple_starts = pair_starts * (labels - 2) // 3  # C(c,3)
    pb = np.repeat(labels, labels)
    pa = np.arange(len(pb)) - pair_starts[pb]
    c = np.repeat(labels, pair_starts)
    pair = np.arange(len(c)) - triple_starts[c]  # colex rank of (a, b)
    out = (pa[pair], pb[pair], c)
    for arr in out:
        arr.setflags(write=False)
    return out  # type: ignore[return-value]


# ---------------------------------------------------------------------- #
# Serialization (presentation-only rootings)
# ---------------------------------------------------------------------- #


def tree_to_newick(tree: Tree, names: Sequence[str] | None = None) -> str:
    """Newick string rooted (for presentation only) at leaf 0's neighbor,
    each clade's children in the order of its row."""
    n = tree.n
    names = _check_names(n, names)
    rows = tree._rows
    root = rows[0][0]
    parent, _, _, _, pre = _rooted_walk(rows, root)
    text = [_quote_name(nm) for nm in names] + [""] * (n - 2)
    # the walk lists every clade before the clades below it
    for v in reversed(pre):
        text[v] = "(" + ",".join(text[w] for w in rows[v] if w != parent[v]) + ")"
    return text[root] + ";"


def tree_from_newick(
    text: str, names: Sequence[str] | None = None
) -> tuple[Tree, list[str]]:
    """Parse a Newick tree into the unrooted ternary representation.

    Branch lengths and internal labels are read and discarded, and so are
    bracketed comments; the closing ';' may be left out. A rooted binary
    tree (degree-2 root) is unrooted by smoothing the root. Leaf labels must
    be non-empty and unique. Syntax errors give the character offset. Each
    leaf is labelled by its position in ``names``, whose set must match the
    tree's leaf set exactly; without ``names``, in the sorted leaf names.

    Returns (tree, leaf names by label).
    """
    nodes, leaves = _parse_newick_topology(text)
    internal_ids = sorted(nodes.keys() - leaves.values())
    # smooth any degree-2 nodes (rooted input)
    for v in list(internal_ids):
        if len(nodes[v]) == 2:
            a, b = sorted(nodes[v])
            nodes[a] = [x for x in nodes[a] if x != v] + [b]
            nodes[b] = [x for x in nodes[b] if x != v] + [a]
            del nodes[v]
            internal_ids.remove(v)
    for v in internal_ids:
        if len(nodes[v]) != 3:
            raise ValueError(
                f"internal node of degree {len(nodes[v])}: only ternary trees "
                "(binary rooted or trifurcating unrooted) are supported"
            )
    n = len(leaves)
    if n < 4:
        raise ValueError(f"need at least 4 leaves, got {n}")
    if names is None:
        names = sorted(leaves)
    else:
        names = list(names)
        if sorted(names) != sorted(leaves):
            missing = sorted(set(names) - set(leaves))
            extra = sorted(set(leaves) - set(names))
            raise ValueError(
                f"tree leaves do not match expected names; missing={missing} extra={extra}"
            )
    relabel = {leaves[nm]: label for label, nm in enumerate(names)}
    relabel.update((v, new_id) for new_id, v in enumerate(internal_ids, start=n))
    adjacency = {relabel[v]: [relabel[w] for w in nbrs] for v, nbrs in nodes.items()}
    return Tree.from_adjacency(adjacency), names


def _parse_newick_topology(text: str):
    """Adjacency lists by node id, and leaf ids by name in input order. Ids
    count up as nodes complete: a leaf when its label is read, a clade at
    its ')'."""
    nodes: dict[int, list[int]] = {}
    leaves: dict[str, int] = {}
    open_clades: list[list[int]] = []  # the finished children of each open '('
    # what may come next: "clade" (after '(' or ','), "label" (after ')'),
    # "length" (after a label), "number" (after ':'), "sep", "end" (after ';')
    expect = "clade"
    for tok, pos, quoted in _tokens(text, "(),:;"):
        sym = tok if not quoted and tok in "(),:;" else None
        if expect == "clade" and sym == "(":
            open_clades.append([])
        elif expect == "clade":
            if sym is not None or not tok:
                raise ValueError(f"empty leaf label at position {pos}")
            if tok in leaves:
                raise ValueError(f"duplicate leaf name {tok!r} at position {pos}")
            done = leaves[tok] = len(nodes)
            nodes[done] = []
            expect = "length"
        elif expect == "number":
            try:
                if quoted:
                    raise ValueError
                float(tok)  # also rejects punctuation
            except ValueError:
                raise ValueError(f"bad branch length {tok!r} at position {pos}") from None
            expect = "sep"
        elif sym is None and expect == "label":
            expect = "length"  # internal label or support value, discarded
        elif sym == ":" and expect in ("label", "length"):
            expect = "number"
        elif sym == "," and open_clades:
            open_clades[-1].append(done)
            expect = "clade"
        elif sym == ")" and open_clades:
            children = open_clades.pop() + [done]
            done = len(nodes)
            nodes[done] = children
            for child in children:
                nodes[child].append(done)
            expect = "label"
        elif sym == ";" and not open_clades and expect != "end":
            expect = "end"
        else:
            raise ValueError(f"unexpected {tok!r} at position {pos}")
    if open_clades or expect in ("clade", "number"):
        raise ValueError(f"unexpected end of Newick input at position {len(text)}")
    return nodes, leaves


class _LexError(ValueError):
    """Malformed text at character offset ``pos``."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} at position {pos}")
        self.pos = pos


_BLANKS = re.compile(r"\s*")
_QUOTED = re.compile(r"'([^']*(?:''[^']*)*)'(?!')")
_BRACKETS = re.compile(r"[\[\]]")


def _tokens(text: str, punct: str) -> Iterator[tuple[str, int, bool]]:
    """Yield (token, character offset, quoted) for each token of Newick or
    Nexus text.

    A quoted label is one token, with ``''`` read as one quote. Each
    character of ``punct`` is a token of its own. A bare word ends at a
    blank, at a ``punct`` character, at ``'`` or at ``[``. Bracketed
    comments, which may nest, are dropped; one left open runs to the end of
    the text."""
    word = re.compile(rf"[^\s'\[{re.escape(punct)}]+")
    i = _BLANKS.match(text).end()
    while i < len(text):
        ch = text[i]
        if ch == "[":
            depth = 0
            for m in _BRACKETS.finditer(text, i):
                depth += 1 if m.group() == "[" else -1
                if depth == 0:
                    i = m.end()
                    break
            else:
                i = len(text)
        elif ch == "'":
            m = _QUOTED.match(text, i)
            if m is None:
                raise _LexError("unterminated quoted label", i)
            yield m.group(1).replace("''", "'"), i, True
            i = m.end()
        elif ch in punct:
            yield ch, i, False
            i += 1
        else:
            m = word.match(text, i)
            yield m.group(), i, False
            i = m.end()
        i = _BLANKS.match(text, i).end()


def tree_to_dot(tree: Tree, names: Sequence[str] | None = None) -> str:
    """Graphviz source; internal nodes are rendered k1..k(n-2). Leaf labels
    are DOT quoted strings, with each ``\\`` and ``"`` escaped by a backslash."""
    names = _check_names(tree.n, names)
    lines = ["graph tree {", "  node [shape=circle];"]
    for v in tree.leaves:
        label = names[v].replace("\\", "\\\\").replace('"', '\\"')
        lines.append(f'  n{v} [label="{label}" shape=box];')
    for j, v in enumerate(tree.internal_nodes, start=1):
        lines.append(f'  n{v} [label="k{j}"];')
    lines += [f"  n{v} -- n{w};" for v, w in _edges(tree._rows)]
    lines.append("}")
    return "\n".join(lines) + "\n"


class _CellError(ValueError):
    """A check on n items that failed at the cell [i, j] of their n x n
    table, ``cell``; a name check fails at (k, k) for the k-th name."""

    def __init__(self, message: str, cell: tuple[int, int]):
        super().__init__(message)
        self.cell = cell


def _check_names(n: int, names: Iterable[str] | None) -> list[str]:
    """The n item names as strings, "0".."n-1" when ``names`` is None;
    raises ValueError unless there are n of them, unique and non-empty. A
    duplicate fails at the first name that repeats an earlier one."""
    if names is None:
        return [str(i) for i in range(n)]
    names = [str(x) for x in names]
    if len(names) != n:
        raise ValueError(f"{len(names)} names for {n} items")
    if len(set(names)) != n:
        dup = sorted(nm for nm, k in Counter(names).items() if k > 1)
        k = next(k for k, nm in enumerate(names) if nm in names[:k])
        raise _CellError(f"item names must be unique, got duplicates {dup[:3]}", (k, k))
    if "" in names:
        raise ValueError(f"item names must not be empty, got one at position {names.index('')}")
    return names


def _quote_name(name: str) -> str:
    if name and not any(ch in "(),:;'\"[]" or ch.isspace() for ch in name):
        return name
    return "'" + name.replace("'", "''") + "'"
