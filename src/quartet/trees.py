"""Unrooted ternary leaf-labeled trees and their quartet structure.

A tree over n >= 4 items has n leaves labeled 0..n-1 (node ids equal labels)
and n-2 unlabeled internal nodes with ids n..2n-3, every internal node of
degree 3. The adjacency has two layouts, both with three slots per node: leaf
rows hold their single neighbor in slot 0 (-1 elsewhere), internal rows their
three neighbors.

* Inside a ``Tree`` it is frozen storage, a read-only (2n-2, 3) int32 array
  (``Tree.adj_array``) with each internal row sorted ascending.
* The writable working state is a list of 2n-2 neighbour lists, the layout
  of ``adj_array.tolist()``, from ``Tree.copy_adjacency()``. The moves, the
  search, ``mutation_path`` and the scorers edit and walk these rows in
  place, in whatever slot order the moves leave; ``Tree(rows)`` freezes them
  again. Passes that compute on numbers (hop matrices, lca blocks, quartet
  slabs) build numpy arrays from the rows.

Quartet topologies are canonical pairings uv|wx of four distinct labels; a
topology is embedded in a tree when the u-v and w-x paths share no vertex.
Each quartet has exactly one embedded topology, so trees are identified by
their embedded-topology sets; ``canonical_key`` gives an equivalent string
form used for fast equality and hashing.
"""

from __future__ import annotations

import functools
import math
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
        i.e. the index names the partner of the smallest label.
        """
        a, b, c, d = self.labels
        partner = self.pair_a[1]
        return 0 if partner == b else (1 if partner == c else 2)

    def __str__(self) -> str:
        return f"{self.pair_a[0]},{self.pair_a[1]}|{self.pair_b[0]},{self.pair_b[1]}"


def topology_from_index(quartet: Sequence[int], topo_index: int) -> QuartetTopology:
    """Inverse of ``QuartetTopology.topo_index`` for a sorted 4-tuple."""
    a, b, c, d = sorted(quartet)
    if topo_index == 0:
        return QuartetTopology((a, b), (c, d))
    if topo_index == 1:
        return QuartetTopology((a, c), (b, d))
    if topo_index == 2:
        return QuartetTopology((a, d), (b, c))
    raise ValueError(f"topology index must be 0, 1 or 2, got {topo_index}")


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

    __slots__ = ("n", "_adj", "_canon")

    def __init__(self, adj, *, validate: bool = True):
        adj = np.array(adj, dtype=np.int32)
        if adj.ndim != 2 or adj.shape[1] != 3 or adj.shape[0] % 2 != 0:
            raise ValueError(f"adjacency array has shape {adj.shape}, expected (2n-2, 3)")
        n = (adj.shape[0] + 2) // 2
        # normalize: internal neighbor lists sorted, leaf rows padded with -1
        for v in range(n, 2 * n - 2):
            adj[v].sort()
        self.n = n
        self._adj = adj
        self._canon: str | None = None
        if validate:
            self._validate()
        adj.setflags(write=False)

    @classmethod
    def from_adjacency(cls, adjacency: Mapping[int, Iterable[int]]) -> "Tree":
        """Build from a node-id -> neighbor-ids mapping (leaves 0..n-1)."""
        m = len(adjacency)
        if m % 2 != 0 or m < 6:
            raise ValueError(f"a ternary tree needs 2n-2 >= 6 nodes, got {m}")
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
        n, rows = self.n, self._adj.tolist()
        if n < 4:
            raise ValueError(f"need at least 4 leaves, got n={n}")
        m = 2 * n - 2
        seen_edges = set()
        for v, row in enumerate(rows):
            nbrs = [x for x in row if x >= 0]
            want = 1 if v < n else 3
            if len(nbrs) != want or (v < n and row[1:] != [-1, -1]):
                raise ValueError(f"node {v} has degree {len(nbrs)}, expected {want}")
            if len(set(nbrs)) != len(nbrs):
                raise ValueError(f"node {v} has a repeated neighbor")
            for w in nbrs:
                if not 0 <= w < m or w == v:
                    raise ValueError(f"node {v} has invalid neighbor {w}")
                if v not in rows[w]:
                    raise ValueError(f"edge {v}-{w} is not symmetric")
                seen_edges.add((min(v, w), max(v, w)))
        if len(seen_edges) != m - 1:
            raise ValueError(f"tree needs {m - 1} edges, found {len(seen_edges)}")
        # connected + |E| = |V|-1 implies acyclic
        stack, seen = [0], {0}
        while stack:
            v = stack.pop()
            for w in rows[v]:
                if w >= 0 and w not in seen:
                    seen.add(w)
                    stack.append(w)
        if len(seen) != m:
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

    def is_leaf(self, v: int) -> bool:
        return 0 <= v < self.n

    def neighbors(self, v: int) -> tuple[int, ...]:
        if not 0 <= v < self.node_count:
            raise ValueError(f"node {v} out of range")
        return tuple(int(x) for x in self._adj[v] if x >= 0)

    @property
    def adj_array(self) -> np.ndarray:
        """Read-only (2n-2, 3) int32 adjacency; -1 pads leaf rows."""
        return self._adj

    def copy_adjacency(self) -> list[list[int]]:
        """The writable working state: a fresh list of 2n-2 neighbour lists,
        ``adj_array.tolist()`` (leaf rows ``[p, -1, -1]``)."""
        return self._adj.tolist()

    # -- identity ----------------------------------------------------------

    def canonical_key(self) -> str:
        """Representation-independent identity string.

        Minimum over all edge rootings of the nested-parenthesis encoding,
        so two trees get the same key iff they are isomorphic as
        leaf-labeled trees (internal ids ignored).
        """
        if self._canon is None:
            rows = self._adj.tolist()
            self._canon = _canonical_key(
                {v: [w for w in row if w >= 0] for v, row in enumerate(rows)}, self.n
            )
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


def _canonical_key(adjacency: Mapping[int, Iterable[int]], n: int) -> str:
    """Canonical key of the tree given as a {node: neighbours} mapping, in
    which ids below n are leaves and other ids are arbitrary.

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


# ---------------------------------------------------------------------- #
# Generation
# ---------------------------------------------------------------------- #


def random_tree(n: int, rng: np.random.Generator) -> Tree:
    """Random labeled ternary tree by stepwise leaf addition.

    Starts from the star on leaves 0,1,2 and attaches each next leaf by
    splitting an edge chosen uniformly at random, which makes every labeled
    shape reachable (in fact uniformly distributed).
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


def hop_distances(tree_or_adj, n: int | None = None) -> np.ndarray:
    """Leaf-to-leaf path lengths in edges, as an (n, n) int32 matrix, of a
    ``Tree`` or of neighbour rows over n leaves."""
    if isinstance(tree_or_adj, Tree):
        rows, n = tree_or_adj.copy_adjacency(), tree_or_adj.n
    else:
        rows = tree_or_adj
        assert n is not None
    out = np.empty((n, n), dtype=np.int32)
    for src in range(n):
        dist = [-1] * len(rows)
        dist[src] = 0
        queue = [src]
        for v in queue:
            dv = dist[v] + 1
            for w in rows[v]:
                if w >= 0 and dist[w] < 0:
                    dist[w] = dv
                    queue.append(w)
        out[src] = dist[:n]
    return out


def pick_embedded(hop_sums, choices) -> np.ndarray:
    """Per quartet, the entry of ``choices`` (indexed by topology index) for
    its embedded topology. ``hop_sums`` are the three pairings' hop-distance
    sums from ``quartet_pair_sums``; by the four-point condition the embedded
    pairing has the strictly smallest one (the other two are equal)."""
    s0, s1, s2 = hop_sums
    c0, c1, c2 = choices
    return np.where(s0 < s1, np.where(s0 < s2, c0, c2), np.where(s1 < s2, c1, c2))


def quartet_pair_sums(
    M: np.ndarray, n: int
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Per slab of ``quartet_slabs``, for each quartet (a, b, c, x) the sums
    M[a,b] + M[c,x], M[a,c] + M[b,x] and M[a,x] + M[b,c] of the symmetric
    matrix ``M`` over its pairings with topology index 0, 1 and 2.

    Every slab is a prefix of the last one, so the within-triple entries are
    gathered once, for the last slab, and sliced for the others."""
    slabs = list(quartet_slabs(n))
    a, b, c, _ = slabs[-1]
    mab, mac, mbc = M[a, b], M[a, c], M[b, c]
    for a, b, c, x in slabs:
        k = len(a)
        mx = M[x]
        yield mab[:k] + mx.take(c), mac[:k] + mx.take(b), mx.take(a) + mbc[:k]


def quartet_slabs(n: int) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray, int]]:
    """Yield, for x = 3..n-1, the quartets (a, b, c, x) with largest label x
    as label arrays a < b < c (read-only views) and the int x.

    Each slab lists its quartets in colex rank order, and the slabs follow
    each other in that order, so concatenated they enumerate all C(n,4)
    quartets exactly as ``enumerate_quartets`` does, one slab of memory at a
    time."""
    if n < 4:
        raise ValueError(f"need at least 4 items, got n={n}")
    a, b, c = _colex_triples(n - 1)
    for x in range(3, n):
        k = math.comb(x, 3)
        yield a[:k], b[:k], c[:k], x


@functools.lru_cache(maxsize=1)
def _colex_triples(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Label arrays (a, b, c) of all 3-subsets a < b < c of 0..n-1 in colex
    rank order a + C(b,2) + C(c,3), read-only; the triples of 0..k-1 are
    their first C(k,3) rows."""
    labels = np.arange(n, dtype=np.int64)
    pair_starts = labels * (labels - 1) // 2  # C(b,2): rank of the first pair with top b
    triple_starts = pair_starts * (labels - 2) // 3  # C(c,3)
    pb = np.repeat(labels, labels)
    pa = np.arange(len(pb)) - pair_starts[pb]
    c = np.repeat(labels, pair_starts)
    pair = np.arange(len(c)) - triple_starts[c]  # colex rank of (a, b)
    out = tuple(arr.astype(np.int32) for arr in (pa[pair], pb[pair], c))
    for arr in out:
        arr.setflags(write=False)
    return out  # type: ignore[return-value]


# ---------------------------------------------------------------------- #
# Serialization (presentation-only rootings)
# ---------------------------------------------------------------------- #


def tree_to_newick(tree: Tree, names: Sequence[str] | None = None) -> str:
    """Newick string rooted (for presentation only) at leaf 0's neighbor."""
    names = _check_names(tree.n, names)
    adj = tree.adj_array
    root = int(adj[0, 0])

    def grow(par: int, v: int) -> str:
        if tree.is_leaf(v):
            return _quote_name(names[v])
        parts = [grow(v, int(w)) for w in adj[v] if int(w) != par]
        return "(" + ",".join(parts) + ")"

    parts = [grow(root, int(w)) for w in adj[root]]
    return "(" + ",".join(parts) + ");"


def tree_from_newick(
    text: str, names: Sequence[str] | None = None
) -> tuple[Tree, list[str]]:
    """Parse a Newick tree into the unrooted ternary representation.

    Branch lengths and internal labels are read and discarded. A rooted
    binary tree (degree-2 root) is unrooted by smoothing the root. When
    ``names`` is given, leaf labels are assigned by position in it and the
    tree's leaf set must match exactly.

    Returns (tree, leaf names by label).
    """
    nodes, node_names = _parse_newick_topology(text)
    # nodes: adjacency dict over temp ids; leaves are ids with a name
    leaf_ids = [v for v, nm in node_names.items() if nm is not None]
    internal_ids = [v for v in nodes if node_names.get(v) is None]
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
    n = len(leaf_ids)
    if n < 4:
        raise ValueError(f"need at least 4 leaves, got {n}")
    if len(internal_ids) != n - 2:
        raise ValueError(f"{n} leaves need {n - 2} internal nodes, got {len(internal_ids)}")
    found = [node_names[v] for v in leaf_ids]
    if names is None:
        order = sorted(range(n), key=lambda i: found[i])
        out_names = [found[i] for i in order]
    else:
        names = list(names)
        if sorted(names) != sorted(found):
            missing = sorted(set(names) - set(found))
            extra = sorted(set(found) - set(names))
            raise ValueError(
                f"tree leaves do not match expected names; missing={missing} extra={extra}"
            )
        pos = {nm: i for i, nm in enumerate(names)}
        order = sorted(range(n), key=lambda i: pos[found[i]])
        out_names = names
    relabel = {}
    for new_label, old_idx in enumerate(order):
        relabel[leaf_ids[old_idx]] = new_label
    for new_id, v in enumerate(internal_ids, start=n):
        relabel[v] = new_id
    adjacency = {relabel[v]: [relabel[w] for w in nbrs] for v, nbrs in nodes.items()}
    return Tree.from_adjacency(adjacency), list(out_names)


def _parse_newick_topology(text: str):
    s = text.strip()
    if s.endswith(";"):
        s = s[:-1]
    nodes: dict[int, list[int]] = {}
    names: dict[int, str | None] = {}
    next_id = [0]

    def new_node(name: str | None) -> int:
        v = next_id[0]
        next_id[0] += 1
        nodes[v] = []
        names[v] = name
        return v

    pos = [0]

    def skip_ws():
        while pos[0] < len(s) and s[pos[0]].isspace():
            pos[0] += 1

    def read_label() -> str:
        skip_ws()
        if pos[0] < len(s) and s[pos[0]] == "'":
            j = pos[0] + 1
            out = []
            while j < len(s):
                if s[j] == "'":
                    if j + 1 < len(s) and s[j + 1] == "'":
                        out.append("'")
                        j += 2
                        continue
                    break
                out.append(s[j])
                j += 1
            else:
                raise ValueError("unterminated quoted label in Newick input")
            pos[0] = j + 1
            return "".join(out)
        j = pos[0]
        while j < len(s) and s[j] not in "(),:;" and not s[j].isspace():
            j += 1
        out = s[pos[0] : j]
        pos[0] = j
        return out

    def skip_length():
        skip_ws()
        if pos[0] < len(s) and s[pos[0]] == ":":
            pos[0] += 1
            skip_ws()
            j = pos[0]
            while j < len(s) and (s[j] not in "(),;") and not s[j].isspace():
                j += 1
            try:
                float(s[pos[0] : j])
            except ValueError:
                raise ValueError(
                    f"bad branch length {s[pos[0]:j]!r} at position {pos[0]}"
                ) from None
            pos[0] = j

    def parse_clade() -> int:
        skip_ws()
        if pos[0] >= len(s):
            raise ValueError("unexpected end of Newick input")
        if s[pos[0]] == "(":
            pos[0] += 1
            children = [parse_clade()]
            skip_ws()
            while pos[0] < len(s) and s[pos[0]] == ",":
                pos[0] += 1
                children.append(parse_clade())
                skip_ws()
            if pos[0] >= len(s) or s[pos[0]] != ")":
                raise ValueError(f"expected ')' at position {pos[0]}")
            pos[0] += 1
            read_label()  # discard internal label / support value
            skip_length()
            v = new_node(None)
            for ch in children:
                nodes[v].append(ch)
                nodes[ch].append(v)
            return v
        name = read_label()
        if not name:
            raise ValueError(f"empty leaf label at position {pos[0]}")
        skip_length()
        return new_node(name)

    root = parse_clade()
    skip_ws()
    if pos[0] != len(s):
        raise ValueError(f"trailing characters after tree at position {pos[0]}")
    dup = [nm for nm in set(names.values()) if nm is not None and
           sum(1 for x in names.values() if x == nm) > 1]
    if dup:
        raise ValueError(f"duplicate leaf names in Newick input: {sorted(dup)}")
    _ = root
    return nodes, names


def tree_to_dot(tree: Tree, names: Sequence[str] | None = None) -> str:
    """Graphviz source; internal nodes are rendered k1..k(n-2)."""
    names = _check_names(tree.n, names)
    lines = ["graph tree {", "  node [shape=circle];"]
    for v in tree.leaves:
        lines.append(f'  n{v} [label="{names[v]}" shape=box];')
    for j, v in enumerate(tree.internal_nodes, start=1):
        lines.append(f'  n{v} [label="k{j}"];')
    adj = tree.adj_array
    for v in range(tree.node_count):
        for w in adj[v]:
            w = int(w)
            if w > v:
                lines.append(f"  n{v} -- n{w};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _check_names(n: int, names: Sequence[str] | None) -> list[str]:
    if names is None:
        return [str(i) for i in range(n)]
    names = [str(x) for x in names]
    if len(names) != n:
        raise ValueError(f"{len(names)} names for {n} leaves")
    if len(set(names)) != n:
        raise ValueError("leaf names must be unique")
    return names


def _quote_name(name: str) -> str:
    if name and not any(ch in "(),:;'\"[]" or ch.isspace() for ch in name):
        return name
    return "'" + name.replace("'", "''") + "'"
