"""Tree mutations: the three simple moves and fat-tail k-mutations.

Simple mutations keep the node census invariant (n labeled leaves, n-2
ternary internal nodes): a leaf interchange swaps two non-sibling leaves, a
subtree interchange swaps the hanging subtrees of two nodes at path distance
at least three, and a subtree transfer detaches a subtree (smoothing the
degree-2 node left behind) and reattaches it on another edge. Every applied
mutation yields a replayable, invertible MutationRecord. The surgery writes
each new neighbour into the slot of the one it replaces, so applying a
record's inverse restores the rows slot for slot.

k-mutations compose k simple mutations with k drawn from the shifted fat
tail pmf p(k) proportional to 1/((k+2) ln^2(k+2)); the heavy tail is what
lets hill climbing escape local optima. Because that pmf has infinite mean,
the sampler clamps draws at a cap k_max, which leaves P(k=j) exact for every
j below the cap and puts the tail mass on k_max itself. The hill climber
caps at max_path_moves(n) = 5n-16 by default, since no tree is more simple
moves away than that (the paper's appendix, by induction on n).

The random moves, ``sample_k`` and ``trees.random_tree`` draw through any
object with ``integers(high)`` and ``random()``. The search passes a
``_Draws``, which reads PCG64's raw 64-bit words itself and gives the same
values ``np.random.Generator(PCG64(seed)).integers(high)`` and ``.random()``
give, at a fraction of the cost of a Generator call; a search's results
depend on PCG64's raw stream and on the order of the draws.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .trees import Tree, _replace_neighbor

__all__ = [
    "MutationRecord",
    "apply_record",
    "max_path_moves",
    "replay_records",
    "sample_k",
    "shifted_pmf_normalizer",
    "simple_mutation",
]

KINDS = ("leaf_interchange", "subtree_interchange", "subtree_transfer")


@dataclass(frozen=True)
class MutationRecord:
    """Replayable description of one applied simple mutation.

    Operand layouts:
      leaf_interchange    (u, v)             swapped leaves
      subtree_interchange (u, x, y, w)       cut u-x and y-w, add u-y and w-x
      subtree_transfer    (s, a, b, c, e, f) cut a-s, smooth a into edge b-c,
                                             split edge e-f with a, attach s
    """

    kind: str
    operands: tuple[int, ...]

    def inverse(self) -> "MutationRecord":
        if self.kind == "leaf_interchange":
            return self
        if self.kind == "subtree_interchange":
            u, x, y, w = self.operands
            return MutationRecord(self.kind, (u, y, x, w))
        s, a, b, c, e, f = self.operands
        return MutationRecord(self.kind, (s, a, e, f, b, c))

    def to_line(self) -> str:
        return " ".join([self.kind, *map(str, self.operands)])

    @classmethod
    def from_line(cls, line: str) -> "MutationRecord":
        parts = line.split()
        if not parts or parts[0] not in KINDS:
            raise ValueError(f"bad mutation record line: {line!r}")
        want = {"leaf_interchange": 2, "subtree_interchange": 4, "subtree_transfer": 6}
        ops = tuple(int(x) for x in parts[1:])
        if len(ops) != want[parts[0]]:
            raise ValueError(f"{parts[0]} needs {want[parts[0]]} operands: {line!r}")
        if min(ops) < 0:  # -1 pads leaf rows, so it must not pass for a node
            raise ValueError(f"negative node id in mutation record: {line!r}")
        return cls(parts[0], ops)


# ---------------------------------------------------------------------- #
# Surgery on neighbour rows (a list, or a {node: list} mapping)
# ---------------------------------------------------------------------- #


def _apply_leaf_swap(adj, u: int, v: int) -> None:
    pu, pv = adj[u][0], adj[v][0]
    if pu == pv:
        raise ValueError(f"leaves {u} and {v} are siblings")
    _replace_neighbor(adj, pu, u, v)
    _replace_neighbor(adj, pv, v, u)
    adj[u][0] = pv
    adj[v][0] = pu


def _apply_subtree_swap(adj, u: int, x: int, y: int, w: int) -> None:
    _replace_neighbor(adj, u, x, y)
    _replace_neighbor(adj, x, u, w)
    _replace_neighbor(adj, y, w, u)
    _replace_neighbor(adj, w, y, x)


def _apply_transfer(adj, s: int, a: int, b: int, c: int, e: int, f: int) -> None:
    have = {q for q in adj[a] if q >= 0}
    if have != {s, b, c}:
        raise ValueError(f"transfer record mismatch: node {a} has neighbors {sorted(have)}")
    if f not in adj[e]:
        raise ValueError(f"transfer record mismatch: no edge {e}-{f}")
    _replace_neighbor(adj, b, a, c)
    _replace_neighbor(adj, c, a, b)
    _replace_neighbor(adj, e, f, a)
    _replace_neighbor(adj, f, e, a)
    # by slot, not by value: e may be c, or f b, and the inverse must put b
    # and c back where they were
    row = adj[a]
    i, j = row.index(b), row.index(c)
    row[i], row[j] = e, f


def apply_record(adj, record: MutationRecord) -> None:
    """Replay one record in place on neighbour rows: the list from
    ``Tree.copy_adjacency()`` or a {node: neighbours} mapping of lists.
    A record that does not match the tree raises ValueError."""
    if record.kind == "leaf_interchange":
        _apply_leaf_swap(adj, *record.operands)
    elif record.kind == "subtree_interchange":
        u, x, y, w = record.operands
        if x not in adj[u] or w not in adj[y]:
            raise ValueError(f"interchange record mismatch: {record.to_line()}")
        _apply_subtree_swap(adj, u, x, y, w)
    elif record.kind == "subtree_transfer":
        _apply_transfer(adj, *record.operands)
    else:
        raise ValueError(f"unknown mutation kind {record.kind!r}")


def replay_records(tree: Tree, records) -> Tree:
    """Apply a record sequence to a tree, returning the resulting tree."""
    adj = tree.copy_adjacency()
    for rec in records:
        top = tree.n if rec.kind == "leaf_interchange" else tree.node_count
        if min(rec.operands) < 0 or max(rec.operands) >= top:
            raise ValueError(f"record names a node outside 0..{top - 1}: {rec.to_line()}")
        apply_record(adj, rec)
    return Tree(adj, validate=True)


# ---------------------------------------------------------------------- #
# The search's draw stream
# ---------------------------------------------------------------------- #

_BLOCK = 512  # raw words pulled from the bit generator at a time
_U32 = 1 << 32


class _Draws:
    """The draws of ``np.random.Generator(np.random.PCG64(seed))``, value for
    value, read from PCG64's raw 64-bit words in blocks.

    ``integers(high)`` is Lemire's multiply-shift method on 32-bit draws, as
    the Generator runs it for 1 <= high <= 2^32: the low half of a word is
    the next 32-bit draw and its high half is kept for the one after, and a
    draw whose low product word is below (2^32 - high) % high is redrawn.
    ``random()`` takes a whole word, (word >> 11) * 2^-53, and leaves a kept
    half alone. high == 1 draws nothing."""

    __slots__ = ("_raw", "_words", "_half")

    def __init__(self, seed: int):
        self._raw = np.random.PCG64(seed).random_raw
        self._words = iter(())  # the rest of the current block
        self._half = -1  # the kept high half, or -1 when none is kept

    def _refill(self) -> int:
        """The first word of a new block; the rest wait in ``_words``."""
        self._words = iter(self._raw(_BLOCK).tolist())
        return next(self._words)

    def _uint32(self) -> int:
        x = self._half
        if x >= 0:
            self._half = -1
            return x
        w = next(self._words, -1)
        if w < 0:
            w = self._refill()
        self._half = w >> 32
        return w & 0xFFFFFFFF

    def integers(self, high: int) -> int:
        """A uniform int in [0, high)."""
        if not 1 < high <= _U32:
            if high == 1:
                return 0
            raise ValueError(f"high must be in 1..2^32, got {high}")
        m = self._uint32() * high
        if m & 0xFFFFFFFF < high:
            threshold = (_U32 - high) % high
            while m & 0xFFFFFFFF < threshold:
                m = self._uint32() * high
        return m >> 32

    def random(self) -> float:
        """A uniform float in [0, 1)."""
        w = next(self._words, -1)
        if w < 0:
            w = self._refill()
        return (w >> 11) * 2.0**-53


# ---------------------------------------------------------------------- #
# Random simple mutations (in place on neighbour rows)
# ---------------------------------------------------------------------- #


def _rand_leaf_interchange(adj, n, rng) -> MutationRecord:
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


def _rand_subtree_interchange(adj, n, rng) -> MutationRecord | None:
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


def _rand_subtree_transfer(adj, n, rng) -> MutationRecord | None:
    """Cut a-s, smooth a, and reattach on an edge with neither end in the
    detached side S or at a. Those 2(n - l) - 4 edges, l the leaves of S,
    are the edges of the smoothed rest but the one smoothing made, so a
    transfer always changes the tree; they are taken in (lower end, slot)
    order."""
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


_RAND_BY_KIND = (_rand_leaf_interchange, _rand_subtree_interchange, _rand_subtree_transfer)


def simple_mutation(adj: list[list[int]], n: int, rng) -> MutationRecord:
    """One simple mutation in place on the neighbour rows ``adj`` (from
    ``Tree.copy_adjacency()``) of a tree over n leaves, kind uniform over the
    three; ineligible draws (possible only at small n) resample the kind.
    The rows' slot order is part of the state: it picks a transfer's s and
    orders its candidate edges."""
    while True:
        rec = _RAND_BY_KIND[int(rng.integers(3))](adj, n, rng)
        if rec is not None:
            return rec


# ---------------------------------------------------------------------- #
# Fat-tail mutation-count sampler
# ---------------------------------------------------------------------- #

_NORMALIZER: float | None = None
_CDF_CACHE: dict[int, tuple[float, ...]] = {}


def shifted_pmf_normalizer() -> float:
    """Normalizing constant of 1/((k+2) ln^2(k+2)) over k >= 1, i.e. the sum
    of 1/(j ln^2 j) for j >= 3, via partial sum plus Euler-Maclaurin tail
    (accurate to well below 1e-12)."""
    global _NORMALIZER
    if _NORMALIZER is None:
        J = 1 << 20
        j = np.arange(3, J, dtype=np.float64)
        partial = float(np.sum(1.0 / (j * np.log(j) ** 2)))
        lj = math.log(J)
        tail = 1.0 / lj + 1.0 / (2 * J * lj**2) + (lj + 2.0) / (12 * J**2 * lj**3)
        _NORMALIZER = partial + tail
    return _NORMALIZER


def _k_cdf(k_max: int) -> tuple[float, ...]:
    """P(k <= j) for j = 1..k_max, the last one clamped to 1."""
    cdf = _CDF_CACHE.get(k_max)
    if cdf is None:
        if k_max < 1:
            raise ValueError(f"k_max must be >= 1, got {k_max}")
        k = np.arange(1, k_max + 1, dtype=np.float64)
        p = 1.0 / ((k + 2.0) * np.log(k + 2.0) ** 2) / shifted_pmf_normalizer()
        cdf = np.cumsum(p)
        cdf[-1] = 1.0  # clamp: overflow mass belongs to k_max
        cdf = _CDF_CACHE[k_max] = tuple(cdf.tolist())
    return cdf


def sample_k(rng, k_max: int) -> int:
    """Draw a mutation count k >= 1 from the shifted fat-tail pmf: one
    ``rng.random()`` u, and k - 1 the number of CDF entries <= u."""
    return bisect_right(_k_cdf(k_max), rng.random()) + 1


def max_path_moves(n: int) -> int:
    """5n-16: no tree on n >= 4 leaves is more simple moves away from another
    than this, the bound the paper's appendix proves by induction on n with
    leaf swaps and subtree-to-leaf swaps only; the test suite carries that
    construction and checks the bound on it."""
    return 5 * n - 16
