"""Tree mutations: the three simple moves and fat-tail k-mutations.

Simple mutations keep the node census invariant (n labeled leaves, n-2
ternary internal nodes): a leaf interchange swaps two non-sibling leaves, a
subtree interchange swaps the hanging subtrees of two nodes at path distance
at least three, and a subtree transfer detaches a subtree (smoothing the
degree-2 node left behind) and reattaches it on another edge. The random
moves return a bare (kind, operands) pair; a replayable, invertible
MutationRecord is made from it only where the move is kept: by
``simple_mutation``, and by the search for the moves that join its trace.
One table, ``_OPERAND_COUNTS``, names the kinds in the order a kind draw
indexes them (``KINDS``) and gives each its operand count. ``apply_record``
checks a record in full against the working rows before it writes, on the
tree's rooted walk and the move's path (``trees._move_path``). The surgery
writes each new neighbour into the slot of the one it replaces, so the move
with the inverse operands (``_inverse``) restores the rows slot for slot.

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

import functools
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .trees import Tree, _move_path, _replace_neighbor, _rooted_walk

__all__ = [
    "MutationRecord",
    "apply_record",
    "max_path_moves",
    "replay_records",
    "sample_k",
    "shifted_pmf_normalizer",
    "simple_mutation",
]

# kind -> operand count, in the order a kind draw indexes the kinds
_OPERAND_COUNTS = {"leaf_interchange": 2, "subtree_interchange": 4, "subtree_transfer": 6}
KINDS = tuple(_OPERAND_COUNTS)


@dataclass(frozen=True)
class MutationRecord:
    """Replayable description of one applied simple mutation.

    Operand layouts:
      leaf_interchange    (u, v)             swapped leaves
      subtree_interchange (u, x, y, w)       cut u-x and y-w, add u-y and w-x;
                                             x after u and y before w on the
                                             u-w path, of 3 or more edges
      subtree_transfer    (s, a, b, c, e, f) cut a-s, smooth a into edge b-c,
                                             split edge e-f with a, attach s
    """

    kind: str
    operands: tuple[int, ...]

    def inverse(self) -> "MutationRecord":
        return MutationRecord(self.kind, _inverse(self.kind, self.operands))

    def to_line(self) -> str:
        return " ".join([self.kind, *map(str, self.operands)])

    @classmethod
    def from_line(cls, line: str) -> "MutationRecord":
        parts = line.split()
        try:
            want = _OPERAND_COUNTS[parts[0]]
            ops = tuple(int(x) for x in parts[1:])
        except (IndexError, KeyError, ValueError):
            raise ValueError(f"bad mutation record line: {line!r}") from None
        if len(ops) != want:
            raise ValueError(f"{parts[0]} needs {want} operands: {line!r}")
        if min(ops) < 0:  # -1 pads leaf rows, so it must not pass for a node
            raise ValueError(f"negative node id in mutation record: {line!r}")
        return cls(parts[0], ops)


# ---------------------------------------------------------------------- #
# Surgery on neighbour rows (a list, or a {node: list} mapping)
# ---------------------------------------------------------------------- #
# The three writers below trust their operands: the samplers, and the
# search's proposals (``fastcost.TreeCache.propose``), derive them from the
# rows they write to, the search undoes its own moves with ``_inverse``, and
# ``apply_record`` checks a record in full before it writes anything.


def _apply_leaf_swap(adj, u: int, v: int) -> None:
    pu, pv = adj[u][0], adj[v][0]
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
    _replace_neighbor(adj, b, a, c)
    _replace_neighbor(adj, c, a, b)
    _replace_neighbor(adj, e, f, a)
    _replace_neighbor(adj, f, e, a)
    # by slot, not by value: e may be c, or f b, and the inverse must put b
    # and c back where they were
    row = adj[a]
    i, j = row.index(b), row.index(c)
    row[i], row[j] = e, f


_APPLY = {
    "leaf_interchange": _apply_leaf_swap,
    "subtree_interchange": _apply_subtree_swap,
    "subtree_transfer": _apply_transfer,
}


def _inverse(kind: str, ops: tuple[int, ...]) -> tuple[int, ...]:
    """The operands of the move of the same kind that undoes (kind, ops)."""
    if kind == "leaf_interchange":
        return ops
    if kind == "subtree_interchange":
        u, x, y, w = ops
        return u, y, x, w
    s, a, b, c, e, f = ops
    return s, a, e, f, b, c


def _check_move(adj: list[list[int]], kind: str, ops: tuple[int, ...]) -> str | None:
    """Why (kind, ops) is not a simple move on the tree ``adj``, as
    ``MutationRecord`` lays its operands out; None when it is one."""
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
        return None
    parent, depth, *_ = _rooted_walk(adj)
    if kind == "subtree_interchange":
        # x after u and y before w on the u-w path, of 3 or more edges
        _, x, y, _ = ops
        path = _move_path(parent, depth, kind, ops)
        if len(path) < 4 or path[1] != x or path[-2] != y:
            return "interchange record mismatch"
    else:
        # e-f an edge of the tree with neither end at a or on s's side, where
        # the path from a to e-f would leave through s
        s, a, b, c, e, f = ops
        if sorted(rows[1]) != sorted((s, b, c)):
            return f"transfer record mismatch: node {a} has neighbors {rows[1]}"
        if f not in rows[4] or a in (e, f) or _move_path(parent, depth, kind, ops)[1] == s:
            return "transfer record mismatch"
    return None


def apply_record(adj: list[list[int]], record: MutationRecord) -> None:
    """Replay one record in place on the working rows from
    ``Tree.copy_adjacency()``. A record that is not a simple move on the tree
    raises ValueError and leaves the rows as they were."""
    why = _check_move(adj, record.kind, record.operands)
    if why is not None:
        raise ValueError(f"{why}: {record.to_line()}")
    _APPLY[record.kind](adj, *record.operands)


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
# Each sampler makes one move of its kind and returns it as a bare (kind,
# operands) pair, or returns None, drawing nothing, when n = 4 leaves the
# kind no move. ``rng.integers`` is taken to return Python ints, as the
# search's ``_Draws`` does.


def _rand_leaf_interchange(adj, n, rng):
    integers = rng.integers
    while True:
        u = integers(n)
        v = integers(n)
        if adj[u][0] != adj[v][0]:  # also rules out u == v
            _apply_leaf_swap(adj, u, v)
            return "leaf_interchange", (u, v)


def _rand_subtree_interchange(adj, n, rng):
    """Internal u and any w at path distance >= 3; x and y are the nodes
    after u and before w on the u-w path, from a walk out of u that stops
    once it reaches w."""
    if n == 4:  # nothing is 3 steps from an internal node
        return None
    integers = rng.integers
    m = 2 * n - 2
    while True:
        u = integers(m)
        w = integers(m)
        if u == w or (u < n and w < n):
            continue
        if u < n:  # keep the internal node in the u role
            u, w = w, u
        ru = adj[u]
        if w in ru or w in adj[ru[0]] or w in adj[ru[1]] or w in adj[ru[2]]:
            continue  # distance < 3
        parent = [-1] * m
        parent[u] = u
        stack = [u]  # internal nodes only, so their rows hold no -1
        while parent[w] < 0:
            v = stack.pop()
            for q in adj[v]:
                if parent[q] < 0:
                    parent[q] = v
                    if q >= n:
                        stack.append(q)
        y = x = parent[w]
        while parent[x] != u:
            x = parent[x]
        _apply_subtree_swap(adj, u, x, y, w)
        return "subtree_interchange", (u, x, y, w)


def _rand_subtree_transfer(adj, n, rng):
    """Cut a-s, smooth a, and reattach on an edge with neither end in the
    detached side S or at a. Those 2(n - l) - 4 edges, l the leaves of S,
    are the edges of the smoothed rest but the one smoothing made, so a
    transfer always changes the tree; they are taken in (lower end, slot)
    order. The only edge out of S is a-s, so an end outside S and not at a
    has every neighbour outside S."""
    if n == 4:  # only recreates the same labeled tree
        return None
    integers = rng.integers
    m = 2 * n - 2
    while True:
        a = n + integers(n - 2)
        row = adj[a]
        slot = integers(3)
        s = row[slot]
        inside = bytearray(m)
        inside[s] = 1
        leaves = 1
        if s >= n:
            leaves = 0
            stack = [s]  # internal nodes only
            while stack:
                for q in adj[stack.pop()]:
                    if q != a and not inside[q]:
                        inside[q] = 1
                        if q < n:
                            leaves += 1
                        else:
                            stack.append(q)
        count = 2 * (n - leaves) - 4
        if count:
            break
    k = integers(count)
    # the k-th edge (e, f), e < f, by e and then f's slot in e's row: a
    # leaf's one edge goes up to its parent
    for e in range(n):
        if not inside[e]:
            f = adj[e][0]
            if f != a:
                if not k:
                    break
                k -= 1
    else:
        for e in range(n, m):
            if inside[e] or e == a:
                continue
            for f in adj[e]:
                if f > e and f != a:
                    if not k:
                        break
                    k -= 1
            else:
                continue
            break
    b, c = row[slot - 2], row[slot - 1]
    if b > c:
        b, c = c, b
    _apply_transfer(adj, s, a, b, c, e, f)
    return "subtree_transfer", (s, a, b, c, e, f)


_RAND_BY_KIND = (_rand_leaf_interchange, _rand_subtree_interchange, _rand_subtree_transfer)


def _k_moves(adj, rng, k: int) -> list[tuple[str, tuple[int, ...]]]:
    """k simple mutations in a row, in place on the 2n-2 rows, as (kind,
    operands) pairs: each move's kind is uniform over the three, and an
    ineligible kind (possible only at n = 4) is drawn again."""
    n = (len(adj) + 2) // 2
    integers = rng.integers
    moves = []
    for _ in range(k):
        move = None
        while move is None:
            move = _RAND_BY_KIND[integers(3)](adj, n, rng)
        moves.append(move)
    return moves


def simple_mutation(adj: list[list[int]], rng) -> MutationRecord:
    """One simple mutation in place on the 2n-2 neighbour rows ``adj`` (from
    ``Tree.copy_adjacency()``), which fix n; its kind is uniform over the
    three, and ineligible draws (possible only at n = 4) resample the kind.
    The rows' slot order is part of the state: it picks a transfer's s and
    orders its candidate edges."""
    return MutationRecord(*_k_moves(adj, rng, 1)[0])


# ---------------------------------------------------------------------- #
# Fat-tail mutation-count sampler
# ---------------------------------------------------------------------- #

_PMF_NORMALIZER = float.fromhex("0x1.11adce321eb2bp+0")


def shifted_pmf_normalizer() -> float:
    """Normalizing constant of 1/((k+2) ln^2(k+2)) over k >= 1, i.e. the sum
    of 1/(j ln^2 j) for j >= 3, pinned to the bits of the partial sum over
    3 <= j < J = 2^20 in numpy's pairwise order plus the Euler-Maclaurin tail
    1/ln J + 1/(2J ln^2 J) + (ln J + 2)/(12 J^2 ln^3 J). tests/test_mutate.py
    checks it against that sum and an mpmath one, and pins the k CDF tables."""
    return _PMF_NORMALIZER


@functools.cache
def _k_cdf(k_max: int) -> tuple[float, ...]:
    """P(k <= j) for j = 1..k_max, the last one clamped to 1."""
    if k_max < 1:
        raise ValueError(f"k_max must be >= 1, got {k_max}")
    k = np.arange(1, k_max + 1, dtype=np.float64)
    cdf = np.cumsum(1.0 / ((k + 2.0) * np.log(k + 2.0) ** 2) / shifted_pmf_normalizer())
    cdf[-1] = 1.0  # clamp: overflow mass belongs to k_max
    return tuple(cdf.tolist())


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
