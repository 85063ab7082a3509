"""Tree mutations: the three simple moves, fat-tail k-mutations, and a
constructive mutation path between any two trees.

Simple mutations keep the node census invariant (n labeled leaves, n-2
ternary internal nodes): a leaf interchange swaps two non-sibling leaves, a
subtree interchange swaps the hanging subtrees of two nodes at path distance
at least three, and a subtree transfer detaches a subtree (smoothing the
degree-2 node left behind) and reattaches it on another edge. Every applied
mutation yields a replayable, invertible MutationRecord.

k-mutations compose k simple mutations with k drawn from the shifted fat
tail pmf p(k) proportional to 1/((k+2) ln^2(k+2)); the heavy tail is what
lets hill climbing escape local optima. Because that pmf has infinite mean,
the sampler clamps draws at a configurable k_max (default 1024), which
leaves P(k=j) exact for every j below the cap.

``mutation_path`` constructs an explicit sequence of at most 5n-16 moves
(only leaf swaps and subtree-to-leaf swaps) turning one tree into another,
by induction: normalize a cherry-path, glue it into a composite end node,
recurse on n-1 leaves, then expand and fix up with at most three moves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .trees import Tree, _bfs_path, _canonical_key, _replace_neighbor, trees_equal

__all__ = [
    "DEFAULT_K_MAX",
    "MutationRecord",
    "apply_record",
    "k_mutation",
    "leaf_interchange",
    "mutation_path",
    "replay_records",
    "sample_k",
    "sample_k_batch",
    "shifted_pmf",
    "shifted_pmf_normalizer",
    "simple_mutation",
    "subtree_interchange",
    "subtree_transfer",
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
        return cls(parts[0], ops)


# ---------------------------------------------------------------------- #
# Array surgery
# ---------------------------------------------------------------------- #


def _apply_leaf_swap(adj: np.ndarray, u: int, v: int) -> None:
    pu, pv = int(adj[u, 0]), int(adj[v, 0])
    if pu == pv:
        raise ValueError(f"leaves {u} and {v} are siblings")
    _replace_neighbor(adj, pu, u, v)
    _replace_neighbor(adj, pv, v, u)
    adj[u, 0] = pv
    adj[v, 0] = pu


def _apply_subtree_swap(adj: np.ndarray, u: int, x: int, y: int, w: int) -> None:
    _replace_neighbor(adj, u, x, y)
    _replace_neighbor(adj, x, u, w)
    _replace_neighbor(adj, y, w, u)
    _replace_neighbor(adj, w, y, x)


def _apply_transfer(adj: np.ndarray, s: int, a: int, b: int, c: int, e: int, f: int) -> None:
    have = {int(q) for q in adj[a] if q >= 0}
    if have != {s, b, c}:
        raise ValueError(f"transfer record mismatch: node {a} has neighbors {sorted(have)}")
    if f not in {int(q) for q in adj[e] if q >= 0}:
        raise ValueError(f"transfer record mismatch: no edge {e}-{f}")
    _replace_neighbor(adj, b, a, c)
    _replace_neighbor(adj, c, a, b)
    _replace_neighbor(adj, e, f, a)
    _replace_neighbor(adj, f, e, a)
    _replace_neighbor(adj, a, b, e)
    _replace_neighbor(adj, a, c, f)


def apply_record(adj: np.ndarray, record: MutationRecord) -> None:
    """Replay one record on a writable adjacency array, in place."""
    if record.kind == "leaf_interchange":
        _apply_leaf_swap(adj, *record.operands)
    elif record.kind == "subtree_interchange":
        u, x, y, w = record.operands
        if x not in {int(q) for q in adj[u] if q >= 0} or w not in {
            int(q) for q in adj[y] if q >= 0
        }:
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
        apply_record(adj, rec)
    return Tree(adj, validate=True, _copy=False)


# ---------------------------------------------------------------------- #
# Random simple mutations (in-place on adjacency arrays)
# ---------------------------------------------------------------------- #


def _rand_leaf_interchange(adj, n, rng) -> MutationRecord | None:
    for _ in range(64):
        u = int(rng.integers(n))
        v = int(rng.integers(n))
        if u != v and adj[u, 0] != adj[v, 0]:
            _apply_leaf_swap(adj, u, v)
            return MutationRecord("leaf_interchange", (u, v))
    pairs = [
        (u, v) for u in range(n) for v in range(u + 1, n) if adj[u, 0] != adj[v, 0]
    ]
    if not pairs:
        return None
    u, v = pairs[int(rng.integers(len(pairs)))]
    _apply_leaf_swap(adj, u, v)
    return MutationRecord("leaf_interchange", (u, v))


def _near(rows, u, w) -> bool:
    """Path distance < 3: equal, adjacent, or sharing a neighbor."""
    ru = rows[u]
    if w in ru:
        return True
    for x in ru:
        if x >= 0 and w in rows[x]:
            return True
    return False


def _rand_subtree_interchange(adj, n, rng) -> MutationRecord | None:
    m = 2 * n - 2
    if n == 4:  # nothing is 3 steps from an internal node
        return None
    rows = adj.tolist()
    for _ in range(64):
        u = int(rng.integers(m))
        w = int(rng.integers(m))
        if u == w or (u < n and w < n):
            continue
        if u < n:  # keep the internal node in the u role
            u, w = w, u
        if _near(rows, u, w):
            continue
        path = _bfs_path(rows, u, w)
        x, y = path[1], path[-2]
        _apply_subtree_swap(adj, u, x, y, w)
        return MutationRecord("subtree_interchange", (u, x, y, w))
    cands = []
    for u in range(n, m):
        for w in range(m):
            if w == u or (n <= w < u):
                continue
            if not _near(rows, u, w):
                cands.append((u, w))
    if not cands:
        return None
    u, w = cands[int(rng.integers(len(cands)))]
    path = _bfs_path(rows, u, w)
    x, y = path[1], path[-2]
    _apply_subtree_swap(adj, u, x, y, w)
    return MutationRecord("subtree_interchange", (u, x, y, w))


def _transfer_candidates(rows, n, a, s):
    """Edges available for reattachment after cutting a-s: both endpoints
    outside the detached component and distinct from the smoothed node a.
    Excludes the edge created by smoothing, so a transfer always changes
    the tree."""
    m = 2 * n - 2
    inside = [False] * m
    inside[s] = True
    stack = [s]
    while stack:
        v = stack.pop()
        if v >= n:
            for w in rows[v]:
                if w != a and not inside[w]:
                    inside[w] = True
                    stack.append(w)
    edges = []
    for v in range(m):
        if inside[v] or v == a:
            continue
        for w in rows[v]:
            if w > v and w != a and not inside[w]:
                edges.append((v, w))
    return edges


def _rand_subtree_transfer(adj, n, rng) -> MutationRecord | None:
    if n == 4:  # only recreates the same labeled tree
        return None
    m = 2 * n - 2
    rows = adj.tolist()
    for _ in range(64):
        a = n + int(rng.integers(n - 2))
        s = rows[a][int(rng.integers(3))]
        edges = _transfer_candidates(rows, n, a, s)
        if not edges:
            continue
        e, f = edges[int(rng.integers(len(edges)))]
        b, c = sorted(q for q in rows[a] if q != s)
        _apply_transfer(adj, s, a, b, c, e, f)
        return MutationRecord("subtree_transfer", (s, a, b, c, e, f))
    options = []
    for a in range(n, m):
        for slot in range(3):
            s = rows[a][slot]
            edges = _transfer_candidates(rows, n, a, s)
            if edges:
                options.append((a, s, edges))
    if not options:
        return None
    a, s, edges = options[int(rng.integers(len(options)))]
    e, f = edges[int(rng.integers(len(edges)))]
    b, c = sorted(q for q in rows[a] if q != s)
    _apply_transfer(adj, s, a, b, c, e, f)
    return MutationRecord("subtree_transfer", (s, a, b, c, e, f))


_RAND_BY_KIND = (_rand_leaf_interchange, _rand_subtree_interchange, _rand_subtree_transfer)


def simple_mutation(adj: np.ndarray, n: int, rng: np.random.Generator) -> MutationRecord:
    """One simple mutation in place, kind uniform over the three; ineligible
    draws (possible only at small n) resample the kind."""
    while True:
        rec = _RAND_BY_KIND[int(rng.integers(3))](adj, n, rng)
        if rec is not None:
            return rec


# -- public per-kind operations on trees --------------------------------- #


def _tree_op(tree: Tree, rng, fn) -> tuple[Tree, MutationRecord | None]:
    adj = tree.copy_adjacency()
    rec = fn(adj, tree.n, rng)
    if rec is None:
        return tree, None
    return Tree(adj, validate=True, _copy=False), rec


def leaf_interchange(tree: Tree, rng) -> tuple[Tree, MutationRecord | None]:
    """Swap two random non-sibling leaves; None record signals no-op."""
    return _tree_op(tree, rng, _rand_leaf_interchange)


def subtree_interchange(tree: Tree, rng) -> tuple[Tree, MutationRecord | None]:
    """Swap the hanging subtrees of two random nodes at distance >= 3 (at
    least one internal); None record signals no eligible pair (n=4)."""
    return _tree_op(tree, rng, _rand_subtree_interchange)


def subtree_transfer(tree: Tree, rng) -> tuple[Tree, MutationRecord | None]:
    """Detach a random subtree and reattach it on another edge; None record
    signals no eligible move (n=4)."""
    return _tree_op(tree, rng, _rand_subtree_transfer)


def k_mutation(tree: Tree, k: int, rng) -> tuple[Tree, list[MutationRecord]]:
    """Apply k simple mutations in sequence."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    adj = tree.copy_adjacency()
    records = [simple_mutation(adj, tree.n, rng) for _ in range(k)]
    return Tree(adj, validate=True, _copy=False), records


# ---------------------------------------------------------------------- #
# Fat-tail mutation-count sampler
# ---------------------------------------------------------------------- #

DEFAULT_K_MAX = 1024

_NORMALIZER: float | None = None
_CDF_CACHE: dict[int, np.ndarray] = {}


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


def shifted_pmf(k, k_max: int | None = None) -> np.ndarray:
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


def _k_cdf(k_max: int) -> np.ndarray:
    cdf = _CDF_CACHE.get(k_max)
    if cdf is None:
        if k_max < 1:
            raise ValueError(f"k_max must be >= 1, got {k_max}")
        k = np.arange(1, k_max + 1, dtype=np.float64)
        p = 1.0 / ((k + 2.0) * np.log(k + 2.0) ** 2) / shifted_pmf_normalizer()
        cdf = np.cumsum(p)
        cdf[-1] = 1.0  # clamp: overflow mass belongs to k_max
        cdf.setflags(write=False)
        _CDF_CACHE[k_max] = cdf
    return cdf


def sample_k(rng: np.random.Generator, k_max: int = DEFAULT_K_MAX) -> int:
    """Draw a mutation count k >= 1 from the shifted fat-tail pmf."""
    u = rng.random()
    return int(np.searchsorted(_k_cdf(k_max), u, side="right")) + 1


def sample_k_batch(rng: np.random.Generator, size: int, k_max: int = DEFAULT_K_MAX) -> np.ndarray:
    """Vectorized sample_k (statistics and tests)."""
    u = rng.random(size)
    return np.searchsorted(_k_cdf(k_max), u, side="right").astype(np.int64) + 1


# ---------------------------------------------------------------------- #
# Constructive mutation path (appendix induction)
# ---------------------------------------------------------------------- #

# Abstract ops used by the construction: ("leaf", u, v) swaps two non-sibling
# leaves; ("subleaf", u, w) swaps the subtree hanging at node u with leaf w
# at path distance >= 3. Operands are resolved against the current tree when
# the op is applied, which keeps one op meaningful both on a glued view and
# on the corresponding full tree.


def _dict_adj(tree: Tree) -> dict[int, set[int]]:
    return {v: set(tree.neighbors(v)) for v in range(tree.node_count)}


def _apply_op_dict(adj: dict[int, set[int]], n: int, op) -> None:
    if op[0] == "leaf":
        _, u, v = op
        (pu,) = adj[u]
        (pv,) = adj[v]
        assert pu != pv, "leaf swap operands are siblings"
        adj[pu].discard(u); adj[pu].add(v)
        adj[pv].discard(v); adj[pv].add(u)
        adj[u] = {pv}
        adj[v] = {pu}
        return
    _, u, w = op
    path = _bfs_path(adj, u, w)
    assert len(path) >= 4, f"subtree swap needs distance >= 3, path {path}"
    x, y = path[1], path[-2]
    adj[u].discard(x); adj[x].discard(u)
    adj[y].discard(w); adj[w].discard(y)
    adj[u].add(y); adj[y].add(u)
    adj[w].add(x); adj[x].add(w)


def _leaf_nbrs(adj, n, v):
    return sorted(w for w in adj[v] if w < n)


def _end_internals(adj, n):
    return sorted(v for v in adj if v >= n and len(_leaf_nbrs(adj, n, v)) == 2)


def _solve_path(W: dict[int, set[int]], T: dict[int, set[int]], n: int) -> list:
    """Emit ops transforming W into (a tree leaf-label-isomorphic to) T.
    Mutates W; T is never modified."""
    ops: list = []
    if _canonical_key(W, n) == _canonical_key(T, n):
        return ops
    leaves = sorted(v for v in W if v < n)
    if len(leaves) == 4:
        target = _canonical_key(T, n)
        for i in range(4):
            for j in range(i + 1, 4):
                u, v = leaves[i], leaves[j]
                (pu,) = W[u]
                (pv,) = W[v]
                if pu == pv:
                    continue
                trial = {a: set(b) for a, b in W.items()}
                _apply_op_dict(trial, n, ("leaf", u, v))
                if _canonical_key(trial, n) == target:
                    op = ("leaf", u, v)
                    _apply_op_dict(W, n, op)
                    return [op]
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
        op = ("subleaf", U, a1)
        _apply_op_dict(W, n, op)
        ops.append(op)
        M, E, lhid = Y, U, a2

    # glue {M, l, E} into a composite end node kept under M's id
    Wg = {v: set(nb) for v, nb in W.items() if v not in (E, lhid)}
    slots = [w for w in W[E] if w != M]
    Wg[M] = (W[M] - {lhid, E}) | set(slots)
    for t in slots:
        Wg[t] = (W[t] - {E}) | {M}

    # target-side contraction
    (N1,) = T[lhid]
    n1_leaves = _leaf_nbrs(T, n, N1)
    fix_swap = None
    if len(n1_leaves) == 2:
        lprime = next(x for x in n1_leaves if x != lhid)
        P = next(w for w in T[N1] if w not in (lhid, lprime))
        Tg = {v: set(nb) for v, nb in T.items() if v not in (lhid, N1)}
        Tg[lprime] = {P}
        Tg[P] = (T[P] - {N1}) | {lprime}
    else:
        e1 = min(_end_internals(T, n), key=lambda v: min(_leaf_nbrs(T, n, v)))
        p_, q_ = _leaf_nbrs(T, n, e1)
        lprime = p_
        P = next(w for w in T[e1] if w >= n or w not in (p_, q_))
        Tg = {v: set(nb) for v, nb in T.items() if v not in (q_, e1)}
        Tg[lprime] = {P}
        Tg[P] = (T[P] - {e1}) | {lprime}
        # stand-in: label q_ takes l's place during the recursion
        (pl,) = Tg[lhid]
        Tg[pl] = (Tg[pl] - {lhid}) | {q_}
        Tg[q_] = Tg.pop(lhid)
        fix_swap = (lhid, q_)

    # Replay the child ops on the unglued tree. A child op naming the
    # composite id M means "the component on M's side of the cut": when its
    # path leaves through the glued-in node E, the physical cut edge is
    # E-slot rather than M-E, so the op is re-anchored at E.
    for op in _solve_path(Wg, Tg, n):
        if op[0] == "subleaf" and op[1] == M and _bfs_path(W, M, op[2])[1] == E:
            op = ("subleaf", E, op[2])
        _apply_op_dict(W, n, op)
        ops.append(op)

    # expansion fix-up: route the composite's extra node to l'-position
    zcur = next(w for w in W[M] if w not in (lhid, E))
    pathml = _bfs_path(W, M, lprime)
    if pathml[1] == E:
        if lprime in W[E]:
            other = next(w for w in W[E] if w not in (M, lprime))
            op = ("leaf" if other < n else "subleaf", other, lhid)
            _apply_op_dict(W, n, op)
            ops.append(op)
        else:
            for op in (("subleaf", M, lprime),
                       ("leaf" if zcur < n else "subleaf", zcur, lprime)):
                _apply_op_dict(W, n, op)
                ops.append(op)
    elif zcur != lprime:
        if len(pathml) == 3:  # l' hangs directly on M's third neighbor
            op = ("subleaf", E, lprime)
            _apply_op_dict(W, n, op)
            ops.append(op)
        else:
            for op in (("subleaf", M, lprime), ("subleaf", E, lprime)):
                _apply_op_dict(W, n, op)
                ops.append(op)
    # zcur == lprime: composite already sits at l'-position

    if fix_swap is not None:
        op = ("leaf", fix_swap[0], fix_swap[1])
        _apply_op_dict(W, n, op)
        ops.append(op)

    assert _canonical_key(W, n) == _canonical_key(T, n), "level did not reach its target"
    return ops


def mutation_path(t0: Tree, t1: Tree) -> list[MutationRecord]:
    """Records transforming t0 into t1 using only leaf swaps and
    subtree-to-leaf swaps; at most 5n-16 of them for n >= 5 (at most 4 for
    n=4). Replaying them on t0 yields a tree equal to t1."""
    if t0.n != t1.n:
        raise ValueError(f"trees have different label sets (n={t0.n} vs n={t1.n})")
    ops = _solve_path(_dict_adj(t0), _dict_adj(t1), t0.n)
    records = []
    adj = t0.copy_adjacency()
    for op in ops:
        if op[0] == "leaf":
            rec = MutationRecord("leaf_interchange", (op[1], op[2]))
        else:
            path = _bfs_path(adj, op[1], op[2])
            rec = MutationRecord("subtree_interchange", (op[1], path[1], path[-2], op[2]))
        apply_record(adj, rec)
        records.append(rec)
    if not trees_equal(Tree(adj, validate=True, _copy=False), t1):  # pragma: no cover
        raise AssertionError("mutation path failed to reach the target tree")
    return records
