"""Cost functions over quartet topologies and the normalized tree score.

A cost function assigns a real cost to each of the 3*C(n,4) topologies,
either explicitly (flat array indexed by quartet colex rank and topology
index) or derived from a distance matrix as d(u,v) + d(w,x). A tree's cost
C_T sums the costs of its embedded topologies; with the per-quartet minimum
and maximum sums m and M the normalized benefit score is
S(T) = (M - C_T) / (M - m), mapping the worst tree to 0 and a perfect tree
to 1.

Score exactness: S(T) is reported as exactly 1.0 iff every quartet of T is
embedded at its per-quartet minimal cost. That certificate compares floats
computed identically on both sides, so it is immune to the summation-order
noise that makes ``C_T == m`` unreliable; conversely a non-certified tree is
never reported as 1.0 even when rounding pushes the quotient to 1.

Every pass over all quartets (``bounds``, ``tree_cost_naive`` and the slab
check of ``is_min_perfect``) runs slab by slab, one slab per largest label,
in colex rank order, whatever the kind of cost function:
``CostFunction.slab_costs`` yields each slab's three topology costs, and the
tree's hop distances pick the embedded one. Memory stays at one slab, and
the order of every float addition is fixed by n alone, so large-n sums are
deterministic. One kernel, ``trees.quartet_pair_sums``, forms the pair sums
of both the hop distances and a distance matrix. It fills three buffers
sized for the last slab, in cache-sized blocks, each block a ``take`` with
``mode="wrap"`` (which writes into the buffer, where the default mode copies)
and an in-place addition; ``bounds`` reuses one buffer for each slab's
minima and maxima. The arrays it yields are overwritten by the next slab.
None of this moves a bit: each pair sum, minimum and maximum is formed
from the same operands however the slab is blocked, and each slab is
summed as one contiguous array in colex order.

The certificate runs only on a tree whose cost lies within rounding distance
of m (``ScoreBounds.may_be_perfect``); the search, ``score`` and ``quartet
score`` all apply that one rule before it. For distance costs it first tries
an O(n^3) accept that reads the quartet condition off pairs of leaves
(``_gromov_accept``): rooted at each leaf x, quartet {a, b, c, x} embedded as
ab|cx is at its minimum iff F(a,b) >= F(a,c) and F(a,b) >= F(b,c), with the
Gromov products F(u,v) = d(u,x) + d(v,x) - d(u,v). It accepts only with a
margin that covers its own rounding, and otherwise leaves the decision to the
O(n^4) slab check, which explicit costs always run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

import numpy as np

from .fastcost import cost_distance_from_adj
from .trees import (
    QuartetTopology,
    Tree,
    _adj_of,
    _CellError,
    _check_names,
    _colex_triples,
    hop_distances,
    pick_embedded,
    quartet_pair_sums,
    topology_from_index,
)

__all__ = [
    "CostFunction",
    "DistanceCostFunction",
    "DistanceMatrix",
    "ExplicitCostFunction",
    "IncompleteCostFunctionError",
    "ScoreBounds",
    "bounds",
    "cost_from_mqc",
    "is_min_perfect",
    "quartet_rank",
    "score",
    "score_from_cost",
    "tree_cost_fast",
    "tree_cost_naive",
]

ONE_BELOW_ONE = float(np.nextafter(1.0, 0.0))


class IncompleteCostFunctionError(ValueError):
    """An explicit cost mapping does not cover every topology."""


def quartet_rank(a: int, b: int, c: int, d: int) -> int:
    """Colex rank of the sorted quartet a<b<c<d among all 4-subsets; raises
    ValueError unless the four labels are distinct and >= 0."""
    labels = sorted((a, b, c, d))
    if labels[0] < 0 or len(set(labels)) != 4:
        raise ValueError(f"quartet labels must be distinct and >= 0, got ({a}, {b}, {c}, {d})")
    a, b, c, d = labels
    return a + math.comb(b, 2) + math.comb(c, 3) + math.comb(d, 4)


def _slot(n: int, topo: QuartetTopology) -> tuple[int, int]:
    """Where a cost array over n items holds ``topo``: its quartet's colex
    rank and its topology index. Raises ValueError when ``topo`` uses a label
    outside 0..n-1."""
    a, b, c, d = topo.labels
    if d >= n:
        raise ValueError(f"topology {topo} uses label {d} outside 0..{n - 1}")
    return quartet_rank(a, b, c, d), topo.topo_index


# ---------------------------------------------------------------------- #
# Distance matrices
# ---------------------------------------------------------------------- #


class DistanceMatrix:
    """Symmetric nonnegative matrix with zero diagonal, plus optional names."""

    __slots__ = ("n", "d", "names")

    def __init__(self, d: np.ndarray, names: Iterable[str] | None = None):
        d = np.asarray(d, dtype=np.float64).copy()
        if d.ndim != 2 or d.shape[0] != d.shape[1]:
            raise ValueError(f"distance matrix must be square, got shape {d.shape}")
        n = d.shape[0]
        # each check fails at its first bad cell in row-major order
        for bad, message in (
            (~np.isfinite(d), "distance matrix contains non-finite values"),
            (d < 0, "negative distance d[{i},{j}] = {v}"),
            (np.diag(np.diag(d) != 0), "nonzero diagonal entry d[{i},{j}] = {v}"),
            (d != d.T, "matrix is not symmetric: d[{i},{j}]={v:.17g} != d[{j},{i}]={w:.17g}"),
        ):
            if bad.any():
                i, j = (int(x) for x in np.argwhere(bad)[0])
                raise _CellError(message.format(i=i, j=j, v=d[i, j], w=d[j, i]), (i, j))
        self.n = n
        self.d = d
        d.setflags(write=False)
        self.names = _check_names(n, names) if names is not None else None

    def __repr__(self) -> str:
        return f"DistanceMatrix(n={self.n})"


# ---------------------------------------------------------------------- #
# Cost functions
# ---------------------------------------------------------------------- #


class CostFunction:
    """Total assignment of finite costs to all 3*C(n,4) topologies."""

    n: int

    def cost_of(self, topo: QuartetTopology) -> float:
        raise NotImplementedError

    def slab_costs(self) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Per slab of quartets with one largest label x = 3..n-1, the costs
        of each quartet's topologies 0, 1 and 2, in colex rank order. The
        arrays may be views that the next slab overwrites."""
        raise NotImplementedError


class ExplicitCostFunction(CostFunction):
    """Costs in a flat (C(n,4), 3) array; row = quartet colex rank."""

    __slots__ = ("n", "costs")

    def __init__(self, n: int, costs: np.ndarray):
        if n < 4:
            raise ValueError(f"need at least 4 items, got n={n}")
        costs = np.asarray(costs, dtype=np.float64).copy()
        q = math.comb(n, 4)
        if costs.shape != (q, 3):
            raise ValueError(f"cost array has shape {costs.shape}, expected ({q}, 3)")
        if not np.all(np.isfinite(costs)):
            raise IncompleteCostFunctionError("cost array contains non-finite entries")
        self.n = n
        self.costs = costs
        costs.setflags(write=False)

    @classmethod
    def from_mapping(
        cls, n: int, mapping: Mapping[QuartetTopology, float]
    ) -> "ExplicitCostFunction":
        q = math.comb(n, 4)
        costs = np.full((q, 3), np.nan)
        for topo, value in mapping.items():
            slot = _slot(n, topo)
            costs[slot] = float(value)
        holes = np.argwhere(np.isnan(costs))
        if holes.size:
            rank, idx = (int(x) for x in holes[0])
            quartet = _unrank_quartet(n, rank)
            raise IncompleteCostFunctionError(
                f"no cost assigned to topology {topology_from_index(quartet, idx)} "
                f"({holes.shape[0]} topologies missing in total)"
            )
        return cls(n, costs)

    def cost_of(self, topo: QuartetTopology) -> float:
        return float(self.costs[_slot(self.n, topo)])

    def slab_costs(self) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        # the quartets with largest label x hold ranks C(x,4) .. C(x+1,4)-1
        for x in range(3, self.n):
            block = self.costs[math.comb(x, 4) : math.comb(x + 1, 4)]
            yield block[:, 0], block[:, 1], block[:, 2]


class DistanceCostFunction(CostFunction):
    """Costs derived from a distance matrix: C(uv|wx) = d(u,v) + d(w,x)."""

    __slots__ = ("n", "dm")

    def __init__(self, dm: DistanceMatrix):
        if dm.n < 4:
            raise ValueError(f"need at least 4 items, got n={dm.n}")
        self.n = dm.n
        self.dm = dm

    def cost_of(self, topo: QuartetTopology) -> float:
        _slot(self.n, topo)  # the label check
        d = self.dm.d
        (u, v), (w, x) = topo.pair_a, topo.pair_b
        return float(d[u, v] + d[w, x])

    def slab_costs(self) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        return quartet_pair_sums(self.dm.d)


def cost_from_mqc(n: int, p_set: Iterable[QuartetTopology]) -> ExplicitCostFunction:
    """Cost function encoding a quartet-consistency instance: topologies in
    ``p_set`` cost 0, all others cost 1, so minimizing tree cost maximizes
    the number of embedded topologies from ``p_set``."""
    q = math.comb(n, 4)
    costs = np.ones((q, 3))
    for topo in p_set:
        costs[_slot(n, topo)] = 0.0
    return ExplicitCostFunction(n, costs)


def _unrank_quartet(n: int, rank: int) -> tuple[int, int, int, int]:
    """The quartet a<b<c<x of colex rank ``rank`` among the C(n,4): x is the
    largest label with C(x,4) <= rank, and (a, b, c) the triple of colex
    rank rank - C(x,4)."""
    x = max(x for x in range(3, n) if math.comb(x, 4) <= rank)
    a, b, c = (int(labels[rank - math.comb(x, 4)]) for labels in _colex_triples(n - 1))
    return a, b, c, x


# ---------------------------------------------------------------------- #
# Tree cost, bounds, score
# ---------------------------------------------------------------------- #


@dataclass(frozen=True)
class ScoreBounds:
    """Per-quartet minimal (m) and maximal (M) summed topology costs."""

    m: float
    M: float

    def __post_init__(self):
        if not (self.m <= self.M):
            raise ValueError(f"bounds require m <= M, got m={self.m}, M={self.M}")

    def may_be_perfect(self, cost: float) -> bool:
        """Whether a tree costing ``cost`` is worth the certificate: its cost
        lies within rounding distance of m. A tree that fails this test
        cannot have every quartet at its minimum."""
        return cost <= self.m + 1e-9 * (abs(self.m) + abs(self.M) + 1.0)


def _tree_hops(tree_or_adj, cf: CostFunction) -> np.ndarray:
    """Hop distances of a ``Tree`` or neighbour rows with as many leaves as
    ``cf`` covers."""
    hops = hop_distances(tree_or_adj)
    if len(hops) != cf.n:
        raise ValueError(f"tree has {len(hops)} leaves but cost function covers {cf.n}")
    return hops


def _embedded_slabs(hop: np.ndarray, cf: CostFunction):
    """Per slab, the costs of the embedded topologies of the tree with hop
    distances ``hop`` and the three topology costs they were picked from."""
    return ((pick_embedded(hop_sums, costs), costs) for hop_sums, costs in zip(quartet_pair_sums(hop), cf.slab_costs()))


def tree_cost_naive(tree_or_adj, cf: CostFunction) -> float:
    """C_T summed over the tree's embedded topologies in quartet rank order,
    for a ``Tree`` or neighbour rows (``Tree.copy_adjacency()``).

    The reference scorer: works for any cost function and is the oracle the
    decomposition scorer is checked against.
    """
    total = 0.0
    for picked, _ in _embedded_slabs(_tree_hops(tree_or_adj, cf), cf):
        total += float(picked.sum())
    return total


def tree_cost_fast(tree: Tree, dm) -> float:
    """C_T for the distance matrix ``dm``, a ``DistanceMatrix`` or an array
    that passes its checks; equals the naive scorer up to float summation
    order (<= 1e-9 relative)."""
    if not isinstance(dm, DistanceMatrix):
        dm = DistanceMatrix(dm)
    return cost_distance_from_adj(_adj_of(tree), dm.d)


def bounds(cf: CostFunction) -> ScoreBounds:
    """Summed per-quartet minima and maxima of the three topology costs.

    Raises ValueError unless 8 max(|m|, |M|) is finite, so that no sum a
    scorer forms can overflow: the fast scorer's partial sums stay below
    2 C_T <= 2M; the total D of d is at most 6M (a quartet's largest pairing
    sum is at least a third of its six distances), so the float move delta
    of ``fastcost.TreeCache``, its error bound tau and their difference stay
    below 7M (its sums run in units of the grid ``DeltaCost`` rounds d to,
    below 2^61 n^2); and the naive scorer's slab sums lie between those of
    m and M.

    One buffer, sized for the last slab, takes each slab's minima and then
    its maxima, so no slab allocates. Each is summed as one contiguous array
    in colex order (``np.add.reduce``, the sum ``ndarray.sum`` calls), as
    it would be had it been allocated afresh, so m and M do not depend on
    the buffer or on how ``slab_costs`` formed the costs."""
    lo = 0.0
    hi = 0.0
    buf = np.empty(math.comb(cf.n - 1, 3))
    # local names: at n <= 12 a slab's cost is its calls, lookups included
    minimum, maximum, total = np.minimum, np.maximum, np.add.reduce
    with np.errstate(over="ignore"):  # an overflow fails below
        for c0, c1, c2 in cf.slab_costs():
            t = buf[: len(c0)]
            minimum(c0, c1, out=t)
            minimum(t, c2, out=t)
            lo += float(total(t))
            maximum(c0, c1, out=t)
            maximum(t, c2, out=t)
            hi += float(total(t))
    if not (math.isfinite(8 * lo) and math.isfinite(8 * hi)):
        raise ValueError(f"costs too large: 8*max(|m|, |M|) must be finite, got m={lo!r}, M={hi!r}")
    return ScoreBounds(lo, hi)


def is_min_perfect(tree_or_adj, cf: CostFunction) -> bool:
    """Exact certificate that every quartet is embedded at its minimal cost
    (equivalently C_T = m, hence S(T) = 1), for a ``Tree`` or neighbour rows:
    per quartet, the float cost of the embedded topology equals the least of
    its three float costs.

    For a ``DistanceCostFunction`` the O(n^3) ``_gromov_accept`` runs first;
    where it declines (ties, near-ties within its rounding margin, or a tree
    that is not perfect) the O(n^4) slab check decides, as it always does for
    explicit costs. Both give the same answer wherever the accept says yes."""
    hop = _tree_hops(tree_or_adj, cf)
    if isinstance(cf, DistanceCostFunction) and _gromov_accept(hop, cf.dm.d):
        return True
    return all(
        np.all(picked == np.minimum(np.minimum(c0, c1), c2))
        for picked, (c0, c1, c2) in _embedded_slabs(hop, cf)
    )


# (root, leaf, leaf) entries per block of ``_gromov_accept``: at n = 32-128,
# 2^13-2^14 ran 15-30% faster than 2^16, whose temporaries outgrow the caches
_ACCEPT_BLOCK = 1 << 14


def _gromov_accept(hop: np.ndarray, d: np.ndarray) -> bool:
    """A sufficient test, in O(n^3) time, that every quartet is embedded at
    its minimal cost under C(uv|wx) = d(u,v) + d(w,x), for the tree with hop
    distances ``hop``. False means "not shown", not "not perfect".

    Root the tree at leaf x. For leaves a, c other than x, the lca of a and c
    lies L(a,c) = (hop(a,x) + hop(c,x) - hop(a,c)) / 2 edges below x, and
    the quartet {a, b, c, x} is embedded as ab|cx iff L(a,c) = L(b,c) <
    L(a,b). Subtracting d(a,x) + d(b,x) + d(c,x) from each side shows that
    ab|cx costs at most ac|bx iff F(a,b) >= F(a,c), and at most bc|ax iff
    F(a,b) >= F(b,c), with F(u,v) = d(u,x) + d(v,x) - d(u,v). So every
    quartet holding x is at its minimum iff, for each ordered pair (a, b) of
    other leaves, F(a,b) >= G(a, L(a,b)), where G(a, l) is the largest
    F(a,c) over the leaves c != a, x with L(a,c) < l (-inf if none). G is a
    prefix maximum over levels: a scatter-max of F(a,c) into level
    L(a,c) + 1, then a running maximum.

    The test is run in floats and asks for a margin: fl(F(a,b) - G) > e with
    e = 2^-48 D, D = max d. Each computed F = fl(fl(d1 + d2) - d3) is within
    gamma_2 (d1 + d2 + d3) <= 3 gamma_2 D of the exact one, gamma_2 =
    2u/(1 - 2u), u = 2^-53 (Higham, Accuracy and Stability of Numerical
    Algorithms, 2nd ed., Lemma 3.1 and section 4.2), and so is the computed G, a
    maximum of them. If the rounded difference exceeds e, the computed one
    exceeds e/(1 + u), and the exact F(a,b) - G(a, l) exceeds e/(1 + u) -
    6 gamma_2 D > (32 - 13) u D > 0. Then each embedded pairing's exact
    cost is at most the other two, and since rounding is monotone, so is
    its float cost: the slab check would pass too. The accept declines
    unless e is a normal float (so 2^-48 D is exact) and 4D is finite (so
    nothing overflows); with ties, as under all-equal d, it declines too.

    Roots are batched so that each block holds about ``_ACCEPT_BLOCK``
    (root, a, c) entries."""
    n = len(d)
    top = float(d.max())
    e = top * 2.0**-48
    if not (e >= np.finfo(np.float64).tiny and math.isfinite(4 * top)):
        return False
    hop = hop.astype(np.intp)
    diag = np.arange(n)
    step = max(1, _ACCEPT_BLOCK // (n * n))
    # root 0 alone first: a tie that shows at every root, as under all-equal
    # or small-integer d, declines at 1/n of the cost
    ends = [0, *range(1, n, step), n]
    for x0, x1 in zip(ends, ends[1:]):
        xs = np.arange(x0, x1)
        # table g holds one column per (root x, leaf a), k of them, and one
        # row per level 0..n; q[x, a, c] is the cell of (x, a) at L(a,c)
        k = len(xs) * n
        col = np.arange(k).reshape(-1, n, 1)
        hx = hop[xs]
        q = (hx[:, :, None] + hx[:, None, :] - hop) >> 1
        q *= k
        q += col
        dx = d[xs]
        f = dx[:, :, None] + dx[:, None, :]
        f -= d
        # F(a,c) goes to level L(a,c) + 1, so that the running maximum at
        # level l covers L < l. c = a lands at hop(a,x) + 1, above any L(a,b)
        # asked for; c = x (L = 0) goes to level n, which no query reads
        s = q + k
        s[np.arange(len(xs)), :, xs] = n * k + col[:, :, 0]
        g = np.full((n + 1) * k, -np.inf)
        np.maximum.at(g, s.ravel(), f.ravel())
        g = g.reshape(n + 1, k)
        np.maximum.accumulate(g, axis=0, out=g)
        # b = a asks level 0 (-inf), and so do a = x and b = x, at L = 0
        q[:, diag, diag] = col[:, :, 0]
        f -= g.ravel().take(q)
        if not (f > e).all():
            return False
    return True


def score_from_cost(cost: float, b: ScoreBounds, perfect: bool) -> float:
    """Normalized benefit score from a precomputed tree cost.

    Degenerate bounds (M = m) score every tree 1. Otherwise the quotient is
    clipped into [0, 1), with the exactness certificate alone granting 1.0.
    """
    if b.M == b.m:
        return 1.0
    if perfect:
        return 1.0
    s = (b.M - cost) / (b.M - b.m)
    if s >= 1.0:
        return ONE_BELOW_ONE
    return max(s, 0.0)


def score(tree: Tree, cf: CostFunction) -> float:
    """S(T) in [0, 1]; exactly 1.0 iff the tree is certified optimal."""
    b = bounds(cf)
    if isinstance(cf, DistanceCostFunction):
        cost = tree_cost_fast(tree, cf.dm)
    else:
        cost = tree_cost_naive(tree, cf)
    return score_from_cost(cost, b, b.may_be_perfect(cost) and is_min_perfect(tree, cf))
