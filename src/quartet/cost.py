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

Every pass over all quartets (``bounds``, ``tree_cost_naive``,
``is_min_perfect``) runs slab by slab, one slab per largest label
(``trees.quartet_slabs``), in colex rank order, whatever the kind of cost
function: ``CostFunction.slab_costs`` yields each slab's three topology
costs, and the tree's hop distances pick the embedded one. Memory stays at
one slab, and the order of every float addition is fixed by n alone, so
large-n sums are deterministic.

The certificate is O(n^4), so it runs only on a tree whose cost lies within
rounding distance of m (``ScoreBounds.may_be_perfect``); the search,
``score`` and ``quartet score`` all apply that one rule before it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

import numpy as np

from . import fastcost
from .trees import (
    QuartetTopology,
    Tree,
    enumerate_quartets,
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
    "tree_cost_naive",
]

ONE_BELOW_ONE = float(np.nextafter(1.0, 0.0))


class IncompleteCostFunctionError(ValueError):
    """An explicit cost mapping does not cover every topology."""


def quartet_rank(a: int, b: int, c: int, d: int) -> int:
    """Colex rank of the sorted quartet a<b<c<d among all 4-subsets."""
    a, b, c, d = sorted((a, b, c, d))
    return a + math.comb(b, 2) + math.comb(c, 3) + math.comb(d, 4)


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
        if not np.all(np.isfinite(d)):
            raise ValueError("distance matrix contains non-finite values")
        if np.any(d < 0):
            i, j = np.argwhere(d < 0)[0]
            raise ValueError(f"negative distance d[{i},{j}] = {d[i, j]}")
        if np.any(np.diag(d) != 0):
            i = int(np.argwhere(np.diag(d) != 0)[0][0])
            raise ValueError(f"nonzero diagonal entry d[{i},{i}] = {d[i, i]}")
        mism = np.argwhere(d != d.T)
        if mism.size:
            i, j = (int(x) for x in mism[0])
            raise ValueError(
                f"matrix is not symmetric: d[{i},{j}]={d[i, j]:.17g} != d[{j},{i}]={d[j, i]:.17g}"
            )
        self.n = n
        self.d = d
        d.setflags(write=False)
        if names is not None:
            names = [str(x) for x in names]
            if len(names) != n:
                raise ValueError(f"{len(names)} names for {n} items")
            if len(set(names)) != n:
                raise ValueError("item names must be unique")
        self.names = list(names) if names is not None else None

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
        """Per slab of ``trees.quartet_slabs``, the costs of each quartet's
        topologies 0, 1 and 2, in colex rank order."""
        raise NotImplementedError

    def _check_labels(self, topo: QuartetTopology) -> None:
        if topo.labels[-1] >= self.n:
            raise ValueError(
                f"topology {topo} uses label {topo.labels[-1]} outside 0..{self.n - 1}"
            )


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
            a, b, c, d = topo.labels
            if d >= n:
                raise ValueError(f"topology {topo} uses label {d} outside 0..{n - 1}")
            costs[quartet_rank(a, b, c, d), topo.topo_index] = float(value)
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
        self._check_labels(topo)
        return float(self.costs[quartet_rank(*topo.labels), topo.topo_index])

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
        self._check_labels(topo)
        d = self.dm.d
        (u, v), (w, x) = topo.pair_a, topo.pair_b
        return float(d[u, v] + d[w, x])

    def slab_costs(self) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        return quartet_pair_sums(self.dm.d, self.n)


def cost_from_mqc(n: int, p_set: Iterable[QuartetTopology]) -> ExplicitCostFunction:
    """Cost function encoding a quartet-consistency instance: topologies in
    ``p_set`` cost 0, all others cost 1, so minimizing tree cost maximizes
    the number of embedded topologies from ``p_set``."""
    q = math.comb(n, 4)
    costs = np.ones((q, 3))
    for topo in p_set:
        a, b, c, d = topo.labels
        if d >= n:
            raise ValueError(f"topology {topo} uses label {d} outside 0..{n - 1}")
        costs[quartet_rank(a, b, c, d), topo.topo_index] = 0.0
    return ExplicitCostFunction(n, costs)


def _unrank_quartet(n: int, rank: int) -> tuple[int, int, int, int]:
    for quartet_rank_, quartet in enumerate(enumerate_quartets(n)):
        if quartet_rank_ == rank:
            return quartet
    raise ValueError(f"rank {rank} out of range")


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


def _embedded_slabs(tree_or_adj, cf: CostFunction, n: int | None):
    """Per slab, the costs of the tree's embedded topologies and the three
    topology costs they were picked from."""
    adj, n = _adj_of(tree_or_adj, n)
    if n != cf.n:
        raise ValueError(f"tree has {n} leaves but cost function covers {cf.n}")
    hop = quartet_pair_sums(hop_distances(adj, n), n)
    return ((pick_embedded(hop_sums, costs), costs) for hop_sums, costs in zip(hop, cf.slab_costs()))


def tree_cost_naive(tree_or_adj, cf: CostFunction, n: int | None = None) -> float:
    """C_T summed over the tree's embedded topologies in quartet rank order,
    for a ``Tree`` or neighbour rows (``Tree.copy_adjacency()``).

    The reference scorer: works for any cost function and is the oracle the
    decomposition scorer is checked against.
    """
    total = 0.0
    for picked, _ in _embedded_slabs(tree_or_adj, cf, n):
        total += float(picked.sum())
    return total


def bounds(cf: CostFunction) -> ScoreBounds:
    """Summed per-quartet minima and maxima of the three topology costs."""
    lo = 0.0
    hi = 0.0
    for c0, c1, c2 in cf.slab_costs():
        lo += float(np.minimum(np.minimum(c0, c1), c2).sum())
        hi += float(np.maximum(np.maximum(c0, c1), c2).sum())
    return ScoreBounds(lo, hi)


def is_min_perfect(tree_or_adj, cf: CostFunction, n: int | None = None) -> bool:
    """Exact certificate that every quartet is embedded at its minimal cost
    (equivalently C_T = m, hence S(T) = 1), for a ``Tree`` or neighbour
    rows."""
    return all(
        np.all(picked == np.minimum(np.minimum(c0, c1), c2))
        for picked, (c0, c1, c2) in _embedded_slabs(tree_or_adj, cf, n)
    )


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
        cost = fastcost.tree_cost_fast(tree, cf.dm)
    else:
        cost = tree_cost_naive(tree, cf)
    return score_from_cost(cost, b, b.may_be_perfect(cost) and is_min_perfect(tree, cf))


def _adj_of(tree_or_adj, n: int | None) -> tuple[list[list[int]], int]:
    """Neighbour rows and leaf count of a ``Tree``, or of rows as given."""
    if isinstance(tree_or_adj, Tree):
        return tree_or_adj.copy_adjacency(), tree_or_adj.n
    if n is None:
        n = (len(tree_or_adj) + 2) // 2
    return tree_or_adj, n
