"""Hierarchical clustering by minimum quartet tree cost.

Builds unrooted ternary trees over n labeled items so that the summed cost
of the embedded quartet topologies is as low as possible, searching by
randomized hill climbing with an optional Metropolis walk. Costs come from
explicit per-topology assignments or from a distance matrix (including
compression-based distances), and a benchmark harness reproduces the
artificial-tree reconstruction and score-comparison experiments.
"""

__version__ = "0.1.0"

from .cost import (
    CostFunction,
    DistanceCostFunction,
    DistanceMatrix,
    ExplicitCostFunction,
    ScoreBounds,
    bounds,
    cost_from_mqc,
    score,
    tree_cost_fast,
    tree_cost_naive,
)
from .fastcost import BACKEND
from .trees import (
    QuartetTopology,
    Tree,
    enumerate_quartets,
    random_tree,
    tree_from_newick,
    tree_to_dot,
    tree_to_newick,
    trees_equal,
)

__all__ = [
    "BACKEND",
    "CostFunction",
    "DistanceCostFunction",
    "DistanceMatrix",
    "ExplicitCostFunction",
    "QuartetTopology",
    "ScoreBounds",
    "Tree",
    "bounds",
    "cost_from_mqc",
    "enumerate_quartets",
    "random_tree",
    "score",
    "tree_cost_fast",
    "tree_cost_naive",
    "tree_from_newick",
    "tree_to_dot",
    "tree_to_newick",
    "trees_equal",
    "__version__",
]
