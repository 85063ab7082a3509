"""Benchmark harness: artificial-tree reconstruction trials, score
comparison metrics, and run statistics.

The artificial experiment plants a tree by scrambling a caterpillar with
random k-mutations, derives the leaf metric d(a,b) = (L(a,b)+1)/n from hop
distances (0 on the diagonal), and asks the search to reconstruct the tree
from the matrix alone. The planted tree is the unique optimum: with a tree
metric every quartet's embedded pairing has the strictly smallest distance
sum, so exact recovery shows up as S(T) = 1.

R(T) = 1 - S(T) is the room for improvement; comparing two methods on one
input uses the decibel gain 10*log10(R_other/R_ours), so +1 db means the
other method left about 1.26x more room.
"""

from __future__ import annotations

import csv
import json
import math
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .cost import DistanceCostFunction, DistanceMatrix
from .mutate import sample_k, simple_mutation
from .search import SearchConfig, SearchResult, search
from .trees import Tree, hop_distances, tree_from_newick, tree_to_newick, trees_equal

__all__ = [
    "TrialReport",
    "caterpillar",
    "collect_runs",
    "db_gain",
    "generate_artificial",
    "reconstruction_trial",
    "room_for_improvement",
    "run_reconstruction",
    "run_statistics",
    "write_statistics_csv",
]


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


def generate_artificial(
    n: int, num_mutations: int, rng: np.random.Generator
) -> tuple[Tree, DistanceMatrix]:
    """Scramble the caterpillar with ``num_mutations`` k-mutations and derive
    the path-length metric d(a,b) = (L(a,b)+1)/n (d(a,a) = 0) from the
    scrambled tree. Off-diagonal entries lie in (0, 1] and grow with path
    length."""
    if num_mutations < 0:
        raise ValueError("num_mutations must be >= 0")
    t = caterpillar(n)
    adj = t.copy_adjacency()
    for _ in range(num_mutations):
        for _ in range(sample_k(rng)):
            simple_mutation(adj, n, rng)
    planted = Tree(adj, validate=True, _copy=False)
    d = (hop_distances(planted).astype(np.float64) + 1.0) / n
    np.fill_diagonal(d, 0.0)
    return planted, DistanceMatrix(d)


@dataclass
class TrialReport:
    """Record of one reconstruction trial (JSON-lines serializable)."""

    trial_id: int
    n: int
    num_mutations: int
    instance_seed: int
    search_seed: int
    exact: bool
    s_score: float
    trees_examined: int
    wall_time_s: float
    terminated_by: str
    planted_newick: str
    recovered_newick: str

    def to_json(self) -> str:
        return json.dumps(
            {
                "trial_id": self.trial_id,
                "n": self.n,
                "num_mutations": self.num_mutations,
                "instance_seed": self.instance_seed,
                "search_seed": self.search_seed,
                "exact": self.exact,
                "s_score": self.s_score,
                "trees_examined": self.trees_examined,
                "wall_time_s": self.wall_time_s,
                "terminated_by": self.terminated_by,
                "planted_newick": self.planted_newick,
                "recovered_newick": self.recovered_newick,
            }
        )

    @property
    def planted_tree(self) -> Tree:
        return tree_from_newick(self.planted_newick, [str(i) for i in range(self.n)])[0]

    @property
    def recovered_tree(self) -> Tree:
        return tree_from_newick(self.recovered_newick, [str(i) for i in range(self.n)])[0]


def reconstruction_trial(
    n: int,
    num_mutations: int,
    config: SearchConfig | None = None,
    master_seed: int = 0,
    trial_id: int = 0,
) -> TrialReport:
    """Generate one artificial instance and try to reconstruct it."""
    inst_seed, search_seed = (
        int(s)
        for s in np.random.SeedSequence((master_seed, trial_id)).generate_state(2, np.uint64)
    )
    rng = np.random.Generator(np.random.PCG64(inst_seed))
    planted, dm = generate_artificial(n, num_mutations, rng)
    cf = DistanceCostFunction(dm)
    config = config or SearchConfig()
    t0 = time.perf_counter()
    result = search(cf, config, seed=search_seed)
    wall = time.perf_counter() - t0
    exact = trees_equal(result.best_tree, planted)
    return TrialReport(
        trial_id=trial_id,
        n=n,
        num_mutations=num_mutations,
        instance_seed=inst_seed,
        search_seed=search_seed,
        exact=exact,
        s_score=result.best_score,
        trees_examined=result.trees_examined,
        wall_time_s=wall,
        terminated_by=result.terminated_by,
        planted_newick=tree_to_newick(planted),
        recovered_newick=tree_to_newick(result.best_tree),
    )


def run_reconstruction(
    n: int,
    trials: int,
    num_mutations: int = 1000,
    config: SearchConfig | None = None,
    master_seed: int = 0,
    jsonl_path: str | Path | None = None,
) -> list[TrialReport]:
    """Run independent trials, each seeded from (master_seed, trial id), in
    trial-id order."""
    reports = [reconstruction_trial(n, num_mutations, config, master_seed, t) for t in range(trials)]
    if jsonl_path is not None:
        with open(jsonl_path, "w", encoding="utf-8") as fh:
            for rep in reports:
                fh.write(rep.to_json() + "\n")
    return reports


# ---------------------------------------------------------------------- #
# Score comparison metrics
# ---------------------------------------------------------------------- #


def room_for_improvement(s: float) -> float:
    """R(T) = 1 - S(T)."""
    if not 0.0 <= s <= 1.0:
        raise ValueError(f"score must lie in [0, 1], got {s}")
    return 1.0 - s


def db_gain(r_other: float, r_ours: float) -> float:
    """Decibel reduction in room for improvement: 10*log10(r_other/r_ours).

    A method leaving zero room scores +inf against any imperfect one and
    -inf the other way around; two perfect methods compare at 0 db.
    """
    if r_other < 0 or r_ours < 0:
        raise ValueError("room-for-improvement values must be >= 0")
    if r_other == r_ours:
        return 0.0
    if r_ours == 0.0:
        return math.inf
    if r_other == 0.0:
        return -math.inf
    return 10.0 * math.log10(r_other / r_ours)


# ---------------------------------------------------------------------- #
# Run statistics (trees-examined histogram, k-mutation pmfs, progress)
# ---------------------------------------------------------------------- #


def collect_runs(
    cf, runs: int, config: SearchConfig | None = None, master_seed: int = 0
) -> list[SearchResult]:
    """Repeated independent searches of one instance for statistics."""
    config = config or SearchConfig()
    seeds = [int(s) for s in np.random.SeedSequence(master_seed).generate_state(runs, np.uint64)]
    return [search(cf, config, seed=s) for s in seeds]


def run_statistics(results: Sequence[SearchResult], bin_width: int | None = None) -> dict:
    """Summary tables over a batch of runs.

    Returns a dict with ``trees_examined_hist`` rows (bin_lo, bin_hi, count),
    ``k_pmf`` rows (k, accepted_pmf, rejected_pmf) each column normalized to
    1 where nonempty, and ``progress`` rows (run_id, trees_examined, score).
    """
    if not results:
        raise ValueError("need at least one run")
    examined = [r.trees_examined for r in results]
    if bin_width is None:
        bin_width = max(1, int(math.ceil(max(examined) / 25.0)))
    top = (max(examined) // bin_width + 1) * bin_width
    edges = list(range(0, top + bin_width, bin_width))
    counts = [0] * (len(edges) - 1)
    for x in examined:
        counts[min(x // bin_width, len(counts) - 1)] += 1
    hist = [(edges[i], edges[i + 1], counts[i]) for i in range(len(counts))]

    acc: dict[int, int] = {}
    rej: dict[int, int] = {}
    for r in results:
        for k in r.k_accepted:
            acc[k] = acc.get(k, 0) + 1
        for k in r.k_rejected:
            rej[k] = rej.get(k, 0) + 1
    tot_a = sum(acc.values())
    tot_r = sum(rej.values())
    ks = sorted(set(acc) | set(rej))
    k_pmf = [
        (k, (acc.get(k, 0) / tot_a) if tot_a else 0.0, (rej.get(k, 0) / tot_r) if tot_r else 0.0)
        for k in ks
    ]

    progress = [
        (run_id, t, s) for run_id, r in enumerate(results) for t, s in r.history
    ]
    return {
        "runs": len(results),
        "bin_width": bin_width,
        "trees_examined_hist": hist,
        "k_pmf": k_pmf,
        "progress": progress,
    }


def write_statistics_csv(stats: dict, out_dir: str | Path) -> dict[str, Path]:
    """Write the run_statistics tables as CSV files with documented headers."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = {}

    p = out_dir / "trees_examined_hist.csv"
    with open(p, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["bin_lo", "bin_hi", "count"])
        w.writerows(stats["trees_examined_hist"])
    paths["trees_examined_hist"] = p

    p = out_dir / "k_mutation_pmf.csv"
    with open(p, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["k", "accepted_pmf", "rejected_pmf"])
        for k, a, r in stats["k_pmf"]:
            w.writerow([k, format(a, ".17g"), format(r, ".17g")])
    paths["k_mutation_pmf"] = p

    p = out_dir / "progress.csv"
    with open(p, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["run_id", "trees_examined", "score"])
        for run_id, t, s in stats["progress"]:
            w.writerow([run_id, t, format(s, ".17g")])
    paths["progress"] = p
    return paths
