"""Benchmark harness: artificial-tree reconstruction trials, score
comparison metrics, and run statistics.

The artificial experiment plants a uniform random tree, unlike the paper's
scrambled caterpillar, derives the leaf metric d(a,b) = (L(a,b)+1)/n from hop
distances (0 on the diagonal), and asks the search to reconstruct the tree
from the matrix alone. The planted tree is the unique optimum: with a tree
metric every quartet's embedded pairing has the strictly smallest distance
sum, so exact recovery shows up as S(T) = 1.

R(T) = 1 - S(T) is the room for improvement.
"""

from __future__ import annotations

import csv
import json
import math
import time
from collections import Counter
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .cost import DistanceCostFunction, DistanceMatrix
from .search import SearchConfig, SearchResult, search
from .trees import Tree, hop_distances, random_tree, tree_to_newick, trees_equal

__all__ = [
    "TrialReport",
    "collect_runs",
    "generate_artificial",
    "reconstruction_trial",
    "room_for_improvement",
    "run_reconstruction",
    "run_statistics",
    "write_statistics_csv",
]


def generate_artificial(
    n: int, rng: np.random.Generator
) -> tuple[Tree, DistanceMatrix]:
    """Plant a uniform random tree, not a scrambled caterpillar, and derive
    the path-length metric d(a,b) = (L(a,b)+1)/n (d(a,a) = 0) from the
    planted tree. Off-diagonal entries lie in (0, 1] and grow with path
    length."""
    planted = random_tree(n, rng)
    d = (hop_distances(planted).astype(np.float64) + 1.0) / n
    np.fill_diagonal(d, 0.0)
    return planted, DistanceMatrix(d)


@dataclass
class TrialReport:
    """Record of one reconstruction trial (JSON-lines serializable)."""

    trial_id: int
    n: int
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
        return json.dumps(asdict(self))


def reconstruction_trial(
    n: int,
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
    planted, dm = generate_artificial(n, rng)
    cf = DistanceCostFunction(dm)
    config = config or SearchConfig()
    t0 = time.perf_counter()
    result = search(cf, config, seed=search_seed)
    wall = time.perf_counter() - t0
    exact = trees_equal(result.best_tree, planted)
    return TrialReport(
        trial_id=trial_id,
        n=n,
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
    config: SearchConfig | None = None,
    master_seed: int = 0,
    jsonl_path: str | Path | None = None,
) -> list[TrialReport]:
    """Run independent trials, each seeded from (master_seed, trial id), in
    trial-id order."""
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    reports = [reconstruction_trial(n, config, master_seed, t) for t in range(trials)]
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


# ---------------------------------------------------------------------- #
# Run statistics (trees-examined histogram, k-mutation pmfs, progress)
# ---------------------------------------------------------------------- #


def collect_runs(
    cf, runs: int, config: SearchConfig | None = None, master_seed: int = 0
) -> list[SearchResult]:
    """Repeated independent searches of one instance for statistics."""
    if runs < 1:
        raise ValueError(f"runs must be >= 1, got {runs}")
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
    if bin_width is not None and bin_width < 1:
        raise ValueError(f"bin_width must be >= 1, got {bin_width}")
    top = max(r.trees_examined for r in results)
    if bin_width is None:
        bin_width = max(1, int(math.ceil(top / 25.0)))
    bins = Counter(r.trees_examined // bin_width for r in results)
    hist = [(i * bin_width, (i + 1) * bin_width, bins[i]) for i in range(top // bin_width + 1)]

    acc = Counter(k for r in results for k in r.k_accepted)
    rej = Counter(k for r in results for k in r.k_rejected)
    tot_a, tot_r = acc.total(), rej.total()
    k_pmf = [
        (k, acc[k] / tot_a if tot_a else 0.0, rej[k] / tot_r if tot_r else 0.0)
        for k in sorted(acc.keys() | rej.keys())
    ]

    progress = [(run_id, t, s) for run_id, r in enumerate(results) for t, s in r.history]
    return {
        "runs": len(results),
        "bin_width": bin_width,
        "trees_examined_hist": hist,
        "k_pmf": k_pmf,
        "progress": progress,
    }


# (run_statistics table, CSV file stem, header)
_CSV_TABLES = (
    ("trees_examined_hist", "trees_examined_hist", ("bin_lo", "bin_hi", "count")),
    ("k_pmf", "k_mutation_pmf", ("k", "accepted_pmf", "rejected_pmf")),
    ("progress", "progress", ("run_id", "trees_examined", "score")),
)


def write_statistics_csv(stats: dict, out_dir: str | Path) -> dict[str, Path]:
    """Write the run_statistics tables as CSV files with documented headers,
    floats to 17 significant digits; the paths by file stem."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = {}
    for table, stem, header in _CSV_TABLES:
        paths[stem] = p = out_dir / f"{stem}.csv"
        with open(p, "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh)
            w.writerow(header)
            w.writerows([format(x, ".17g") if isinstance(x, float) else x for x in row]
                        for row in stats[table])
    return paths
