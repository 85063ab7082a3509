"""Randomized search for minimum-cost quartet trees.

Two generation modes drive the same outer loop, which keeps a best tree and
replaces it only on strict improvement so the score history is monotone:

* ``hill_climb``: each generation applies a k-mutation (k from the fat-tail
  pmf) to the best tree and keeps the mutant only when it scores better.
  By default k is capped at 5n-16, the most simple moves between any two
  trees (``mutate.max_path_moves``): a longer k-mutation reaches no tree a
  shorter one cannot, it only costs more moves. This truncates the paper's
  pmf, with the tail mass on 5n-16; every k from 1 to 5n-16 keeps positive
  probability, so every tree stays reachable in one generation.
* ``metropolis``: each generation is a walk of ``trial_length`` single
  mutations with a Metropolis accept/reject on the raw (unnormalized) tree
  cost, rolling back rejected steps; the best tree seen during the walk is
  then checked for improvement.

Termination is either ``simple`` (stop after ``patience`` examined trees
without improvement) or ``agreement`` (r independently seeded runs advance
round-robin; whenever one improves and all best scores are equal, the r
candidate trees are compared and the search stops when they are identical).
A tree certified perfect (every quartet at its minimal cost, S(T)=1) stops
any mode immediately since no tree can cost less. Each new best tree of a
run is certified once, when it is found, and only when its cost passes
``ScoreBounds.may_be_perfect``; the run's ``perfect`` flag then carries the
certificate into the history and the result.

Determinism: identical (cost function, config, seed) reproduce SearchResult
bit for bit. The search is single-threaded: each run draws from its own
generator, seeded from the master seed, and agreement rounds advance the
runs one generation each, in run order.

Scoring Metropolis proposals. For a distance-backed cost, a walk step first
computes the move's cost change Delta from a cache of the current tree
(``fastcost.TreeCache``, rebuilt only when a proposal is accepted), with a
bound tau on how far Delta can lie from the difference dc of the two full
scores the acceptance test compares. The step makes its move and draws u
exactly as a walk that scores every proposal does. It rolls the move back
unscored only when lo = Delta - tau > 0 and u >= exp(-lo/theta) (1 + 2^-48):
then dc >= lo > 0, so exp(-dc/theta) <= exp(-lo/theta) up to exp's rounding
of under one ulp each, which the 2^-48 margin covers, and the full test
(dc <= 0 or u < exp(-dc/theta)) would reject as well. Every other step runs
the full scorer and that full test unchanged. So every decision, every
accepted and best cost (all from the full scorer), the generator's stream
and the rows' slot order are those of the walk that scores every proposal;
only the work differs, counted in ``SearchResult.full_scores``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace
from pathlib import Path
import numpy as np

from .cost import (
    CostFunction,
    DistanceCostFunction,
    ScoreBounds,
    bounds as cost_bounds,
    is_min_perfect,
    score_from_cost,
    tree_cost_naive,
)
from .fastcost import BACKEND, DeltaCost, TreeCache, cost_distance_from_adj
from .mutate import MutationRecord, apply_record, max_path_moves, replay_records, sample_k, simple_mutation
from .trees import Tree, random_tree, tree_to_newick

__all__ = [
    "SearchConfig",
    "SearchResult",
    "replay_trace",
    "search",
    "select_r",
]


def select_r(n: int) -> int:
    """Number of dovetailed runs the agreement termination uses for n items:
    6 for n in 4..5, 5 for 6..9, 4 for 10..15, 3 for 16..17, 2 beyond."""
    if n < 4:
        raise ValueError(f"need at least 4 items, got n={n}")
    if n <= 5:
        return 6
    if n <= 9:
        return 5
    if n <= 15:
        return 4
    if n <= 17:
        return 3
    return 2


@dataclass(frozen=True)
class SearchConfig:
    """Knobs for the tree search; defaults follow the method's standard
    settings (patience 100000 examined trees, Metropolis trial length n,
    temperature (M-m)/C(n,4)), except that the hill climber's k-mutations
    are capped at k_max = 5n-16 unless k_max is given."""

    termination: str = "simple"  # "simple" | "agreement"
    patience: int = 100_000
    max_trees: int | None = None
    runs_r: int | None = None
    trial_length: int | None = None  # None -> n
    metropolis_temperature: float | None = None  # None -> (M-m)/C(n,4)
    seed: int = 0
    mode: str = "metropolis"  # "hill_climb" | "metropolis"
    k_max: int | None = None  # None -> 5n-16 (max_path_moves)
    progress_path: str | Path | None = None
    trace_path: str | Path | None = None

    def __post_init__(self):
        if self.termination not in ("simple", "agreement"):
            raise ValueError(f"unknown termination {self.termination!r}")
        if self.mode not in ("hill_climb", "metropolis"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.patience < 1:
            raise ValueError("patience must be >= 1")
        if self.trial_length is not None and self.trial_length < 1:
            raise ValueError("trial_length must be >= 1")
        if self.metropolis_temperature is not None and not self.metropolis_temperature > 0:
            raise ValueError("metropolis_temperature must be > 0")
        if self.k_max is not None and self.k_max < 1:
            raise ValueError("k_max must be >= 1")
        if self.max_trees is not None and self.max_trees < 1:
            raise ValueError("max_trees must be >= 1")


@dataclass
class SearchResult:
    """Outcome of one search invocation."""

    best_tree: Tree
    best_score: float
    best_cost: float
    trees_examined: int
    history: list[tuple[int, float]]
    per_run_seeds: list[int]
    terminated_by: str  # perfect_score | agreement | patience | max_trees
    bounds: ScoreBounds
    mode: str
    scorer: str  # "fast" for distance-backed costs, else "naive"
    backend: str = BACKEND
    k_accepted: list[int] = field(default_factory=list)
    k_rejected: list[int] = field(default_factory=list)
    full_scores: int = 0  # trees scored by the full scorer

    def as_dict(self) -> dict:
        return {
            "best_score": self.best_score,
            "best_cost": self.best_cost,
            "bounds": {"m": self.bounds.m, "M": self.bounds.M},
            "trees_examined": self.trees_examined,
            "history": [[t, s] for t, s in self.history],
            "per_run_seeds": self.per_run_seeds,
            "terminated_by": self.terminated_by,
            "mode": self.mode,
            "scorer": self.scorer,
            "backend": self.backend,
        }


# ---------------------------------------------------------------------- #
# Scorer adapters
# ---------------------------------------------------------------------- #


class _Scorer:
    """Uniform cost interface over neighbour rows, plus the exactness
    certificate. The kind of cost function picks the scorer: the O(n^2) one
    for distance-backed costs, the naive one for explicit costs."""

    def __init__(self, cf: CostFunction):
        self.cf = cf
        self.n = cf.n
        self.bounds = cost_bounds(cf)
        self._d = cf.dm.d if isinstance(cf, DistanceCostFunction) else None
        self.which = "naive" if self._d is None else "fast"
        self.delta_cost = None if self._d is None else DeltaCost(self._d)

    def cost(self, adj: list[list[int]]) -> float:
        if self._d is not None:
            return cost_distance_from_adj(adj, self.n, self._d)
        return tree_cost_naive(adj, self.cf, self.n)

    def certify_perfect(self, adj: list[list[int]], cost: float) -> bool:
        return self.bounds.may_be_perfect(cost) and is_min_perfect(adj, self.cf, self.n)

    def score(self, cost: float, perfect: bool) -> float:
        return score_from_cost(cost, self.bounds, perfect)


def _temperature(config: SearchConfig, scorer: _Scorer) -> float:
    """Metropolis temperature on raw costs: the configured one, else
    (M-m)/C(n,4), else 1 when all trees cost the same."""
    if config.metropolis_temperature is not None:
        return config.metropolis_temperature
    b = scorer.bounds
    return (b.M - b.m) / math.comb(scorer.n, 4) if b.M > b.m else 1.0


# ---------------------------------------------------------------------- #
# Single run state
# ---------------------------------------------------------------------- #


class _Run:
    def __init__(self, scorer: _Scorer, config: SearchConfig, rng: np.random.Generator, theta: float):
        self.scorer = scorer
        self.cfg = config
        self.n = scorer.n
        self.theta = theta
        self.trial_length = config.trial_length or self.n
        self.k_max = max_path_moves(self.n) if config.k_max is None else config.k_max
        self.rng = rng
        self.examined = 0
        self.full_scores = 0
        self.best_adj: list[list[int]] = []
        self.best_cache: TreeCache | None = None
        self.best_cost = math.inf
        self.perfect = False
        self.improved = False
        self.initialized = False
        self._key: str | None = None
        self.k_accepted: list[int] = []
        self.k_rejected: list[int] = []
        self.trace: list[MutationRecord] = []
        self.initial_tree: Tree | None = None

    def advance(self, budget: int | None) -> None:
        """One generation (or initialization) in place; sets self.improved."""
        self.improved = False
        if not self.initialized:
            self._start()
            return
        if self.perfect:
            return
        if self.cfg.mode == "hill_climb":
            self._gen_hill()
        else:
            self._gen_metropolis(budget)

    def _start(self) -> None:
        """Examine a random tree as the run's first best tree."""
        self.initial_tree = random_tree(self.n, self.rng)
        self.best_adj = self.initial_tree.copy_adjacency()
        self.best_cost = self.scorer.cost(self.best_adj)
        self.examined += 1
        self.full_scores += 1
        self.improved = True
        self.initialized = True
        self.perfect = self.scorer.certify_perfect(self.best_adj, self.best_cost)

    def _gen_hill(self) -> None:
        k = sample_k(self.rng, self.k_max)
        work = [row[:] for row in self.best_adj]
        recs = [simple_mutation(work, self.n, self.rng) for _ in range(k)]
        c = self.scorer.cost(work)
        self.examined += 1
        self.full_scores += 1
        if c < self.best_cost:
            self.best_adj = work
            self.best_cost = c
            self._key = None
            self.improved = True
            self.k_accepted.append(k)
            self.trace.extend(recs)
            if self.scorer.certify_perfect(self.best_adj, c):
                self.perfect = True
        else:
            self.k_rejected.append(k)

    def _gen_metropolis(self, budget: int | None) -> None:
        dcost = self.scorer.delta_cost
        if dcost is not None and self.best_cache is None:
            self.best_cache = TreeCache(dcost, self.best_adj)
        cache = walk_cache = self.best_cache
        cur = [row[:] for row in self.best_adj]
        ccur = self.best_cost
        walk_cost = self.best_cost
        walk_best = self.best_adj
        recs: list[MutationRecord] = []
        best_prefix = 0
        steps = self.trial_length if budget is None else min(self.trial_length, budget)
        for _ in range(steps):
            rec = simple_mutation(cur, self.n, self.rng)
            self.examined += 1
            u = self.rng.random()
            if cache is not None:
                # reject without the full scorer only where the full test
                # below must reject too: dc >= lo > 0 and u >= exp(-dc/theta)
                dl, tau = cache.delta(rec)
                lo = dl - tau
                if lo > 0 and u >= math.exp(-lo / self.theta) * (1 + 2**-48):
                    apply_record(cur, rec.inverse())
                    continue
            cnew = self.scorer.cost(cur)
            self.full_scores += 1
            dc = cnew - ccur
            if dc <= 0 or u < math.exp(-dc / self.theta):
                ccur = cnew
                recs.append(rec)
                if dcost is not None:
                    cache = TreeCache(dcost, cur)
                if ccur < walk_cost:
                    walk_cost = ccur
                    walk_best = [row[:] for row in cur]
                    walk_cache = cache
                    best_prefix = len(recs)
                    if self.scorer.certify_perfect(cur, ccur):
                        self.perfect = True
                        break
            else:
                apply_record(cur, rec.inverse())
        if walk_cost < self.best_cost:
            self.best_adj = walk_best
            self.best_cost = walk_cost
            self.best_cache = walk_cache
            self._key = None
            self.improved = True
            self.trace.extend(recs[:best_prefix])

    def best_key(self) -> str:
        if self._key is None:
            self._key = Tree(self.best_adj, validate=False).canonical_key()
        return self._key

    def best_tree(self) -> Tree:
        return Tree(self.best_adj, validate=True)


# ---------------------------------------------------------------------- #
# Engine
# ---------------------------------------------------------------------- #


def search(cf: CostFunction, config: SearchConfig | None = None, **overrides) -> SearchResult:
    """Run the configured search on a cost function over cf.n items."""
    config = replace(config or SearchConfig(), **overrides)
    scorer = _Scorer(cf)
    n = cf.n
    b = scorer.bounds
    theta = _temperature(config, scorer)

    r = 1
    if config.termination == "agreement":
        r = config.runs_r if config.runs_r is not None else select_r(n)
        if r < 2:
            raise ValueError(f"agreement termination needs at least 2 runs, got {r}")
    seeds = [int(s) for s in np.random.SeedSequence(config.seed).generate_state(r, np.uint64)]
    runs = [_Run(scorer, config, np.random.Generator(np.random.PCG64(s)), theta) for s in seeds]

    history: list[tuple[int, float]] = []
    progress = None
    if config.progress_path is not None:
        progress = open(config.progress_path, "a", encoding="utf-8")
    total = last_improve = 0
    gb, gb_cost = -1, math.inf

    def events(i: int) -> tuple[str, int] | None:
        """Record run i's generation; the (reason, winner) that stops the
        search, if any."""
        nonlocal total, last_improve, gb, gb_cost
        run = runs[i]
        total = sum(x.examined for x in runs)
        if run.improved:
            last_improve = total
            if run.best_cost < gb_cost:
                gb, gb_cost = i, run.best_cost
                s = scorer.score(run.best_cost, run.perfect)
                history.append((total, s))
                if progress is not None:
                    progress.write(f"{total}\t{s!r}\n")
        if run.perfect:
            return "perfect_score", i
        if (
            config.termination == "agreement"
            and run.improved
            and all(x.initialized for x in runs)
            and all(x.best_cost == run.best_cost for x in runs)
        ):
            key = run.best_key()
            if all(x.best_key() == key for x in runs):
                return "agreement", i
        if config.max_trees is not None and total >= config.max_trees:
            return "max_trees", gb
        if total - last_improve >= config.patience:
            return "patience", gb
        return None

    try:
        for i, run in itertools.cycle(enumerate(runs)):
            budget = None if config.max_trees is None else max(1, config.max_trees - total)
            run.advance(budget)
            stop = events(i)
            if stop is not None:
                break
    finally:
        if progress is not None:
            progress.close()
    reason, winner = stop

    win = runs[winner if winner >= 0 else 0]
    best_score = scorer.score(win.best_cost, win.perfect)
    result = SearchResult(
        best_tree=win.best_tree(),
        best_score=best_score,
        best_cost=win.best_cost,
        trees_examined=total,
        history=history,
        per_run_seeds=seeds,
        terminated_by=reason,
        bounds=b,
        mode=config.mode,
        scorer=scorer.which,
        k_accepted=[k for run in runs for k in run.k_accepted],
        k_rejected=[k for run in runs for k in run.k_rejected],
        full_scores=sum(run.full_scores for run in runs),
    )
    if config.trace_path is not None:
        _write_trace(config.trace_path, win)
    return result


# ---------------------------------------------------------------------- #
# Trace files
# ---------------------------------------------------------------------- #


def _write_trace(path, run: _Run) -> None:
    # edges pin the internal node ids the records refer to; the newick
    # line is presentation only
    tree = run.initial_tree
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# quartet trace v1\n")
        fh.write(f"# n {run.n}\n")
        fh.write(f"# initial {tree_to_newick(tree)}\n")
        adj = tree.adj_array
        for v in range(tree.node_count):
            for w in adj[v]:
                if int(w) > v:
                    fh.write(f"# edge {v} {int(w)}\n")
        for rec in run.trace:
            fh.write(rec.to_line() + "\n")


def replay_trace(path) -> tuple[Tree, list[MutationRecord], Tree]:
    """Read a trace file back: (initial tree, records, tree after replay)."""
    n = None
    edges: list[tuple[int, int]] = []
    records: list[MutationRecord] = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                if line.startswith("# n "):
                    n = int(line[len("# n "):])
                elif line.startswith("# edge "):
                    a, b = line[len("# edge "):].split()
                    edges.append((int(a), int(b)))
                continue
            records.append(MutationRecord.from_line(line))
    if n is None or len(edges) != 2 * n - 3:
        raise ValueError(
            f"trace file {path} needs an '# n' header and 2n-3 '# edge' lines"
        )
    adjacency: dict[int, list[int]] = {v: [] for v in range(2 * n - 2)}
    for a, b in edges:
        if a not in adjacency or b not in adjacency:
            raise ValueError(f"trace file {path}: edge {a}-{b} names a node outside 0..{2 * n - 3}")
        adjacency[a].append(b)
        adjacency[b].append(a)
    initial = Tree.from_adjacency(adjacency)
    return initial, records, replay_records(initial, records)
