"""One workload in one process: set up, run whole rounds of ``quartet``
invocations for a number of seconds, check every output, report metrics.

Run by ``run.py``; prints one JSON object on its last stdout line. With
``--setup-only`` it only measures set-up. The program is reached only through
``quartet.cli.main([...])`` and the public functions of its modules.

numpy, and the benchmark's modules that import it (``gen``, ``reference``,
``spans``), are imported only after set-up has been timed, because importing
``quartet`` imports numpy and set-up counts that.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path

WORKLOADS = ("planted-metropolis", "planted-hill-stats", "ncd-agreement", "score-n96")
HILL_RUNS = 1  # bench stats --runs per instance
# A run averages over two instances at least, however long a round takes.
MIN_ROUNDS = 2
# `score` invocations each time a tree is scored. Where one takes milliseconds
# it is repeated, and on the planted workloads a round scores before and after
# its search, so that a run's mean covers many moments of the run (see README).
SCORE_REPEATS = {"planted-metropolis": 5, "planted-hill-stats": 10, "ncd-agreement": 10, "score-n96": 1}


def setup(workload: str, inst_dir: Path) -> float:
    """Import quartet, read the first round's inputs and warm the program's
    lazily filled caches (the quartet index arrays behind ``cost.bounds``)."""
    t0 = time.perf_counter()
    import numpy as np
    import quartet.cli  # noqa: F401  (the whole program, as a CLI call imports it)
    from quartet.cost import DistanceCostFunction, DistanceMatrix, bounds
    from quartet.matrix_io import read_distance_matrix
    from quartet.ncd import load_corpus
    from quartet.trees import tree_from_newick

    if workload == "ncd-agreement":
        items = load_corpus(inst_dir / "corpus")
        # the matrix is not known before `ncd` runs; any matrix of the same
        # size fills the same caches
        n = len(items)
        bounds(DistanceCostFunction(DistanceMatrix(1.0 - np.eye(n))))
    else:
        dm = read_distance_matrix(inst_dir / "matrix.csv")
        for name in ("planted.nwk", "swapped.nwk"):
            if (inst_dir / name).exists():
                tree_from_newick((inst_dir / name).read_text(encoding="utf-8"), dm.names)
        bounds(DistanceCostFunction(dm))
    return time.perf_counter() - t0


class Round:
    """Runs and checks each round's invocations; keeps the run's totals."""

    def __init__(self, workload: str, work: Path, tracer=None):
        self.workload = workload
        self.work = work
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []  # output checks that did not hold
        self.failures: list[str] = []  # invocations that exited non-zero
        # the run's timed work: trees examined by cluster / bench stats (trees
        # scored on score-n96, which searches nothing) and their seconds
        self.trees = 0
        self.seconds = 0.0
        self.cluster_s: list[float] = []  # per cluster / bench stats invocation
        # invocations whose work the inputs fix (ncd, score): times per kind
        self.fixed: dict[str, list[float]] = {}

    # -- invocation ------------------------------------------------------ #

    def invoke(self, argv: list[str]) -> tuple[int, float, str]:
        from quartet import cli

        self.attempted += 1
        buf = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(buf):
            if self.tracer is None:
                rc = cli.main(argv)
            else:
                rc = self.tracer.span("cli.main", cli.main, argv)[1]
        dt = time.perf_counter() - t0
        if rc != 0:
            self.failed += 1
            self.failures.append(f"exit code {rc} from quartet {' '.join(argv)}")
        return rc, dt, buf.getvalue()

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.errors.append(message)

    # -- the four workloads ---------------------------------------------- #

    def run(self, inst: dict, r: int) -> None:
        getattr(self, "_" + self.workload.replace("-", "_"))(inst, self.work / f"r{r}")

    def _planted_metropolis(self, inst: dict, out: Path) -> None:
        self._score(inst, inst["planted"], perfect=True)
        rc, dt, _ = self.invoke(["cluster", str(inst["matrix"]), "--out-dir", str(out / "cluster"),
                                 "--seed", str(inst["search_seed"])])
        if rc != 0:
            return
        self._count_search(dt, out / "cluster" / "result.json", inst, expect="perfect_score")
        self._score(inst, out / "cluster" / "tree.nwk", perfect=True)

    def _planted_hill_stats(self, inst: dict, out: Path) -> None:
        from quartet import cli

        self._score(inst, inst["planted"], perfect=True)
        # the trees bench stats found are not in its output files
        original, captured = cli.collect_runs, []

        def capturing(*args, **kwargs):
            captured.append(original(*args, **kwargs))
            return captured[-1]

        cli.collect_runs = capturing
        try:
            rc, dt, _ = self.invoke(["bench", "stats", "--matrix", str(inst["matrix"]),
                                     "--runs", str(HILL_RUNS), "--out-dir", str(out / "stats"),
                                     "--seed", str(inst["search_seed"])])
        finally:
            cli.collect_runs = original
        if rc != 0:
            return
        results = captured[0]
        self._searched(dt, sum(res.trees_examined for res in results))
        self._check_progress_csv(out / "stats" / "progress.csv", len(results))
        import reference

        planted = reference.splits(inst["adj"], len(inst["names"]))
        for res in results:
            adj = [[int(w) for w in row if w >= 0] for row in res.best_tree.adj_array]
            self.check(res.terminated_by == "perfect_score",
                       f"bench stats run stopped by {res.terminated_by}")
            self.check(res.best_score == 1.0, f"bench stats run scored {res.best_score!r}")
            self.check(reference.splits(adj, len(adj) // 2 + 1) == planted,
                       "bench stats tree differs from the planted tree")
            cost, _, _ = reference.quartet_costs(adj, inst["d"])
            self.check(reference.rel_close(res.best_cost, cost),
                       f"bench stats best_cost {res.best_cost!r} != oracle {cost!r}")
        self._score(inst, inst["planted"], perfect=True)

    def _ncd_agreement(self, inst: dict, out: Path) -> None:
        import numpy as np

        import reference

        rc, dt, _ = self.invoke(["ncd", str(inst["corpus"]), "--compressor", "lzma",
                                 "--out-dir", str(out / "ncd")])
        if rc != 0:
            return
        self.fixed.setdefault("ncd", []).append(dt)
        matrix = out / "ncd" / "matrix.csv"
        header, *rows = matrix.read_text(encoding="utf-8").splitlines()
        d = np.array([[float(x) for x in row.split(",")] for row in rows])
        n = len(inst["names"])
        self.check(header.split(",") == inst["names"], "ncd matrix names differ from the corpus")
        self.check(d.shape == (n, n) and np.array_equal(d, d.T) and not d.diagonal().any(),
                   "ncd matrix is not symmetric with a zero diagonal")
        rng = np.random.default_rng(inst["search_seed"])
        for _ in range(3):
            i, j = sorted(int(x) for x in rng.choice(n, size=2, replace=False))
            want = reference.ncd(inst["seqs"][i], inst["seqs"][j], "lzma")
            self.check(d[i, j] == want, f"ncd[{i},{j}] = {d[i, j]!r}, recomputed {want!r}")
        inst = dict(inst, d=d, matrix=matrix)
        rc, dt, _ = self.invoke(["cluster", str(matrix), "--termination", "agreement",
                                 "--out-dir", str(out / "cluster"), "--seed", str(inst["search_seed"])])
        if rc != 0:
            return
        self._count_search(dt, out / "cluster" / "result.json", inst, expect="agreement")
        self._score(inst, out / "cluster" / "tree.nwk", perfect=False)

    def _score_n96(self, inst: dict, out: Path) -> None:
        self._score(inst, inst["planted"], perfect=True, kind="score planted")
        self._score(inst, inst["swapped"], perfect=False, kind="score swapped")

    # -- shared steps and checks ----------------------------------------- #

    def _count_search(self, dt: float, result_path: Path, inst: dict, expect: str) -> None:
        import reference

        res = json.loads(result_path.read_text(encoding="utf-8"))
        self._searched(dt, res["trees_examined"])
        self.check(res["terminated_by"] == expect,
                   f"cluster stopped by {res['terminated_by']}, expected {expect}")
        tree_text = (result_path.parent / "tree.nwk").read_text(encoding="utf-8")
        adj = reference.parse_newick(tree_text, inst["names"])
        cost, lo, hi = reference.quartet_costs(adj, inst["d"])
        self.check(reference.rel_close(res["best_cost"], cost),
                   f"cluster best_cost {res['best_cost']!r} != oracle {cost!r}")
        self.check(reference.rel_close(res["bounds"]["m"], lo) and reference.rel_close(res["bounds"]["M"], hi),
                   "cluster bounds differ from the oracle")
        if expect == "perfect_score":
            self.check(res["best_score"] == 1.0, f"cluster scored {res['best_score']!r}, expected 1.0")
            self.check(reference.splits(adj, len(inst["names"]))
                       == reference.splits(inst["adj"], len(inst["names"])),
                       "cluster tree differs from the planted tree")

    def _searched(self, dt: float, trees: int) -> None:
        self.cluster_s.append(dt)
        self.seconds += dt
        self.trees += trees

    def _score(self, inst: dict, tree_path: Path, perfect: bool, kind: str = "score") -> None:
        """``score`` the tree SCORE_REPEATS[workload] times, each output
        checked against one oracle computation."""
        import reference

        adj = reference.parse_newick(tree_path.read_text(encoding="utf-8"), inst["names"])
        cost, lo, hi = reference.quartet_costs(adj, inst["d"])
        for _ in range(SCORE_REPEATS[self.workload]):
            rc, dt, text = self.invoke(["score", str(inst["matrix"]), str(tree_path), "--json"])
            if rc != 0:
                continue
            self.fixed.setdefault(kind, []).append(dt)
            if self.workload == "score-n96":
                self.seconds += dt
                self.trees += 1
            rep = json.loads(text)
            for key, want in (("cost", cost), ("m", lo), ("M", hi)):
                self.check(reference.rel_close(rep[key], want),
                           f"score {key} = {rep[key]!r}, oracle {want!r}")
            if perfect:
                self.check(rep["score"] == 1.0, f"score of an optimal tree is {rep['score']!r}")
            else:
                self.check(rep["score"] < 1.0, "score of a non-optimal tree is 1")
                self.check(reference.rel_close(rep["score"], (hi - cost) / (hi - lo)),
                           f"score {rep['score']!r} != (M-C)/(M-m) = {(hi - cost) / (hi - lo)!r}")

    def _check_progress_csv(self, path: Path, runs: int) -> None:
        last: dict[str, str] = {}
        for line in path.read_text(encoding="utf-8").splitlines()[1:]:
            run_id, _, score = line.split(",")
            last[run_id] = score
        self.check(len(last) == runs and all(float(s) == 1.0 for s in last.values()),
                   f"progress.csv final scores {sorted(last.values())} are not all exactly 1")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--work", type=Path, required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    setup_s = setup(args.workload, args.work / "r0")
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    import gen

    tracer = None
    reference_round_s = None
    rnd = Round(args.workload, args.work)
    if args.trace:
        import spans

        # the same instance and seeds twice, untraced then traced: the
        # search is deterministic, so the difference is tracing overhead
        inst = gen.make_instance(args.workload, args.seed, 0, args.work / "r0")
        t0 = time.perf_counter()
        rnd.run(inst, 0)
        reference_round_s = time.perf_counter() - t0
        tracer = spans.Tracer()
        tracer.instrument()
        rnd.tracer = tracer

    rounds = 0
    round_times: list[float] = []
    round_trees: list[int] = []
    start = time.perf_counter()
    while True:
        inst = gen.make_instance(args.workload, args.seed, rounds, args.work / f"r{rounds}")
        t0 = time.perf_counter()
        trees = rnd.trees
        rnd.run(inst, rounds)
        round_times.append(time.perf_counter() - t0)
        round_trees.append(rnd.trees - trees)
        rounds += 1
        elapsed = time.perf_counter() - start
        if rounds >= MIN_ROUNDS and elapsed + sum(round_times) / rounds > args.seconds:
            break

    report = {
        "setup_s": setup_s,
        "rounds": rounds,
        "attempted": rnd.attempted,
        "failed": rnd.failed,
        "errors": rnd.errors,
        "failures": rnd.failures,
        "trees": rnd.trees,
        "seconds": rnd.seconds,
        "round_trees": round_trees,
        "fixed": rnd.fixed,
        "cluster_s": rnd.cluster_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        tracer.restore()
        report["traced_round0_s"] = round_times[0]
        report["untraced_round0_s"] = reference_round_s
        report["span_cost_s"] = spans.span_cost_s()
        report["summary"] = tracer.summary()
        report["counters"] = tracer.counters
        report["spans"] = len(tracer.start)
        report["environment"] = spans.environment()
        spans_path = args.work.parent.parent / f"{args.workload}.spans.jsonl"
        tracer.write_jsonl(spans_path, dict(report["environment"], workload=args.workload,
                                            seed=args.seed, names=tracer.names))
        report["spans_path"] = str(spans_path)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
