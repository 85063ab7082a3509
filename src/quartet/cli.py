"""Command-line interface.

Subcommands: ``cluster`` (distance matrix -> best tree), ``ncd`` (corpus ->
distance matrix), ``score`` (matrix + Newick tree -> S(T) report), and
``bench`` (``artificial`` reconstruction trials / ``stats`` run statistics).

The search flags of ``cluster`` and ``bench`` each set the ``SearchConfig``
field they name: ``--temperature`` sets ``metropolis_temperature``, the
agreement run count (``--runs``, ``--agreement-runs`` under ``bench stats``)
sets ``runs_r``, and ``--mode hill`` sets mode ``hill_climb``. A field with
no flag given keeps its default, which ``bench stats`` sets to hill climbing
with agreement termination.

Every file-producing invocation writes a ``manifest.json`` capturing the
command, config snapshot, master seed, and input digests, which is enough
to reproduce the outputs bit for bit (wall-time fields aside).

Exit codes: 0 success, 2 usage error, 3 input error, 4 internal error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from dataclasses import asdict, fields, replace
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__
from .bench import (
    collect_runs,
    generate_artificial,
    room_for_improvement,
    run_reconstruction,
    run_statistics,
    write_statistics_csv,
)
from .cost import DistanceCostFunction, bounds, is_min_perfect, score_from_cost, tree_cost_fast
from .fastcost import BACKEND
from .matrix_io import (
    _FORMATS,
    FORMATS,
    MatrixParseError,
    read_distance_matrix,
    write_distance_matrix,
)
from .ncd import COMPRESSORS, get_compressor, load_corpus, ncd_matrix
from .search import SearchConfig, search
from .trees import _check_names, tree_from_newick, tree_to_dot, tree_to_newick

RESULT_VERSION = 1

_MODES = {"hill": "hill_climb", "metropolis": "metropolis"}  # --mode value: SearchConfig.mode


def _sha256(path: Path) -> str:
    return "sha256:" + hashlib.sha256(path.read_bytes()).hexdigest()


def _add_search_flags(p: argparse.ArgumentParser, runs_flag: str = "--runs") -> None:
    # each flag's dest is its SearchConfig field; but for --seed, a flag not
    # given leaves no attribute, so its field keeps its default
    p.add_argument("--seed", type=int, default=0, help="master seed (default 0)")
    flag = partial(p.add_argument, default=argparse.SUPPRESS)
    flag("--termination", choices=["simple", "agreement"])
    flag("--patience", type=int,
         help="examined trees without improvement before stopping (default 100000)")
    flag("--max-trees", type=int)
    flag("--mode", choices=list(_MODES))
    flag(runs_flag, type=int, dest="runs_r", help="override the agreement run count r")
    flag("--trial-length", type=int, help="Metropolis walk length (default: n)")
    flag("--temperature", type=float, dest="metropolis_temperature", metavar="TEMPERATURE",
         help="Metropolis temperature on raw costs (default (M-m)/C(n,4))")
    flag("--k-max", type=int,
         help="cap on fat-tail mutation counts "
              "(default 5n-16, the most moves between any two trees)")


def _config_from_args(args, **defaults) -> SearchConfig:
    """The search flags given, laid over ``defaults`` and then over the
    ``SearchConfig`` defaults."""
    given = {f.name: getattr(args, f.name) for f in fields(SearchConfig) if hasattr(args, f.name)}
    if "mode" in given:
        given["mode"] = _MODES[given["mode"]]
    return SearchConfig(**(defaults | given))


def _config_json(config: SearchConfig) -> dict:
    # paths are recorded relative to the output directory so identical
    # invocations produce identical result files
    out = asdict(config)
    out["progress_path"] = None if out["progress_path"] is None else Path(out["progress_path"]).name
    out["trace_path"] = None if out["trace_path"] is None else Path(out["trace_path"]).name
    return out


def _write_manifest(args, subcommand: str, config_json: dict | None,
                    seed: int | None, inputs: dict[str, str], outputs: list[str]) -> None:
    manifest = {
        "tool": f"quartet {__version__}",
        "backend": BACKEND,
        "command": args.argv,
        "subcommand": subcommand,
        "master_seed": seed,
        "config": config_json,
        "inputs": inputs,
        "outputs": outputs,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
    }
    (Path(args.out_dir) / "manifest.json").write_text(
        json.dumps(manifest, indent=2) + "\n", encoding="utf-8"
    )


# ---------------------------------------------------------------------- #
# Subcommands
# ---------------------------------------------------------------------- #


def _cmd_cluster(args) -> int:
    matrix_path = Path(args.matrix)
    dm = read_distance_matrix(matrix_path, args.format)
    names = _check_names(dm.n, dm.names)
    config = _config_from_args(args)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    if args.progress:
        progress_path = out_dir / "progress.tsv"
        progress_path.unlink(missing_ok=True)
        config = replace(config, progress_path=progress_path)
    if args.trace:
        config = replace(config, trace_path=out_dir / "trace.log")

    cf = DistanceCostFunction(dm)
    t0 = time.perf_counter()
    result = search(cf, config)
    wall = time.perf_counter() - t0

    newick = tree_to_newick(result.best_tree, names)
    (out_dir / "tree.nwk").write_text(newick + "\n", encoding="utf-8")
    (out_dir / "tree.dot").write_text(tree_to_dot(result.best_tree, names), encoding="utf-8")
    payload = {
        "result_version": RESULT_VERSION,
        "n": dm.n,
        "names": names,
        "seed": config.seed,
        "config": _config_json(config),
        **result.as_dict(),
        "full_scores": result.full_scores,
        "newick": newick,
        "wall_time_s": wall,
    }
    (out_dir / "result.json").write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    outputs = ["tree.nwk", "tree.dot", "result.json"]
    if args.progress:
        outputs.append("progress.tsv")
    if args.trace:
        outputs.append("trace.log")
    _write_manifest(args, "cluster", _config_json(config), config.seed,
                    {str(matrix_path): _sha256(matrix_path)}, outputs)
    print(f"S(T) = {result.best_score!r}  trees examined = {result.trees_examined}  "
          f"terminated by {result.terminated_by}")
    print(f"wrote {out_dir / 'tree.nwk'}")
    return 0


def _cmd_ncd(args) -> int:
    if args.threads < 1:
        raise ValueError(f"--threads must be >= 1, got {args.threads}")
    items = load_corpus(args.corpus, manifest=args.manifest)
    if len(items) < 4:
        raise ValueError(f"need at least 4 corpus files, got {len(items)}")
    z = get_compressor(args.compressor)
    dm = ncd_matrix(items, z, workers=args.threads)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    out_name = args.out_name or ("matrix" + _FORMATS[args.format].extensions[0])
    out_path = out_dir / out_name
    write_distance_matrix(dm, out_path, args.format)
    digests = {str(it.path): "sha256:" + hashlib.sha256(it.data).hexdigest() for it in items}
    if args.manifest:  # and the list file itself
        digests[str(Path(args.corpus))] = _sha256(Path(args.corpus))
    _write_manifest(
        args, "ncd",
        {"compressor": z.name, "format": args.format, "threads": args.threads},
        None, digests, [out_name],
    )
    print(f"wrote {out_path} ({dm.n} items, compressor {z.name})")
    return 0


def _cmd_score(args) -> int:
    dm = read_distance_matrix(Path(args.matrix), args.format)
    names = _check_names(dm.n, dm.names)
    text = Path(args.tree).read_text(encoding="utf-8")
    tree, _ = tree_from_newick(text, names)
    cf = DistanceCostFunction(dm)
    b = bounds(cf)
    cost = tree_cost_fast(tree, dm)
    s = score_from_cost(cost, b, b.may_be_perfect(cost) and is_min_perfect(tree, cf))
    report = {
        "n": dm.n,
        "cost": cost,
        "m": b.m,
        "M": b.M,
        "score": s,
        "room_for_improvement": room_for_improvement(s),
    }
    if args.json:
        print(json.dumps(report, indent=2))
    else:
        print(f"C_T  = {cost!r}")
        print(f"m    = {b.m!r}")
        print(f"M    = {b.M!r}")
        print(f"S(T) = {s!r}")
        print(f"R(T) = {report['room_for_improvement']!r}")
    return 0


def _cmd_bench_artificial(args) -> int:
    config = _config_from_args(args)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    reports = run_reconstruction(
        args.n, args.trials, config,
        master_seed=args.seed, jsonl_path=out_dir / "trials.jsonl",
    )
    exact = sum(r.exact for r in reports)
    summary = {
        "n": args.n,
        "trials": args.trials,
        "exact": exact,
        "all_exact": exact == args.trials,
        "max_wall_time_s": max(r.wall_time_s for r in reports),
        "mean_trees_examined": sum(r.trees_examined for r in reports) / len(reports),
        "master_seed": args.seed,
    }
    (out_dir / "summary.json").write_text(json.dumps(summary, indent=2) + "\n", encoding="utf-8")
    _write_manifest(args, "bench artificial", _config_json(config), args.seed, {},
                    ["trials.jsonl", "summary.json"])
    print(f"{exact}/{args.trials} exact reconstructions (n={args.n})")
    return 0


def _cmd_bench_stats(args) -> int:
    # checked here too, so that a bad value fails before the batch runs
    if args.runs < 1:
        raise ValueError(f"runs must be >= 1, got {args.runs}")
    if args.instance_seed < 0:
        raise ValueError(f"instance_seed must be >= 0, got {args.instance_seed}")
    if args.bin_width is not None and args.bin_width < 1:
        raise ValueError(f"bin_width must be >= 1, got {args.bin_width}")
    # k-mutation statistics need the hill climber
    config = _config_from_args(args, mode="hill_climb", termination="agreement")
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    inputs: dict[str, str] = {}
    if args.matrix:
        dm = read_distance_matrix(Path(args.matrix), args.format)
        inputs[args.matrix] = _sha256(Path(args.matrix))
    else:
        rng = np.random.Generator(np.random.PCG64(args.instance_seed))
        _, dm = generate_artificial(args.n, rng)
    cf = DistanceCostFunction(dm)
    results = collect_runs(cf, args.runs, config, master_seed=args.seed)
    stats = run_statistics(results, bin_width=args.bin_width)
    paths = write_statistics_csv(stats, out_dir)
    _write_manifest(args, "bench stats", _config_json(config), args.seed, inputs,
                    [p.name for p in paths.values()])
    scores = [r.best_score for r in results]
    print(f"{args.runs} runs: best S(T) {max(scores)!r}, "
          f"median trees examined {sorted(r.trees_examined for r in results)[len(results) // 2]}")
    for name, p in paths.items():
        print(f"wrote {p}")
    return 0


# ---------------------------------------------------------------------- #
# Entry point
# ---------------------------------------------------------------------- #


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="quartet",
        description="Hierarchical clustering by minimum quartet tree cost.",
    )
    ap.add_argument("--version", action="version", version=f"quartet {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("cluster", help="search for the best tree for a distance matrix")
    p.add_argument("matrix", help="distance matrix file (csv, phylip, or nexus)")
    p.add_argument("--format", choices=FORMATS, default=None,
                   help="matrix format (default: detect from extension/content)")
    p.add_argument("--out-dir", default=".", help="output directory (default .)")
    p.add_argument("--progress", action="store_true",
                   help="append improvement events to progress.tsv")
    p.add_argument("--trace", action="store_true",
                   help="write accepted mutations to trace.log")
    _add_search_flags(p)
    p.set_defaults(func=_cmd_cluster)

    p = sub.add_parser("ncd", help="build an NCD distance matrix from a corpus")
    p.add_argument("corpus", help="directory of files, or manifest with --manifest")
    p.add_argument("--manifest", action="store_true",
                   help="treat CORPUS as a text file listing one path per line")
    p.add_argument("--compressor", choices=list(COMPRESSORS), default="zlib")
    p.add_argument("--format", choices=FORMATS, default="csv")
    p.add_argument("--out-dir", default=".")
    p.add_argument("--out-name", default=None, help="matrix filename (default matrix.<ext>)")
    p.add_argument("--threads", type=int, default=1,
                   help="threads compressing pairs (default 1, not the CPU count: each adds memory)")
    p.set_defaults(func=_cmd_ncd)

    p = sub.add_parser("score", help="score a Newick tree against a distance matrix")
    p.add_argument("matrix")
    p.add_argument("tree", help="Newick file; leaf names must match the matrix")
    p.add_argument("--format", choices=FORMATS, default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_score)

    p = sub.add_parser("bench", help="reproducibility experiments")
    bsub = p.add_subparsers(dest="bench_command", required=True)

    b = bsub.add_parser("artificial", help="planted-tree reconstruction trials")
    b.add_argument("--n", type=int, required=True)
    b.add_argument("--trials", type=int, required=True)
    b.add_argument("--out-dir", default=".")
    _add_search_flags(b)
    b.set_defaults(func=_cmd_bench_artificial)

    b = bsub.add_parser("stats", help="run-length and mutation statistics over repeated runs")
    b.add_argument("--runs", type=int, required=True)
    b.add_argument("--matrix", default=None, help="matrix file (default: generated instance)")
    b.add_argument("--format", choices=FORMATS, default=None)
    b.add_argument("--n", type=int, default=10, help="generated instance size (default 10)")
    b.add_argument("--instance-seed", type=int, default=0)
    b.add_argument("--bin-width", type=int, default=None)
    b.add_argument("--out-dir", default=".")
    _add_search_flags(b, runs_flag="--agreement-runs")
    b.set_defaults(func=_cmd_bench_stats)

    return ap


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    # the arguments parsed, also when main is called in-process
    args.argv = sys.argv if argv is None else ["quartet", *argv]
    try:
        return args.func(args)
    except (MatrixParseError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (AssertionError, RuntimeError) as exc:  # pragma: no cover
        print(f"internal error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
