"""Benchmark of the ``quartet`` program: four workloads, each in its own
single-threaded process, with every output checked.

    python3 perfbench/run.py                       # all workloads, seed 1
    python3 perfbench/run.py --workload score-n96 --seed 7 --seconds 20 --trace 0

Run from anywhere inside a checkout that holds ``src/quartet``; the program is
imported from there, nothing is installed. The last stdout line is one JSON
object: {"correct", "attempted", "failed", "metrics"}. ``--trace 0`` reports
the end-to-end metrics, ``--trace 1`` the per-layer metrics of a traced run.
See perfbench/README.md for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import spans  # noqa: E402
from workload import WORKLOADS  # noqa: E402

SETUP_SAMPLES = 3  # set-ups per run; setup_s is their median
CHILD_TIMEOUT_S = 170

# metric names and units, as declared in BENCHMARK.json
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
# BENCHMARK.json lists the layer figures every workload produces; the traced
# run prints the rest too (see README)
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def child(args: list[str], deadline: float) -> dict:
    """Run workload.py in a fresh single-threaded process; its last stdout line."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    proc = subprocess.run(
        [sys.executable, str(HERE / "workload.py"), *args],
        env=env, capture_output=True, text=True, timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"workload process exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    deadline = time.monotonic() + CHILD_TIMEOUT_S
    work = OUT / "work" / name
    shutil.rmtree(work, ignore_errors=True)
    gen.make_instance(name, seed, 0, work / "r0")
    common = ["--workload", name, "--seed", str(seed), "--work", str(work)]
    rep = child([*common, "--seconds", str(seconds), "--trace", str(trace)], deadline)
    for msg in rep["failures"] + rep["errors"]:
        print(f"{name}: {msg}", file=sys.stderr)
    if trace:
        metrics = layer_report(name, rep)
        keep = {k: metrics[k] for k in PER_LAYER}
        return dict(rep, metrics={k: {"value": v, "unit": PER_LAYER[k]} for k, v in keep.items()},
                    all_layer_metrics=metrics)
    setups = [rep["setup_s"]]
    for _ in range(SETUP_SAMPLES - 1):
        setups.append(child([*common, "--setup-only"], deadline)["setup_s"])
    # Means over the whole run; fixed_s sums, over the kinds of ncd / score
    # invocation in a round, each kind's mean time (see README for why means).
    values = {
        "setup_s": statistics.median(setups),
        "trees_per_s": rep["trees"] / rep["seconds"],
        "fixed_s": sum(statistics.fmean(times) for times in rep["fixed"].values()),
        "peak_rss_mb": rep["peak_rss_mb"],
    }
    print(f"{name} seed={seed}: {rep['rounds']} rounds, {rep['attempted']} operations, "
          f"{rep['failed']} failed, {len(rep['errors'])} check failures")
    print(f"  cluster_s {['%.3f' % x for x in rep['cluster_s']]}, trees per round "
          f"{rep['round_trees']}, setups {['%.3f' % x for x in setups]}")
    for kind, times in rep["fixed"].items():
        print(f"  {kind}: {len(times)} invocations, fastest {min(times):.4f} s, "
              f"median {statistics.median(times):.4f} s, mean {statistics.fmean(times):.4f} s")
    return dict(rep, metrics={k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()})


def layer_report(name: str, rep: dict) -> dict:
    metrics = spans.layer_metrics(rep["summary"], rep["counters"])
    metrics["trace.spans"] = rep["spans"]
    metrics["trace.overhead_s"] = rep["traced_round0_s"] - rep["untraced_round0_s"]
    metrics["trace.span_cost_us"] = 1e6 * rep["span_cost_s"]
    metrics["trace.overhead_est_s"] = rep["spans"] * rep["span_cost_s"]
    env = rep["environment"]
    print(f"{name}: backend {env['backend']}, nproc {env['nproc']}, python {env['python']}, "
          f"numpy {env['numpy']}; spans in {rep['spans_path']}")
    print(f"  tracing overhead: round 0 took {rep['traced_round0_s']:.3f} s traced, "
          f"{rep['untraced_round0_s']:.3f} s untraced; {rep['spans']} spans at "
          f"{1e6 * rep['span_cost_s']:.2f} us each come to {metrics['trace.overhead_est_s']:.3f} s")
    for key in sorted(metrics):
        print(f"  {key:34s} {metrics[key]:.6g}")
    (OUT / f"{name}.layers.json").write_text(
        json.dumps({"environment": env, "metrics": metrics, "spans": rep["summary"]}, indent=1) + "\n",
        encoding="utf-8",
    )
    return metrics


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "quartet" / "__init__.py").is_file():
        print(f"error: no program to measure: {ROOT / 'src' / 'quartet'} is missing", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else [args.workload]
    reports = {}
    for name in names:
        reports[name] = run_workload(name, args.seed, args.seconds, args.trace)
        if len(names) > 1:
            print(f"  {name}: attempted {reports[name]['attempted']}, failed {reports[name]['failed']}")
            for key, m in reports[name]["metrics"].items():
                print(f"  {name}: {key} = {m['value']:.6g} {m['unit']}")
    result = {
        "correct": all(not r["errors"] for r in reports.values()),
        "attempted": sum(r["attempted"] for r in reports.values()),
        "failed": sum(r["failed"] for r in reports.values()),
        "metrics": (
            reports[names[0]]["metrics"] if len(names) == 1
            else {f"{n}/{k}": m for n, r in reports.items() for k, m in r["metrics"].items()}
        ),
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
