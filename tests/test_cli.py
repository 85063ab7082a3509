import csv
import json

import numpy as np
import pytest

from quartet.cli import main
from quartet.cost import DistanceMatrix
from quartet.matrix_io import write_distance_matrix
from quartet.trees import hop_distances, random_tree

from conftest import rng_for
from test_ncd import dna_corpus


def write_corpus(directory, count=8, length=1200, seed=5):
    directory.mkdir()
    for item in dna_corpus(count, length, seed):
        (directory / item.name).write_bytes(item.data)
    return directory


def planted_matrix(path, n=9, seed=3):
    t = random_tree(n, rng_for(seed))
    d = (hop_distances(t).astype(float) + 1.0) / n
    np.fill_diagonal(d, 0.0)
    write_distance_matrix(DistanceMatrix(d, [f"s{i}" for i in range(n)]), path, "csv")
    return path


def test_ncd_cluster_score_round_trip(tmp_path, capsys):
    corpus = write_corpus(tmp_path / "corpus")
    assert main(["ncd", str(corpus), "--out-dir", str(tmp_path / "ncd"), "--threads", "2"]) == 0
    matrix = tmp_path / "ncd" / "matrix.csv"
    assert matrix.is_file() and (tmp_path / "ncd" / "manifest.json").is_file()

    out = tmp_path / "cluster"
    assert main(["cluster", str(matrix), "--out-dir", str(out), "--max-trees", "3000", "--seed", "4"]) == 0
    result = json.loads((out / "result.json").read_text())
    assert sorted(result["names"]) == [f"item{i}" for i in range(8)]
    assert result["trees_examined"] <= 3000

    capsys.readouterr()
    assert main(["score", str(matrix), str(out / "tree.nwk"), "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["cost"] == result["best_cost"]
    assert report["score"] == result["best_score"]
    assert (report["m"], report["M"]) == (result["bounds"]["m"], result["bounds"]["M"])


def test_input_errors_exit_3(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("0,1,x\n1,0,2\nx,2,0\n")
    assert main(["cluster", str(bad), "--out-dir", str(tmp_path / "o")]) == 3
    assert "error" in capsys.readouterr().err

    matrix = planted_matrix(tmp_path / "m.csv")
    tree = tmp_path / "t.nwk"
    tree.write_text("((s0,s1),(s2,s3),(s4,(s5,(s6,(s7,zz)))));\n")
    assert main(["score", str(matrix), str(tree)]) == 3
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("threads", ["0", "-4"])
def test_ncd_rejects_thread_count_below_one(tmp_path, capsys, threads):
    corpus = write_corpus(tmp_path / "corpus", count=4, length=200)
    out = tmp_path / "ncd"
    assert main(["ncd", str(corpus), "--out-dir", str(out), "--threads", threads]) == 3
    assert "--threads must be >= 1" in capsys.readouterr().err
    assert not (out / "matrix.csv").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["cluster", "m.csv", "--bogus"],
        ["cluster", "m.csv", "--threads", "2"],
        ["bench", "artificial", "--n", "6", "--trials", "1", "--threads", "2"],
        ["bench", "stats", "--runs", "1", "--threads", "2"],
        ["frobnicate"],
    ],
)
def test_usage_errors_exit_2(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "usage:" in capsys.readouterr().err


def test_cluster_outputs_are_reproducible(tmp_path):
    matrix = planted_matrix(tmp_path / "m.csv")
    outs = [tmp_path / "a", tmp_path / "b"]
    for out in outs:
        assert main(["cluster", str(matrix), "--out-dir", str(out), "--seed", "7",
                     "--termination", "agreement"]) == 0
    a, b = outs
    for name in ("tree.nwk", "tree.dot"):
        assert (a / name).read_bytes() == (b / name).read_bytes()
    ra = json.loads((a / "result.json").read_text())
    rb = json.loads((b / "result.json").read_text())
    assert ra.pop("wall_time_s") >= 0 and rb.pop("wall_time_s") >= 0
    assert ra == rb
    assert ra["terminated_by"] in ("perfect_score", "agreement")
    assert "threads" not in ra["config"]


def read_header(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return next(csv.reader(fh))


def test_bench_artificial_writes_trials_and_summary(tmp_path):
    out = tmp_path / "art"
    assert main(["bench", "artificial", "--n", "7", "--trials", "2", "--mutations", "20",
                 "--out-dir", str(out)]) == 0
    trials = [json.loads(line) for line in (out / "trials.jsonl").read_text().splitlines()]
    assert [t["trial_id"] for t in trials] == [0, 1]
    assert {"exact", "s_score", "trees_examined", "planted_newick", "recovered_newick"} <= set(trials[0])
    summary = json.loads((out / "summary.json").read_text())
    assert summary["trials"] == 2 and summary["exact"] == sum(t["exact"] for t in trials)
    assert (out / "manifest.json").is_file()


def test_bench_stats_writes_documented_tables(tmp_path):
    out = tmp_path / "stats"
    assert main(["bench", "stats", "--runs", "2", "--n", "7", "--mutations", "20", "--k-max", "16",
                 "--out-dir", str(out)]) == 0
    assert read_header(out / "trees_examined_hist.csv") == ["bin_lo", "bin_hi", "count"]
    assert read_header(out / "k_mutation_pmf.csv") == ["k", "accepted_pmf", "rejected_pmf"]
    assert read_header(out / "progress.csv") == ["run_id", "trees_examined", "score"]
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["mode"] == "hill_climb"
    assert manifest["config"]["termination"] == "agreement"
