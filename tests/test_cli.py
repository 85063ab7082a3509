import csv
import hashlib
import json
import shlex
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest

from quartet.cli import build_parser, main
from quartet.cost import DistanceMatrix
from quartet.matrix_io import write_distance_matrix
from quartet.search import SearchConfig, replay_trace
from quartet.trees import hop_distances, random_tree, tree_from_newick, tree_to_newick, trees_equal

from conftest import dot_leaf_labels, overflowing_costs, rng_for
from test_ncd import dna_corpus


def write_corpus(directory, count=8, length=1200, seed=5):
    directory.mkdir()
    for item in dna_corpus(count, length, seed):
        (directory / item.name).write_bytes(item.data)
    return directory


def planted_matrix(path, n=9, seed=3, names=None):
    t = random_tree(n, rng_for(seed))
    d = (hop_distances(t).astype(float) + 1.0) / n
    np.fill_diagonal(d, 0.0)
    names = names or [f"s{i}" for i in range(n)]
    write_distance_matrix(DistanceMatrix(d, names), path, "csv")
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

    assert main(["cluster", str(matrix), "--out-dir", str(tmp_path / "o"), "--temperature", "inf"]) == 3
    assert "metropolis_temperature" in capsys.readouterr().err

    assert main(["cluster", str(matrix), "--out-dir", str(tmp_path / "o"),
                 "--termination", "agreement", "--runs", "1"]) == 3
    assert capsys.readouterr().err == "error: agreement termination needs at least 2 runs, got 1\n"

    unnamed = tmp_path / "unnamed.csv"
    unnamed.write_text(",x,c,d,e\n0,1,1,1,1\n1,0,1,1,1\n1,1,0,1,1\n1,1,1,0,1\n1,1,1,1,0\n")
    assert main(["cluster", str(unnamed), "--out-dir", str(tmp_path / "o")]) == 3
    assert "must not be empty" in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["distances-8", "distances-5"])
def test_costs_whose_sums_overflow_exit_3(tmp_path, capsys, kind):
    dm = overflowing_costs(kind).dm
    matrix = tmp_path / "m.csv"
    write_distance_matrix(dm, matrix, "csv")
    tree = tmp_path / "t.nwk"
    tree.write_text(tree_to_newick(random_tree(dm.n, rng_for(1))) + "\n")
    out = tmp_path / "o"
    for argv in (["cluster", str(matrix), "--out-dir", str(out)], ["score", str(matrix), str(tree)]):
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: costs too large: 8*max(|m|, |M|) must be finite, got m=")
        assert err.count("\n") == 1  # no numpy warning
    assert not (out / "result.json").exists()


@pytest.mark.parametrize("fmt, name", [("csv", "matrix.csv"), ("phylip", "matrix.phy"),
                                       ("nexus", "matrix.nex")])
def test_ncd_names_its_matrix_by_format(tmp_path, fmt, name):
    corpus = write_corpus(tmp_path / "corpus", count=4, length=200)
    out = tmp_path / "ncd"
    assert main(["ncd", str(corpus), "--out-dir", str(out), "--format", fmt]) == 0
    assert sorted(p.name for p in out.iterdir()) == sorted([name, "manifest.json"])


def test_ncd_phylip_names_that_collide_exit_3(tmp_path, capsys):
    corpus = write_corpus(tmp_path / "corpus", count=4, length=200)
    (corpus / "item0").rename(corpus / "a b")
    (corpus / "item1").rename(corpus / "a_b")
    out = tmp_path / "ncd"
    assert main(["ncd", str(corpus), "--out-dir", str(out), "--format", "phylip"]) == 3
    assert "PHYLIP" in capsys.readouterr().err
    assert not (out / "matrix.phy").exists()


def test_ncd_needs_four_corpus_files(tmp_path, capsys):
    corpus = write_corpus(tmp_path / "corpus", count=3, length=200)
    out = tmp_path / "ncd"
    assert main(["ncd", str(corpus), "--out-dir", str(out)]) == 3
    assert capsys.readouterr().err == "error: need at least 4 corpus files, got 3\n"
    assert not out.exists()


@pytest.mark.parametrize("threads", ["0", "-4"])
def test_ncd_rejects_thread_count_below_one(tmp_path, capsys, threads):
    corpus = write_corpus(tmp_path / "corpus", count=4, length=200)
    out = tmp_path / "ncd"
    assert main(["ncd", str(corpus), "--out-dir", str(out), "--threads", threads]) == 3
    assert "--threads must be >= 1" in capsys.readouterr().err
    assert not (out / "matrix.csv").exists()


STATS = ["bench", "stats", "--n", "6"]


@pytest.mark.parametrize(
    "argv,message",
    [
        ([*STATS, "--runs", "2", "--bin-width", "0"], "bin_width must be >= 1"),
        ([*STATS, "--runs", "2", "--bin-width", "-5"], "bin_width must be >= 1"),
        ([*STATS, "--runs", "-1"], "runs must be >= 1"),
        ([*STATS, "--runs", "0"], "runs must be >= 1"),
        (["bench", "artificial", "--n", "6", "--trials", "0"], "trials must be >= 1"),
        (["bench", "artificial", "--n", "6", "--trials", "-2"], "trials must be >= 1"),
        ([*STATS, "--runs", "2", "--instance-seed", "-1"], "instance_seed must be >= 0, got -1"),
    ],
)
def test_bench_counts_below_one_exit_3(tmp_path, capsys, argv, message):
    out = tmp_path / "out"
    assert main([*argv, "--max-trees", "50", "--out-dir", str(out)]) == 3
    assert message in capsys.readouterr().err
    assert not (out / "trials.jsonl").exists() and not (out / "manifest.json").exists()


@pytest.mark.parametrize(
    "argv,message",
    [
        (["--runs", "2", "--bin-width", "0"], "bin_width must be >= 1"),
        (["--runs", "0"], "runs must be >= 1"),
        (["--runs", "2", "--instance-seed", "-1"], "instance_seed must be >= 0, got -1"),
    ],
)
def test_bench_stats_rejects_counts_before_generating(tmp_path, capsys, monkeypatch, argv, message):
    def must_not_run(*args, **kwargs):
        raise AssertionError("instance generated before the counts were checked")

    monkeypatch.setattr("quartet.cli.generate_artificial", must_not_run)
    out = tmp_path / "out"
    assert main([*STATS, *argv, "--max-trees", "50", "--out-dir", str(out)]) == 3
    assert message in capsys.readouterr().err
    assert not (out / "progress.csv").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["cluster", "m.csv", "--bogus"],
        ["cluster", "m.csv", "--threads", "2"],
        ["bench", "artificial", "--n", "6", "--trials", "1", "--threads", "2"],
        ["bench", "stats", "--runs", "1", "--threads", "2"],
        ["frobnicate"],
        ["cluster", "m.csv", "--scorer", "naive"],
        ["bench", "artificial", "--n", "6", "--trials", "1", "--scorer", "fast"],
        ["bench", "stats", "--runs", "1", "--scorer", "naive"],
        ["bench", "artificial", "--n", "6", "--trials", "1", "--mutations", "20"],
        ["bench", "stats", "--runs", "1", "--mutations", "20"],
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


@pytest.mark.parametrize("k_max", [None, 7])
def test_cluster_records_hill_k_max(tmp_path, k_max):
    matrix = planted_matrix(tmp_path / "m.csv")
    out = tmp_path / "c"
    extra = [] if k_max is None else ["--k-max", str(k_max)]
    assert main(["cluster", str(matrix), "--out-dir", str(out), "--mode", "hill",
                 "--max-trees", "200", *extra]) == 0
    result = json.loads((out / "result.json").read_text())
    manifest = json.loads((out / "manifest.json").read_text())
    assert result["mode"] == "hill_climb"
    assert result["config"]["k_max"] == k_max
    assert manifest["config"]["k_max"] == k_max


def test_manifest_records_the_arguments_main_parsed(tmp_path):
    matrix = planted_matrix(tmp_path / "m.csv")
    argv = ["cluster", str(matrix), "--out-dir", str(tmp_path / "c"), "--max-trees", "50"]
    assert main(argv) == 0
    manifest = json.loads((tmp_path / "c" / "manifest.json").read_text())
    assert manifest["command"] == ["quartet", *argv]
    assert manifest["subcommand"] == "cluster"


def test_cluster_result_counts_full_scores(tmp_path):
    matrix = planted_matrix(tmp_path / "m.csv", n=16)
    assert main(["cluster", str(matrix), "--out-dir", str(tmp_path / "c"), "--seed", "2"]) == 0
    result = json.loads((tmp_path / "c" / "result.json").read_text())
    assert result["terminated_by"] == "perfect_score"
    assert 0 < result["full_scores"] < result["trees_examined"]


def files_in(directory):
    return {p.name: p.read_bytes() for p in directory.iterdir()}


@pytest.mark.parametrize(
    "argv,message",
    [
        (["cluster", "M", "--progress", "--seed", "-1"], "seed must be >= 0, got -1"),
        (["bench", "artificial", "--n", "6", "--trials", "1", "--seed", "-1"],
         "seed must be >= 0, got -1"),
        (["bench", "stats", "--runs", "1", "--n", "6", "--seed", "-1"], "seed must be >= 0, got -1"),
        (["bench", "stats", "--runs", "1", "--n", "6", "--instance-seed", "-1"],
         "instance_seed must be >= 0, got -1"),
    ],
    ids=["cluster", "artificial", "stats", "stats-instance"],
)
def test_negative_seeds_exit_3_and_leave_an_earlier_run_intact(tmp_path, capsys, argv, message):
    matrix = planted_matrix(tmp_path / "m.csv")
    out = tmp_path / "out"
    assert main(["cluster", str(matrix), "--out-dir", str(out), "--progress", "--max-trees", "200"]) == 0
    before = files_in(out)
    assert before["progress.tsv"]
    capsys.readouterr()
    argv = [str(matrix) if x == "M" else x for x in argv]
    assert main([*argv, "--max-trees", "50", "--out-dir", str(out)]) == 3
    assert capsys.readouterr().err == f"error: {message}\n"
    assert files_in(out) == before
    assert main([*argv, "--max-trees", "50", "--out-dir", str(tmp_path / "new")]) == 3
    assert not (tmp_path / "new").exists()


def test_cluster_progress_and_trace_files(tmp_path):
    matrix = planted_matrix(tmp_path / "m.csv", n=12, seed=4)
    out = tmp_path / "c"
    assert main(["cluster", str(matrix), "--out-dir", str(out), "--progress", "--trace",
                 "--max-trees", "3000", "--seed", "3"]) == 0
    result = json.loads((out / "result.json").read_text())
    progress = [line.split("\t") for line in (out / "progress.tsv").read_text().splitlines()]
    assert [[int(t), float(s)] for t, s in progress] == result["history"]
    assert len(progress) >= 2
    best, _ = tree_from_newick((out / "tree.nwk").read_text(), result["names"])
    assert trees_equal(replay_trace(out / "trace.log")[2], best)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["outputs"] == ["tree.nwk", "tree.dot", "result.json", "progress.tsv", "trace.log"]
    assert manifest["config"]["progress_path"] == "progress.tsv"
    assert manifest["config"]["trace_path"] == "trace.log"


def test_score_report_lines_carry_the_json_values(tmp_path, capsys):
    matrix = planted_matrix(tmp_path / "m.csv", n=8, seed=6)
    tree = tmp_path / "t.nwk"
    names = [f"s{i}" for i in range(8)]
    tree.write_text(tree_to_newick(random_tree(8, rng_for(1)), names) + "\n")
    capsys.readouterr()
    assert main(["score", str(matrix), str(tree), "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert main(["score", str(matrix), str(tree)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        f"C_T  = {report['cost']!r}",
        f"m    = {report['m']!r}",
        f"M    = {report['M']!r}",
        f"S(T) = {report['score']!r}",
        f"R(T) = {report['room_for_improvement']!r}",
    ]
    assert 0 < report["score"] < 1


def test_bench_stats_records_the_matrix_it_read(tmp_path):
    matrix = planted_matrix(tmp_path / "m.csv", n=7)
    out = tmp_path / "stats"
    assert main(["bench", "stats", "--runs", "2", "--matrix", str(matrix), "--max-trees", "300",
                 "--out-dir", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    digest = "sha256:" + hashlib.sha256(matrix.read_bytes()).hexdigest()
    assert manifest["inputs"] == {str(matrix): digest}


def test_ncd_manifest_records_the_files_it_read(tmp_path):
    corpus = write_corpus(tmp_path / "corp")
    (corpus / "sub").mkdir()
    names = sorted(p.name for p in corpus.iterdir() if p.is_file())
    for name in names:
        (corpus / name).rename(corpus / "sub" / name)
    listing = corpus / "list.txt"
    listing.write_text("# listed\n" + "".join(f"sub/{name}\n" for name in names))
    out = tmp_path / "ncd"
    assert main(["ncd", str(listing), "--manifest", "--out-dir", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())

    def sha(path):
        return "sha256:" + hashlib.sha256(path.read_bytes()).hexdigest()

    want = {str(corpus / "sub" / name): sha(corpus / "sub" / name) for name in names}
    want[str(listing)] = sha(listing)
    assert manifest["inputs"] == want

    assert main(["ncd", str(corpus / "sub"), "--out-dir", str(tmp_path / "dir")]) == 0
    manifest = json.loads((tmp_path / "dir" / "manifest.json").read_text())
    assert manifest["inputs"] == {f"{corpus}/sub/{name}": sha(corpus / "sub" / name) for name in names}


def read_header(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return next(csv.reader(fh))


def test_bench_artificial_writes_trials_and_summary(tmp_path):
    out = tmp_path / "art"
    assert main(["bench", "artificial", "--n", "7", "--trials", "2",
                 "--out-dir", str(out)]) == 0
    trials = [json.loads(line) for line in (out / "trials.jsonl").read_text().splitlines()]
    assert [t["trial_id"] for t in trials] == [0, 1]
    assert {"exact", "s_score", "trees_examined", "planted_newick", "recovered_newick"} <= set(trials[0])
    summary = json.loads((out / "summary.json").read_text())
    assert summary["trials"] == 2 and summary["exact"] == sum(t["exact"] for t in trials)
    assert (out / "manifest.json").is_file()


def test_bench_stats_writes_documented_tables(tmp_path):
    out = tmp_path / "stats"
    assert main(["bench", "stats", "--runs", "2", "--n", "7", "--k-max", "16",
                 "--out-dir", str(out)]) == 0
    assert read_header(out / "trees_examined_hist.csv") == ["bin_lo", "bin_hi", "count"]
    assert read_header(out / "k_mutation_pmf.csv") == ["k", "accepted_pmf", "rejected_pmf"]
    assert read_header(out / "progress.csv") == ["run_id", "trees_examined", "score"]
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["mode"] == "hill_climb"
    assert manifest["config"]["termination"] == "agreement"


def test_cluster_dot_labels_read_back_as_the_matrix_names(tmp_path):
    names = ['a"b', "c\\d", "e f", "ü漢", '"', "\\", '\\"', "end\\"]
    matrix = planted_matrix(tmp_path / "m.csv", n=8, names=names)
    assert main(["cluster", str(matrix), "--out-dir", str(tmp_path / "c")]) == 0
    labels = dot_leaf_labels((tmp_path / "c" / "tree.dot").read_text(encoding="utf-8"))
    result = json.loads((tmp_path / "c" / "result.json").read_text(encoding="utf-8"))
    assert result["names"] == names and labels == dict(enumerate(names))


# (flags, SearchConfig field, value); "RUNS" is --runs, or --agreement-runs under bench stats
SEARCH_FLAGS = [
    (["--seed", "3"], "seed", 3),
    (["--termination", "simple"], "termination", "simple"),
    (["--termination", "agreement"], "termination", "agreement"),
    (["--patience", "7"], "patience", 7),
    (["--max-trees", "40"], "max_trees", 40),
    (["--mode", "hill"], "mode", "hill_climb"),
    (["--mode", "metropolis"], "mode", "metropolis"),
    (["RUNS", "2"], "runs_r", 2),
    (["--trial-length", "3"], "trial_length", 3),
    (["--temperature", "0.5"], "metropolis_temperature", 0.5),
    (["--k-max", "4"], "k_max", 4),
]


@pytest.mark.parametrize("flag", [None, *SEARCH_FLAGS],
                         ids=lambda f: "none" if f is None else f"{f[1]}={f[0][1]}")
@pytest.mark.parametrize("command", ["cluster", "stats"])
def test_each_search_flag_sets_its_config_field(tmp_path, command, flag):
    out = tmp_path / "o"
    if command == "cluster":
        argv = ["cluster", str(planted_matrix(tmp_path / "m.csv", n=6)), "--out-dir", str(out)]
        expected = SearchConfig()
    else:
        argv = ["bench", "stats", "--runs", "1", "--n", "5", "--out-dir", str(out)]
        expected = SearchConfig(mode="hill_climb", termination="agreement")
    if flag is not None:
        flags, field, value = flag
        runs = "--runs" if command == "cluster" else "--agreement-runs"
        argv += [runs if f == "RUNS" else f for f in flags]
        expected = replace(expected, **{field: value})
    assert main(argv) == 0
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["config"] == asdict(expected)


def test_every_readme_example_parses():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    examples = [line for line in readme.read_text(encoding="utf-8").splitlines()
                if line.startswith("quartet ")]
    parser = build_parser()
    commands = {parser.parse_args(shlex.split(line)[1:]).func.__name__ for line in examples}
    assert commands == {"_cmd_ncd", "_cmd_cluster", "_cmd_score", "_cmd_bench_artificial",
                        "_cmd_bench_stats"}
