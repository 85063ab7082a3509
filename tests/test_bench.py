from types import SimpleNamespace

import numpy as np
import pytest

from quartet.bench import collect_runs, room_for_improvement, run_statistics, write_statistics_csv
from quartet.cost import DistanceCostFunction, DistanceMatrix


def fake_run(examined, accepted, rejected, history):
    """The fields of a ``SearchResult`` that ``run_statistics`` reads."""
    return SimpleNamespace(trees_examined=examined, k_accepted=accepted, k_rejected=rejected,
                           history=history)


RUNS = [
    fake_run(7, [1, 3], [1, 1, 2], [(1, 0.25), (5, 1.0)]),
    fake_run(30, [1], [2], [(1, 0.1)]),
]


def test_run_statistics_tables():
    stats = run_statistics(RUNS, bin_width=10)
    assert stats["runs"] == 2 and stats["bin_width"] == 10
    assert stats["trees_examined_hist"] == [(0, 10, 1), (10, 20, 0), (20, 30, 0), (30, 40, 1)]
    assert stats["k_pmf"] == [(1, 2 / 3, 0.5), (2, 0.0, 0.5), (3, 1 / 3, 0.0)]
    assert stats["progress"] == [(0, 1, 0.25), (0, 5, 1.0), (1, 1, 0.1)]
    assert run_statistics(RUNS)["bin_width"] == 2  # ceil(30 / 25)


def test_statistics_csv_files_byte_for_byte(tmp_path):
    paths = write_statistics_csv(run_statistics(RUNS, bin_width=10), tmp_path / "out")
    want = {
        "trees_examined_hist": "bin_lo,bin_hi,count\r\n0,10,1\r\n10,20,0\r\n20,30,0\r\n30,40,1\r\n",
        "k_mutation_pmf": "k,accepted_pmf,rejected_pmf\r\n1,0.66666666666666663,0.5\r\n"
                          "2,0,0.5\r\n3,0.33333333333333331,0\r\n",
        "progress": "run_id,trees_examined,score\r\n0,1,0.25\r\n0,5,1\r\n1,1,0.10000000000000001\r\n",
    }
    assert list(paths) == list(want)
    for stem, text in want.items():
        assert paths[stem] == tmp_path / "out" / f"{stem}.csv"
        assert paths[stem].read_bytes() == text.encode()


@pytest.mark.parametrize("call, message", [
    (lambda: collect_runs(DistanceCostFunction(DistanceMatrix(1.0 - np.eye(5))), 0),
     "runs must be >= 1, got 0"),
    (lambda: run_statistics([]), "need at least one run"),
    (lambda: run_statistics(RUNS, bin_width=0), "bin_width must be >= 1, got 0"),
    (lambda: room_for_improvement(1.5), "score must lie in [0, 1], got 1.5"),
    (lambda: room_for_improvement(-0.1), "score must lie in [0, 1], got -0.1"),
], ids=["no-runs", "empty", "zero-bin", "above-one", "below-zero"])
def test_bench_rejects_what_it_cannot_summarise(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message
