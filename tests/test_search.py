import math

import numpy as np
import pytest

from quartet.cost import (
    DistanceCostFunction,
    DistanceMatrix,
    ExplicitCostFunction,
    cost_from_mqc,
)
from quartet.fastcost import TreeCache
from quartet.mutate import max_path_moves
from quartet.search import (
    SearchConfig,
    replay_trace,
    search,
    select_r,
)
from quartet.trees import (
    Tree,
    enumerate_quartets,
    hop_distances,
    random_tree,
    trees_equal,
)

from conftest import (
    adversarial_five_costs,
    embedded_quartets,
    five_leaf_target,
    random_symmetric_matrix,
    rng_for,
)


def planted_instance(n, seed):
    rng = rng_for(seed)
    t = random_tree(n, rng)
    d = (hop_distances(t).astype(float) + 1.0) / n
    np.fill_diagonal(d, 0.0)
    return t, DistanceCostFunction(DistanceMatrix(d))


# ------------------------------------------------------------- select_r


@pytest.mark.parametrize(
    "n,r", [(4, 6), (5, 6), (6, 5), (9, 5), (10, 4), (12, 4), (15, 4), (16, 3), (17, 3), (18, 2), (100, 2)]
)
def test_select_r_table(n, r):
    assert select_r(n) == r


def test_select_r_rejects_small():
    with pytest.raises(ValueError):
        select_r(3)


# ------------------------------------------------------------- hill climb


def test_n4_converges_immediately(rng):
    dm = random_symmetric_matrix(4, rng)
    res = search(DistanceCostFunction(dm), mode="hill_climb", seed=1, max_trees=10)
    assert res.best_score == 1.0
    assert res.terminated_by == "perfect_score"
    assert res.trees_examined <= 3


def test_hill_climb_recovers_adversarial_optimum():
    cf = adversarial_five_costs(0.1)
    res = search(cf, mode="hill_climb", seed=2)
    assert res.best_score == pytest.approx(4 / 4.9, abs=1e-12)
    assert trees_equal(res.best_tree, five_leaf_target())
    assert res.terminated_by == "patience"


def test_hill_climb_recovers_planted_mqc(rng):
    planted = random_tree(10, rng)
    cf = cost_from_mqc(10, embedded_quartets(planted))
    res = search(cf, mode="hill_climb", seed=3)
    assert res.best_score == 1.0
    assert trees_equal(res.best_tree, planted)
    assert res.k_accepted and res.k_rejected  # hill mode logs k lengths


@pytest.mark.parametrize("n", [5, 8, 12])
def test_hill_climb_caps_k_at_path_bound_by_default(n):
    if n == 5:
        cf = adversarial_five_costs(0.1)  # never perfect, so the climb runs its budget
    else:
        cf = DistanceCostFunction(random_symmetric_matrix(n, rng_for(n)))
    res = search(cf, mode="hill_climb", seed=n, max_trees=1500)
    ks = res.k_accepted + res.k_rejected
    assert len(ks) == res.trees_examined - 1
    assert max(ks) == max_path_moves(n) == 5 * n - 16


def test_hill_climb_honours_explicit_k_max():
    res = search(adversarial_five_costs(0.1), mode="hill_climb", seed=5, max_trees=60, k_max=1024)
    assert max(res.k_accepted + res.k_rejected) > max_path_moves(5)


def test_history_strictly_increasing_and_monotone(rng):
    dm = random_symmetric_matrix(12, rng)
    res = search(DistanceCostFunction(dm), seed=5, max_trees=3000)
    scores = [s for _, s in res.history]
    assert all(b > a for a, b in zip(scores, scores[1:]))
    counts = [t for t, _ in res.history]
    assert all(b > a for a, b in zip(counts, counts[1:]))
    assert res.best_score == scores[-1]
    assert 0.0 <= res.best_score <= 1.0


@pytest.mark.parametrize(
    "make_cf,overrides",
    [
        pytest.param(lambda rng: DistanceCostFunction(random_symmetric_matrix(9, rng)),
                     dict(seed=77, max_trees=2500), id="random-9"),
        pytest.param(lambda rng: planted_instance(11, 505)[1],
                     dict(termination="agreement", seed=15), id="planted-11-agreement"),
        pytest.param(lambda rng: adversarial_five_costs(0.25),
                     dict(termination="agreement", seed=16), id="adversarial-5-agreement"),
    ],
)
def test_determinism_same_seed(rng, make_cf, overrides):
    cf = make_cf(rng)
    a = search(cf, **overrides)
    b = search(cf, **overrides)
    assert a.as_dict() == b.as_dict()
    assert trees_equal(a.best_tree, b.best_tree)
    assert a.history == b.history


def test_scorer_trajectory_equivalence(rng):
    # same seed, a distance-backed search (fast scorer) and one on the same
    # costs given explicitly (naive scorer): identical improvement trajectory
    dm = random_symmetric_matrix(8, rng)
    d = dm.d
    rows = [
        (d[a, b] + d[c, x], d[a, c] + d[b, x], d[a, x] + d[b, c])
        for a, b, c, x in enumerate_quartets(8)
    ]
    rf = search(DistanceCostFunction(dm), seed=13, max_trees=3000)
    rn = search(ExplicitCostFunction(8, np.array(rows)), seed=13, max_trees=3000)
    assert (rf.scorer, rn.scorer) == ("fast", "naive")
    assert [t for t, _ in rn.history] == [t for t, _ in rf.history]
    assert trees_equal(rn.best_tree, rf.best_tree)
    assert rn.trees_examined == rf.trees_examined
    for (ta, sa), (tb, sb) in zip(rn.history, rf.history):
        assert sa == pytest.approx(sb, rel=1e-9)


def test_early_exit_at_perfect_score(rng):
    planted, cf = planted_instance(10, 222)
    res = search(cf, seed=4)
    assert res.terminated_by == "perfect_score"
    assert trees_equal(res.best_tree, planted)
    # no further trees examined after the perfect one: the history's last
    # entry coincides with the final count
    assert res.history[-1][0] == res.trees_examined
    assert res.history[-1][1] == 1.0


def test_max_trees_cap(rng):
    dm = random_symmetric_matrix(14, rng)
    res = search(DistanceCostFunction(dm), seed=6, max_trees=500)
    assert res.terminated_by in ("max_trees", "perfect_score")
    assert res.trees_examined <= 500 + 14  # a Metropolis walk may finish its step


def test_patience_termination(rng):
    cf = adversarial_five_costs(0.1)
    res = search(cf, seed=7, patience=200)
    assert res.terminated_by == "patience"


# ------------------------------------------------------------ metropolis


def test_metropolis_acceptance_rule():
    # dC <= 0 always accepted, dC > 0 accepted with prob exp(-dC/theta):
    # drive a search at huge temperature; with acceptance ~1 the walk must
    # commit improvements found mid-walk
    planted, cf = planted_instance(6, 5)
    res = search(cf, seed=10, metropolis_temperature=1e9, max_trees=4000)
    assert res.best_score > 0.5


def test_metropolis_vs_hill_head_to_head():
    # measurement, not a hard gate: on a planted instance the walk mode
    # usually reaches the optimum in fewer examined trees
    wins = 0
    total = dict(metropolis=0, hill_climb=0)
    for s in range(10):
        planted, cf = planted_instance(10, 300 + s)
        rm = search(cf, seed=s, mode="metropolis")
        rh = search(cf, seed=s, mode="hill_climb")
        assert rm.best_score == 1.0 and rh.best_score == 1.0
        total["metropolis"] += rm.trees_examined
        total["hill_climb"] += rh.trees_examined
        wins += rm.trees_examined < rh.trees_examined
    print(f"\nmetropolis wins {wins}/10; examined totals {total}")


# ------------------------------------------------------------- agreement


def test_agreement_on_planted_tree():
    planted, cf = planted_instance(12, 404)
    res = search(cf, termination="agreement", seed=11)
    assert len(res.per_run_seeds) == select_r(12) == 4
    assert trees_equal(res.best_tree, planted)
    assert res.best_score == 1.0


def test_agreement_runs_override():
    planted, cf = planted_instance(10, 606)
    res = search(cf, termination="agreement", seed=12, runs_r=2)
    assert len(res.per_run_seeds) == 2
    assert trees_equal(res.best_tree, planted)


def test_agreement_n4_unique_optimum(rng):
    dm = random_symmetric_matrix(4, rng)
    res = search(DistanceCostFunction(dm), termination="agreement", seed=13)
    assert len(res.per_run_seeds) == 6
    assert res.best_score == 1.0


def test_agreement_terminates_on_suboptimal_consensus():
    # the 5-item adversarial instance has optimum < 1, so only agreement
    # (not the perfect-score certificate) can stop the search
    cf = adversarial_five_costs(0.1)
    res = search(cf, termination="agreement", seed=14)
    assert res.terminated_by == "agreement"
    assert res.best_score == pytest.approx(4 / 4.9, abs=1e-12)
    assert trees_equal(res.best_tree, five_leaf_target())


# ------------------------------------------------------------ io surfaces


def test_progress_log_and_trace(tmp_path, rng):
    dm = random_symmetric_matrix(10, rng)
    cf = DistanceCostFunction(dm)
    progress = tmp_path / "progress.tsv"
    trace = tmp_path / "trace.log"
    res = search(cf, seed=17, max_trees=2000,
                 progress_path=progress, trace_path=trace)
    lines = progress.read_text().strip().splitlines()
    assert len(lines) == len(res.history)
    for line, (t, s) in zip(lines, res.history):
        te, se = line.split("\t")
        assert int(te) == t and float(se) == s
    initial, records, final = replay_trace(trace)
    assert trees_equal(final, res.best_tree)


@pytest.mark.parametrize(
    "edit,message",
    [
        (lambda lines: [("# edge 0 99" if x.startswith("# edge") else x) for x in lines], "outside 0..17"),
        (lambda lines: [*lines, "leaf_interchange 0 12"], "outside 0..9"),
        (lambda lines: [*lines, "subtree_interchange 12 0 1 18"], "outside 0..17"),
    ],
    ids=["edge", "leaf_interchange", "subtree_interchange"],
)
def test_replay_trace_rejects_node_ids_outside_the_tree(tmp_path, edit, message):
    trace = tmp_path / "trace.log"
    search(DistanceCostFunction(random_symmetric_matrix(10, rng_for(2))), seed=3, max_trees=50,
           trace_path=trace)
    bad = tmp_path / "bad.log"
    bad.write_text("\n".join(edit(trace.read_text().splitlines())) + "\n")
    with pytest.raises(ValueError, match=message):
        replay_trace(bad)


def test_config_validation():
    with pytest.raises(ValueError):
        SearchConfig(termination="sometimes")
    with pytest.raises(ValueError):
        SearchConfig(mode="walk")
    with pytest.raises(ValueError):
        SearchConfig(patience=0)
    with pytest.raises(ValueError):
        SearchConfig(metropolis_temperature=-1.0)


def test_config_k_max_default_and_validation():
    assert SearchConfig().k_max is None
    assert SearchConfig(k_max=None).k_max is None
    assert SearchConfig(k_max=1).k_max == 1
    for bad in (0, -3):
        with pytest.raises(ValueError, match="k_max"):
            SearchConfig(k_max=bad)


def test_result_dict_shape(rng):
    dm = random_symmetric_matrix(6, rng)
    res = search(DistanceCostFunction(dm), seed=18, max_trees=200)
    d = res.as_dict()
    assert set(d) == {
        "best_score", "best_cost", "bounds", "trees_examined", "history",
        "per_run_seeds", "terminated_by", "mode", "scorer", "backend",
    }
    assert d["bounds"]["m"] <= d["best_cost"] <= d["bounds"]["M"]
    assert math.isfinite(d["best_score"])


# ------------------------------------------- delta shortcut and full scores


def noisy_instance(n, seed):
    _, cf = planted_instance(n, seed)
    noise = rng_for(seed + 1).uniform(0.0, 0.2, (n, n))
    d = cf.dm.d + (noise + noise.T)
    np.fill_diagonal(d, 0.0)
    return DistanceCostFunction(DistanceMatrix(d))


DELTA_SEARCHES = [  # (d, n, overrides, what stops the search)
    ("planted", 5, dict(), "perfect_score"),
    ("planted", 16, dict(termination="agreement"), "perfect_score"),
    ("planted", 32, dict(), "perfect_score"),
    ("planted", 48, dict(max_trees=3000), "max_trees"),
    ("noisy", 12, dict(patience=400), "patience"),
    ("noisy", 16, dict(termination="agreement"), "agreement"),
    ("noisy", 24, dict(max_trees=1500, trial_length=7), "max_trees"),
    ("noisy", 20, dict(metropolis_temperature=1e-300, patience=600), "patience"),
]


def delta_search_outputs(tmp_path, instance, n, overrides):
    cf = planted_instance(n, n)[1] if instance == "planted" else noisy_instance(n, n)
    tmp_path.mkdir()
    res = search(cf, seed=n + 1, progress_path=tmp_path / "progress.tsv",
                 trace_path=tmp_path / "trace.log", **overrides)
    files = [(tmp_path / name).read_text() for name in ("progress.tsv", "trace.log")]
    return res, [res.as_dict(), res.best_tree.canonical_key(), *files]


@pytest.mark.parametrize("instance,n,overrides,stop", DELTA_SEARCHES)
def test_delta_shortcut_leaves_metropolis_results_unchanged(tmp_path, monkeypatch, instance, n, overrides, stop):
    res, out = delta_search_outputs(tmp_path / "delta", instance, n, overrides)
    assert res.terminated_by == stop
    # a delta that never rules a proposal out: every proposal is scored in full
    monkeypatch.setattr(TreeCache, "delta", lambda self, rec: (0.0, 1.0))
    full, out_full = delta_search_outputs(tmp_path / "full", instance, n, overrides)
    assert out == out_full
    assert full.full_scores == full.trees_examined


def test_full_scores_count_trees_scored_in_full(rng):
    _, cf = planted_instance(16, 3)
    walk = search(cf, seed=2)
    assert walk.terminated_by == "perfect_score"
    assert 0 < walk.full_scores < walk.trees_examined
    hill = search(cf, mode="hill_climb", seed=2, max_trees=500)
    assert hill.full_scores == hill.trees_examined
    explicit = search(adversarial_five_costs(0.1), seed=2, max_trees=300)
    assert explicit.full_scores == explicit.trees_examined
