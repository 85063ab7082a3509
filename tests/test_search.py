import math

import numpy as np
import pytest

from quartet.cost import (
    DistanceCostFunction,
    DistanceMatrix,
    cost_from_mqc,
    tree_cost_naive,
)
from quartet.search import (
    SearchConfig,
    hill_climb,
    metropolis_trial,
    replay_trace,
    run_with_agreement,
    search,
    select_r,
)
from quartet.trees import Tree, embedded_quartets, hop_distances, random_tree, trees_equal

from conftest import (
    adversarial_five_costs,
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
    res = hill_climb(DistanceCostFunction(dm), seed=1, max_trees=10)
    assert res.best_score == 1.0
    assert res.terminated_by == "perfect_score"
    assert res.trees_examined <= 3


def test_hill_climb_recovers_adversarial_optimum():
    cf = adversarial_five_costs(0.1)
    res = hill_climb(cf, seed=2)
    assert res.best_score == pytest.approx(4 / 4.9, abs=1e-12)
    assert trees_equal(res.best_tree, five_leaf_target())
    assert res.terminated_by == "patience"


def test_hill_climb_recovers_planted_mqc(rng):
    planted = random_tree(10, rng)
    cf = cost_from_mqc(10, embedded_quartets(planted))
    res = hill_climb(cf, seed=3)
    assert res.best_score == 1.0
    assert trees_equal(res.best_tree, planted)
    assert res.k_accepted and res.k_rejected  # hill mode logs k lengths


def test_history_strictly_increasing_and_monotone(rng):
    dm = random_symmetric_matrix(12, rng)
    res = search(DistanceCostFunction(dm), seed=5, max_trees=3000)
    scores = [s for _, s in res.history]
    assert all(b > a for a, b in zip(scores, scores[1:]))
    counts = [t for t, _ in res.history]
    assert all(b > a for a, b in zip(counts, counts[1:]))
    assert res.best_score == scores[-1]
    assert 0.0 <= res.best_score <= 1.0


def test_determinism_same_seed(rng):
    dm = random_symmetric_matrix(9, rng)
    cf = DistanceCostFunction(dm)
    a = search(cf, seed=77, max_trees=2500)
    b = search(cf, seed=77, max_trees=2500)
    assert a.as_dict() == b.as_dict()
    assert trees_equal(a.best_tree, b.best_tree)
    assert a.history == b.history


def test_scorer_trajectory_equivalence(rng):
    # same seed, naive vs fast scoring: identical improvement trajectory
    dm = random_symmetric_matrix(8, rng)
    cf = DistanceCostFunction(dm)
    rn = search(cf, seed=13, scorer="naive", max_trees=3000)
    rf = search(cf, seed=13, scorer="fast", max_trees=3000)
    assert [t for t, _ in rn.history] == [t for t, _ in rf.history]
    assert trees_equal(rn.best_tree, rf.best_tree)
    assert rn.trees_examined == rf.trees_examined
    for (ta, sa), (tb, sb) in zip(rn.history, rf.history):
        assert sa == pytest.approx(sb, rel=1e-9)


def test_fast_scorer_requires_distances():
    cf = cost_from_mqc(5, [])
    with pytest.raises(ValueError):
        search(cf, scorer="fast")


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


def test_metropolis_trial_returns_best_seen(rng):
    planted, cf = planted_instance(8, 99)
    t0 = random_tree(8, rng)
    cost0 = tree_cost_naive(t0, cf)
    best = metropolis_trial(t0, cf, SearchConfig(trial_length=200), rng=rng_for(5))
    assert tree_cost_naive(best, cf) <= cost0


def test_metropolis_zero_temperature_never_accepts_worse(rng):
    # theta -> 0: the walk is strict-improvement; the best tree's cost equals
    # the walk end state's cost
    dm = random_symmetric_matrix(9, rng)
    cf = DistanceCostFunction(dm)
    cfg = SearchConfig(metropolis_temperature=1e-300, trial_length=500)
    t0 = random_tree(9, rng_for(8))
    best = metropolis_trial(t0, cf, cfg, rng=rng_for(9))
    assert tree_cost_naive(best, cf) <= tree_cost_naive(t0, cf)


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
    res = run_with_agreement(cf, seed=11)
    assert len(res.per_run_seeds) == select_r(12) == 4
    assert trees_equal(res.best_tree, planted)
    assert res.best_score == 1.0


def test_agreement_runs_override():
    planted, cf = planted_instance(10, 606)
    res = run_with_agreement(cf, seed=12, runs_r=2)
    assert len(res.per_run_seeds) == 2
    assert trees_equal(res.best_tree, planted)


def test_agreement_n4_unique_optimum(rng):
    dm = random_symmetric_matrix(4, rng)
    res = run_with_agreement(DistanceCostFunction(dm), seed=13)
    assert len(res.per_run_seeds) == 6
    assert res.best_score == 1.0


def test_agreement_terminates_on_suboptimal_consensus():
    # the 5-item adversarial instance has optimum < 1, so only agreement
    # (not the perfect-score certificate) can stop the search
    cf = adversarial_five_costs(0.1)
    res = run_with_agreement(cf, seed=14)
    assert res.terminated_by == "agreement"
    assert res.best_score == pytest.approx(4 / 4.9, abs=1e-12)
    assert trees_equal(res.best_tree, five_leaf_target())


def test_thread_count_does_not_change_results():
    planted, cf = planted_instance(11, 505)
    r1 = run_with_agreement(cf, seed=15)
    r4 = run_with_agreement(cf, seed=15)
    assert r1.as_dict() == r4.as_dict()
    assert trees_equal(r1.best_tree, r4.best_tree)
    assert r1.history == r4.history


def test_sequential_and_parallel_same_on_nonperfect():
    cf = adversarial_five_costs(0.25)
    r1 = run_with_agreement(cf, seed=16)
    r2 = run_with_agreement(cf, seed=16)
    assert r1.as_dict() == r2.as_dict()
    assert trees_equal(r1.best_tree, r2.best_tree)
    assert r1.history == r2.history


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


def test_config_validation():
    with pytest.raises(ValueError):
        SearchConfig(termination="sometimes")
    with pytest.raises(ValueError):
        SearchConfig(mode="walk")
    with pytest.raises(ValueError):
        SearchConfig(patience=0)
    with pytest.raises(ValueError):
        SearchConfig(metropolis_temperature=-1.0)
    with pytest.raises(ValueError):
        SearchConfig(scorer="magic")


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
