import math

import mpmath
import numpy as np
import pytest

from quartet.mutate import (
    DEFAULT_K_MAX,
    MutationRecord,
    apply_record,
    k_mutation,
    leaf_interchange,
    replay_records,
    sample_k,
    sample_k_batch,
    shifted_pmf,
    shifted_pmf_normalizer,
    simple_mutation,
    subtree_interchange,
    subtree_transfer,
)
from quartet.trees import Tree, embedded_quartets, random_tree, trees_equal

from conftest import rng_for


# ------------------------------------------------------------- invariants


def test_simple_mutations_preserve_invariants():
    rng = rng_for(11)
    for _ in range(800):
        n = int(rng.integers(4, 20))
        t = random_tree(n, rng)
        adj = t.copy_adjacency()
        simple_mutation(adj, n, rng)
        t2 = Tree(adj)  # constructor re-validates everything
        assert t2.leaf_count == n and t2.node_count == 2 * n - 2


def test_records_invertible():
    rng = rng_for(12)
    for _ in range(500):
        n = int(rng.integers(4, 16))
        t = random_tree(n, rng)
        adj = t.copy_adjacency()
        rec = simple_mutation(adj, n, rng)
        apply_record(adj, rec.inverse())
        assert trees_equal(Tree(adj), t)


def test_leaf_interchange_swaps_and_keeps_shape(rng):
    t = Tree.from_adjacency({0: [4], 1: [4], 2: [5], 3: [5], 4: [0, 1, 5], 5: [2, 3, 4]})
    swapped = Tree.from_adjacency({0: [4], 2: [4], 1: [5], 3: [5], 4: [0, 2, 5], 5: [1, 3, 4]})
    adj = t.copy_adjacency()
    apply_record(adj, MutationRecord("leaf_interchange", (1, 2)))
    assert trees_equal(Tree(adj), swapped)
    # random leaf swaps always change the embedded set
    for _ in range(20):
        t6 = random_tree(6, rng)
        t2, rec = leaf_interchange(t6, rng)
        assert rec is not None
        assert embedded_quartets(t2) != embedded_quartets(t6)


def test_subtree_interchange_inverse_replay(rng):
    for _ in range(100):
        n = int(rng.integers(5, 12))
        t = random_tree(n, rng)
        t2, rec = subtree_interchange(t, rng)
        assert rec is not None and rec.kind == "subtree_interchange"
        back = replay_records(t2, [rec.inverse()])
        assert trees_equal(back, t)
    # n=5 always has an eligible pair
    for _ in range(10):
        _, rec = subtree_interchange(random_tree(5, rng), rng)
        assert rec is not None


def test_subtree_transfer_roundtrip_and_census(rng):
    for _ in range(100):
        n = int(rng.integers(5, 12))
        t = random_tree(n, rng)
        t2, rec = subtree_transfer(t, rng)
        assert rec is not None and rec.kind == "subtree_transfer"
        assert trees_equal(replay_records(t2, [rec.inverse()]), t)
        assert not trees_equal(t2, t)  # reattachment site excludes the smoothed edge
    # repeated transfers escape the caterpillar shape quickly
    from quartet.bench import caterpillar

    start = caterpillar(8)
    cat_key = start.canonical_key()

    def is_caterpillar(tree):
        # caterpillar shape: exactly two internal nodes carry two leaves
        per = [sum(1 for w in tree.neighbors(v) if w < tree.n) for v in tree.internal_nodes]
        return sorted(per) == [1] * (tree.n - 4) + [2, 2]

    assert is_caterpillar(start)
    t = start
    for draws in range(100):
        t, rec = subtree_transfer(t, rng)
        if not is_caterpillar(t):
            break
    else:
        pytest.fail("100 transfers never left the caterpillar shape")
    del cat_key


def test_no_op_signaling_at_n4(rng):
    t = random_tree(4, rng)
    assert subtree_interchange(t, rng)[1] is None
    assert subtree_transfer(t, rng)[1] is None
    t2, rec = leaf_interchange(t, rng)
    assert rec is not None and not trees_equal(t, t2)


def test_k_mutation(rng):
    t = random_tree(8, rng)
    t1, recs = k_mutation(t, 1, rng)
    assert len(recs) == 1
    with pytest.raises(ValueError):
        k_mutation(t, 0, rng)
    # fuzz: validity for large k across sizes
    for _ in range(60):
        n = int(rng.integers(4, 33))
        k = int(rng.integers(1, 300))
        t = random_tree(n, rng)
        t2, recs = k_mutation(t, k, rng)
        assert len(recs) == k
        assert trees_equal(replay_records(t, recs), t2)


def test_record_text_round_trip(rng):
    t = random_tree(9, rng)
    adj = t.copy_adjacency()
    for _ in range(60):
        rec = simple_mutation(adj, 9, rng)
        assert MutationRecord.from_line(rec.to_line()) == rec
    with pytest.raises(ValueError):
        MutationRecord.from_line("leaf_interchange 1")
    with pytest.raises(ValueError):
        MutationRecord.from_line("grow 1 2")


def test_apply_record_rejects_stale_records(rng):
    t = random_tree(8, rng)
    adj = t.copy_adjacency()
    with pytest.raises(ValueError):
        apply_record(adj, MutationRecord("subtree_interchange", (8, 0, 1, 9)))


# ------------------------------------------------------- fat-tail sampler


def _oracle_normalizer():
    # partial sum plus exact integral tail (with half-term correction),
    # evaluated at two cutoffs to confirm convergence
    mpmath.mp.dps = 30
    vals = []
    for J in (10**5, 2 * 10**5):
        s = mpmath.fsum(1 / (j * mpmath.log(j) ** 2) for j in range(3, J))
        vals.append(s + 1 / mpmath.log(J) + 1 / (2 * J * mpmath.log(J) ** 2))
    assert abs(vals[0] - vals[1]) < 1e-12
    return float(vals[1])


def test_pmf_normalizer_matches_independent_summation():
    assert shifted_pmf_normalizer() == pytest.approx(_oracle_normalizer(), abs=1e-11)


def test_pmf_monotone_decreasing():
    k = np.arange(1, 1000)
    p = shifted_pmf(k)
    assert np.all(np.diff(p) < 0)


def test_empirical_pmf_matches_analytic():
    # 1e7 draws; every bucket k <= 20 within 1% of the analytic pmf
    rng = rng_for(123456)
    n_draws = 10_000_000
    draws = sample_k_batch(rng, n_draws)
    z = _oracle_normalizer()
    for k in range(1, 21):
        analytic = 1.0 / ((k + 2) * math.log(k + 2) ** 2) / z
        emp = float(np.count_nonzero(draws == k)) / n_draws
        assert abs(emp - analytic) <= 0.01 * analytic, (k, emp, analytic)


def test_tail_mass_at_100():
    # the cap only moves mass within k >= 100, so P(k >= 100) equals the
    # analytic tail 1 - sum_{k<100} p(k), roughly 1/(Z ln 102) ~ 0.2
    z = _oracle_normalizer()
    analytic_tail = 1.0 - sum(
        1.0 / ((k + 2) * math.log(k + 2) ** 2) / z for k in range(1, 100)
    )
    assert analytic_tail > 0
    rng = rng_for(4242)
    n_draws = 10_000_000
    draws = sample_k_batch(rng, n_draws)
    hits = int(np.count_nonzero(draws >= 100))
    assert hits >= 1
    expect = analytic_tail * n_draws
    sigma = math.sqrt(n_draws * analytic_tail * (1 - analytic_tail))
    assert abs(hits - expect) <= 3 * sigma, (hits, expect, sigma)


def test_sample_k_caps_and_scalar(rng):
    ks = [sample_k(rng, k_max=64) for _ in range(2000)]
    assert all(1 <= k <= 64 for k in ks)
    assert max(ks) == 64  # the clamp mass is large enough to show up
    for bad in (0, -2):
        with pytest.raises(ValueError, match="k_max"):
            sample_k(rng, k_max=bad)
        with pytest.raises(ValueError, match="k_max"):
            sample_k_batch(rng, 10, k_max=bad)
        with pytest.raises(ValueError, match="k_max"):
            shifted_pmf(1, k_max=bad)


def test_pmf_below_cap_unaffected_by_cap():
    k = np.arange(1, 33)
    free = shifted_pmf(k)
    capped = shifted_pmf(k, k_max=64)
    assert np.allclose(free, capped, rtol=0, atol=0)
