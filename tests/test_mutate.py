import functools
import math

import mpmath
import numpy as np
import pytest

from quartet.mutate import (
    MutationRecord,
    _Draws,
    apply_record,
    replay_records,
    sample_k,
    shifted_pmf_normalizer,
    simple_mutation,
)
from quartet.trees import Tree, random_tree, trees_equal

from conftest import caterpillar, embedded_quartets, one_move, rng_for, sample_k_batch, shifted_pmf


# ------------------------------------------------------------- invariants


def test_simple_mutations_preserve_invariants():
    rng = rng_for(11)
    for _ in range(800):
        n = int(rng.integers(4, 20))
        t = random_tree(n, rng)
        adj = t.copy_adjacency()
        simple_mutation(adj, rng)
        t2 = Tree(adj)  # constructor re-validates everything
        assert t2.leaf_count == n and t2.node_count == 2 * n - 2


def test_records_invertible():
    rng = rng_for(12)
    for _ in range(500):
        n = int(rng.integers(4, 16))
        t = random_tree(n, rng)
        adj = t.copy_adjacency()
        rec = simple_mutation(adj, rng)
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
        t2, rec = one_move(t6, "leaf_interchange", rng)
        assert rec is not None
        assert embedded_quartets(t2) != embedded_quartets(t6)


def test_subtree_interchange_inverse_replay(rng):
    for _ in range(100):
        n = int(rng.integers(5, 12))
        t = random_tree(n, rng)
        t2, rec = one_move(t, "subtree_interchange", rng)
        assert rec is not None and rec.kind == "subtree_interchange"
        back = replay_records(t2, [rec.inverse()])
        assert trees_equal(back, t)
    # n=5 always has an eligible pair
    for _ in range(10):
        _, rec = one_move(random_tree(5, rng), "subtree_interchange", rng)
        assert rec is not None


def test_subtree_transfer_roundtrip_and_census(rng):
    for _ in range(100):
        n = int(rng.integers(5, 12))
        t = random_tree(n, rng)
        t2, rec = one_move(t, "subtree_transfer", rng)
        assert rec is not None and rec.kind == "subtree_transfer"
        assert trees_equal(replay_records(t2, [rec.inverse()]), t)
        assert not trees_equal(t2, t)  # reattachment site excludes the smoothed edge
    # repeated transfers escape the caterpillar shape quickly
    start = caterpillar(8)
    cat_key = start.canonical_key()

    def is_caterpillar(tree):
        # caterpillar shape: exactly two internal nodes carry two leaves
        per = [sum(1 for w in tree.neighbors(v) if w < tree.n) for v in tree.internal_nodes]
        return sorted(per) == [1] * (tree.n - 4) + [2, 2]

    assert is_caterpillar(start)
    t = start
    for draws in range(100):
        t, rec = one_move(t, "subtree_transfer", rng)
        if not is_caterpillar(t):
            break
    else:
        pytest.fail("100 transfers never left the caterpillar shape")
    del cat_key


def test_no_op_signaling_at_n4(rng):
    t = random_tree(4, rng)
    assert one_move(t, "subtree_interchange", rng)[1] is None
    assert one_move(t, "subtree_transfer", rng)[1] is None
    t2, rec = one_move(t, "leaf_interchange", rng)
    assert rec is not None and not trees_equal(t, t2)


def test_k_mutation(rng):
    # fuzz: k simple mutations in a row stay valid and replay, for large k
    # across sizes
    for _ in range(60):
        n = int(rng.integers(4, 33))
        k = int(rng.integers(1, 300))
        t = random_tree(n, rng)
        adj = t.copy_adjacency()
        recs = [simple_mutation(adj, rng) for _ in range(k)]
        assert trees_equal(replay_records(t, recs), Tree(adj))


def test_record_text_round_trip(rng):
    t = random_tree(9, rng)
    adj = t.copy_adjacency()
    for _ in range(60):
        rec = simple_mutation(adj, rng)
        assert MutationRecord.from_line(rec.to_line()) == rec
    with pytest.raises(ValueError):
        MutationRecord.from_line("leaf_interchange 1")
    with pytest.raises(ValueError):
        MutationRecord.from_line("grow 1 2")


@pytest.mark.parametrize("line", ["leaf_interchange a b", "subtree_interchange 5 x 6 2",
                                  "subtree_transfer 0 5 1.5 6 7 8", ""])
def test_record_lines_reject_operands_that_are_not_integers(line):
    with pytest.raises(ValueError) as exc:
        MutationRecord.from_line(line)
    assert str(exc.value) == f"bad mutation record line: {line!r}"


def test_record_lines_reject_negative_node_ids():
    # -1 pads leaf rows of the working state; a record must not name it
    for line in ("leaf_interchange 0 -1", "subtree_interchange 5 -1 6 2",
                 "subtree_transfer 0 5 -1 6 7 8"):
        with pytest.raises(ValueError, match="negative node id"):
            MutationRecord.from_line(line)


@pytest.mark.parametrize(
    "line",
    ["leaf_interchange 7 8", "leaf_interchange 0 7", "leaf_interchange 0 77",
     "subtree_interchange 12 0 1 3", "subtree_transfer 0 6 7 8 9 11"],
)
def test_replay_records_rejects_nodes_outside_the_tree(line):
    # n=6: leaves 0..5, nodes 0..9; a leaf interchange of internal nodes
    # would otherwise replay into a different valid tree
    t = random_tree(6, np.random.Generator(np.random.PCG64(1)))
    with pytest.raises(ValueError, match=line):
        replay_records(t, [MutationRecord.from_line(line)])


def test_apply_record_rejects_stale_records(rng):
    t = random_tree(8, rng)
    adj = t.copy_adjacency()
    with pytest.raises(ValueError):
        apply_record(adj, MutationRecord("subtree_interchange", (8, 0, 1, 9)))


@pytest.mark.parametrize("ops", [(8, 10, 10, 0), (8, 1, 8, 1), (8, 1, 1, 8), (8, 1, 8, 8)])
def test_apply_record_rejects_near_interchanges_before_writing(ops):
    # at distance 2, adjacent, and a node with itself (twice)
    adj = random_tree(8, _Draws(3)).copy_adjacency()
    before = [row[:] for row in adj]
    with pytest.raises(ValueError, match="interchange record mismatch"):
        apply_record(adj, MutationRecord("subtree_interchange", ops))
    assert adj == before


# ------------------------------------------------------- fat-tail sampler


@functools.cache
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
    draws = sample_k_batch(rng, n_draws, k_max=1024)
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
    draws = sample_k_batch(rng, n_draws, k_max=1024)
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


# ------------------------------------------------------- draw stream

DRAW_HIGHS = (1, 2, 3, 22, 2**31 + 1, 2**32 - 5, 2**32)


@pytest.mark.parametrize("seed", [0, 1, 2, 7, 42, 99, 2**31, 2**63 + 5, 123456789, 2**64 - 1])
def test_draws_match_the_generator_value_for_value(seed):
    # the large highs reject often: with high = 2^31 + 1 about half the draws
    ours, numpy = _Draws(seed), np.random.Generator(np.random.PCG64(seed))
    pick = np.random.Generator(np.random.PCG64(seed + 1)).integers(len(DRAW_HIGHS) + 1, size=20_000)
    for i in pick.tolist():
        if i == len(DRAW_HIGHS):
            assert ours.random() == numpy.random()
        else:
            high = DRAW_HIGHS[i]
            assert ours.integers(high) == numpy.integers(high)
    assert ours.random() == numpy.random()  # still in step after the last kept half


def test_random_tree_and_sample_k_read_the_same_values_from_draws():
    for seed in range(10):
        for n in (4, 5, 9, 33):
            a = random_tree(n, _Draws(seed)).adj_array
            b = random_tree(n, np.random.Generator(np.random.PCG64(seed))).adj_array
            assert np.array_equal(a, b)
        draws = _Draws(seed)
        ks = [sample_k(draws, k_max=64) for _ in range(500)]
        want = sample_k_batch(np.random.Generator(np.random.PCG64(seed)), 500, k_max=64)
        assert ks == want.tolist()


@pytest.mark.parametrize("high", [0, -1, -(2**40), 2**32 + 1, 2**64])
def test_draws_reject_bounds_outside_one_to_two_to_the_32(high):
    with pytest.raises(ValueError, match="high"):
        _Draws(1).integers(high)
