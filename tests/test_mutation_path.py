import pytest

from quartet.mutate import replay_records
from quartet.trees import random_tree, trees_equal

from conftest import enumerate_all_trees, mutation_path, rng_for

ALLOWED_KINDS = {"leaf_interchange", "subtree_interchange"}


def test_identity_path(rng):
    t = random_tree(10, rng)
    assert mutation_path(t, t) == []


def test_label_mismatch_rejected(rng):
    with pytest.raises(ValueError):
        mutation_path(random_tree(5, rng), random_tree(6, rng))


def test_all_n4_pairs():
    trees = list(enumerate_all_trees(4))
    for a in trees:
        for b in trees:
            recs = mutation_path(a, b)
            assert len(recs) <= 4
            assert trees_equal(replay_records(a, recs), b)


def test_500_random_pairs_within_bound():
    rng = rng_for(31337)
    for trial in range(500):
        n = 5 + trial % 8  # 5..12
        t0 = random_tree(n, rng)
        t1 = random_tree(n, rng)
        recs = mutation_path(t0, t1)
        assert trees_equal(replay_records(t0, recs), t1)
        assert len(recs) <= 5 * n - 16
        assert all(r.kind in ALLOWED_KINDS for r in recs)


def test_subtree_swaps_always_target_leaves():
    # the construction only ever swaps a subtree with a single leaf
    rng = rng_for(8)
    for _ in range(50):
        n = int(rng.integers(5, 11))
        t0, t1 = random_tree(n, rng), random_tree(n, rng)
        for rec in mutation_path(t0, t1):
            if rec.kind == "subtree_interchange":
                u, x, y, w = rec.operands
                assert w < n


def test_larger_sizes_spot_check():
    rng = rng_for(9)
    for n in (20, 33):
        t0, t1 = random_tree(n, rng), random_tree(n, rng)
        recs = mutation_path(t0, t1)
        assert trees_equal(replay_records(t0, recs), t1)
        assert len(recs) <= 5 * n - 16
