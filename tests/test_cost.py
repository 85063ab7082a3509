import itertools
import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from quartet.bench import generate_artificial
from quartet.cost import (
    CostFunction,
    DistanceCostFunction,
    DistanceMatrix,
    ExplicitCostFunction,
    IncompleteCostFunctionError,
    ScoreBounds,
    _gromov_accept,
    _unrank_quartet,
    bounds,
    cost_from_mqc,
    is_min_perfect,
    quartet_rank,
    score,
    score_from_cost,
    tree_cost_naive,
)
from quartet.trees import (
    QuartetTopology,
    Tree,
    enumerate_quartets,
    hop_distances,
    random_tree,
    topology_from_index,
)

from conftest import (
    OVERFLOWING,
    adversarial_five_costs,
    all_topologies,
    embedded_quartets,
    enumerate_all_trees,
    five_leaf_target,
    floyd_warshall_leaf_hops,
    is_consistent,
    one_move,
    overflowing_costs,
    random_symmetric_matrix,
    rng_for,
)


def four_leaf_tree():
    return Tree.from_adjacency({0: [4], 1: [4], 2: [5], 3: [5], 4: [0, 1, 5], 5: [2, 3, 4]})


def explicit_n4(c01, c02, c03):
    return ExplicitCostFunction.from_mapping(
        4,
        {
            QuartetTopology((0, 1), (2, 3)): c01,
            QuartetTopology((0, 2), (1, 3)): c02,
            QuartetTopology((0, 3), (1, 2)): c03,
        },
    )


# ----------------------------------------------------------------- basics


def test_quartet_rank_is_colex_order():
    for want, quartet in enumerate(enumerate_quartets(8)):
        assert quartet_rank(*quartet) == want


@pytest.mark.parametrize("labels", [(1, 1, 2, 3), (0, 0, 0, 4), (-1, 0, 1, 2)])
def test_quartet_rank_rejects_repeated_or_negative_labels(labels):
    with pytest.raises(ValueError) as exc:
        quartet_rank(*labels)
    assert str(exc.value) == f"quartet labels must be distinct and >= 0, got {labels}"


def test_a_negative_label_is_no_other_quartets_slot():
    topo = QuartetTopology((-1, 0), (1, 2))
    for call in label_checks(6, topo):
        with pytest.raises(ValueError, match="must be distinct and >= 0"):
            call()


@pytest.mark.parametrize("n", range(4, 10))
def test_unrank_inverts_quartet_rank(n):
    quartets = list(enumerate_quartets(n))
    assert [_unrank_quartet(n, quartet_rank(*q)) for q in quartets] == quartets


def label_checks(n, topo):
    """The four entry points that check a topology's labels against n."""
    yield lambda: DistanceCostFunction(DistanceMatrix(1.0 - np.eye(n))).cost_of(topo)
    yield lambda: ExplicitCostFunction(n, np.ones((math.comb(n, 4), 3))).cost_of(topo)
    yield lambda: ExplicitCostFunction.from_mapping(n, {topo: 0.0})
    yield lambda: cost_from_mqc(n, [topo])


@pytest.mark.parametrize("pairs, label", [(((0, 1), (2, 6)), 6), (((9, 1), (7, 3)), 9)])
def test_every_label_check_gives_one_message(pairs, label):
    topo = QuartetTopology(*pairs)
    for call in label_checks(6, topo):
        with pytest.raises(ValueError) as err:
            call()
        assert str(err.value) == f"topology {topo} uses label {label} outside 0..5"


def test_distance_matrix_validation():
    with pytest.raises(ValueError):
        DistanceMatrix(np.array([[0.0, -1.0], [-1.0, 0.0]]))
    with pytest.raises(ValueError):
        DistanceMatrix(np.array([[0.0, np.inf], [np.inf, 0.0]]))
    d = np.zeros((3, 3))
    d[0, 1] = 1.0
    with pytest.raises(ValueError):
        DistanceMatrix(d)  # asymmetric
    with pytest.raises(ValueError):
        DistanceMatrix(np.zeros((4, 4)), names=["a", "a", "b", "c"])


def test_cost_of_distance_backed():
    d = np.zeros((4, 4))
    d[0, 1] = d[1, 0] = 1.0
    d[2, 3] = d[3, 2] = 2.0
    cf = DistanceCostFunction(DistanceMatrix(d))
    assert cf.cost_of(QuartetTopology((0, 1), (2, 3))) == 3.0
    assert cf.cost_of(QuartetTopology((0, 2), (1, 3))) == 0.0
    zero = DistanceCostFunction(DistanceMatrix(np.zeros((5, 5))))
    assert all(zero.cost_of(t) == 0.0 for t in [QuartetTopology((0, 1), (2, 4))])
    with pytest.raises(ValueError):
        cf.cost_of(QuartetTopology((0, 1), (2, 9)))


def test_explicit_mapping_must_be_total():
    with pytest.raises(IncompleteCostFunctionError):
        ExplicitCostFunction.from_mapping(4, {QuartetTopology((0, 1), (2, 3)): 1.0})


@pytest.mark.parametrize("rank", [0, 247, 494])  # the first, a middle and the last of C(12,4)
def test_incomplete_mapping_names_the_missing_topology(rank):
    n = 12
    hole = topology_from_index(list(enumerate_quartets(n))[rank], 1)
    mapping = {topo: 1.0 for topo in all_topologies(n)}
    del mapping[hole]
    with pytest.raises(IncompleteCostFunctionError) as err:
        ExplicitCostFunction.from_mapping(n, mapping)
    assert str(err.value) == f"no cost assigned to topology {hole} (1 topologies missing in total)"


@pytest.mark.parametrize("make", [
    lambda: ExplicitCostFunction(3, np.zeros((0, 3))),
    lambda: DistanceCostFunction(DistanceMatrix(np.zeros((3, 3)))),
], ids=["explicit", "distances"])
def test_cost_functions_need_four_items(make):
    with pytest.raises(ValueError, match=r"^need at least 4 items, got n=3$"):
        make()


def test_the_base_cost_function_computes_nothing():
    cf = CostFunction()
    with pytest.raises(NotImplementedError):
        cf.cost_of(QuartetTopology((0, 1), (2, 3)))
    with pytest.raises(NotImplementedError):
        cf.slab_costs()


def test_cost_from_mqc():
    rng = rng_for(3)
    t = random_tree(5, rng)
    cf = cost_from_mqc(5, embedded_quartets(t))
    # optimum exactly at the planted tree, and only there
    best = [s for s in range(1)]
    scores = []
    for cand in enumerate_all_trees(5):
        s = score(cand, cf)
        scores.append((s, cand))
    from quartet.trees import trees_equal

    tops = [cand for s, cand in scores if s == 1.0]
    assert len(tops) == 1 and trees_equal(tops[0], t)
    assert all(s < 1.0 for s, cand in scores if not trees_equal(cand, t))
    del best

    # empty set: all-ones costs, degenerate bounds
    cf0 = cost_from_mqc(5, [])
    b = bounds(cf0)
    assert b.m == b.M == math.comb(5, 4)
    # single planted topology: any tree embedding it costs C(n,4)-1
    topo = QuartetTopology((0, 1), (2, 3))
    cf1 = cost_from_mqc(5, [topo])
    for cand in enumerate_all_trees(5):
        want = math.comb(5, 4) - (1 if is_consistent(cand, topo) else 0)
        assert tree_cost_naive(cand, cf1) == want


# ------------------------------------------------------------- tree costs


def test_tree_cost_single_quartet():
    cf = explicit_n4(3.0, 7.0, 9.0)
    assert tree_cost_naive(four_leaf_tree(), cf) == 3.0
    b = bounds(cf)
    assert (b.m, b.M) == (3.0, 9.0)


def test_tree_cost_zero_matrix(rng):
    cf = DistanceCostFunction(DistanceMatrix(np.zeros((6, 6))))
    for _ in range(3):
        assert tree_cost_naive(random_tree(6, rng), cf) == 0.0


def test_naive_cost_matches_literal_sum(rng):
    for n in (5, 6, 8):
        t = random_tree(n, rng)
        dm = random_symmetric_matrix(n, rng)
        cf = DistanceCostFunction(dm)
        literal = sum(cf.cost_of(topo) for topo in sorted(embedded_quartets(t), key=str))
        assert tree_cost_naive(t, cf) == pytest.approx(literal, rel=1e-12)


def test_adversarial_five_instance():
    cf = adversarial_five_costs(0.1)
    b = bounds(cf)
    assert b.M == pytest.approx(5 - 0.1, abs=1e-15)
    assert b.m == 0.0
    t0 = five_leaf_target()
    assert tree_cost_naive(t0, cf) == pytest.approx(0.9, abs=1e-15)
    # brute force over all 15 trees: max score is 4/4.9 at t0 exactly
    from quartet.trees import trees_equal

    best_s, best_t = -1.0, None
    for cand in enumerate_all_trees(5):
        s = score(cand, cf)
        if s > best_s:
            best_s, best_t = s, cand
    assert best_s == pytest.approx(4 / 4.9, abs=1e-12)
    assert trees_equal(best_t, t0)
    assert score(t0, cf) == pytest.approx((4.9 - 0.9) / 4.9, abs=1e-12)


# ---------------------------------------------------------------- bounds


def test_bounds_all_equal_costs():
    q = math.comb(6, 4)
    cf = ExplicitCostFunction(6, np.full((q, 3), 2.5))
    b = bounds(cf)
    assert b.m == b.M == pytest.approx(q * 2.5)


def test_bounds_bracket_tree_costs(rng):
    for n in (5, 7, 10):
        dm = random_symmetric_matrix(n, rng)
        cf = DistanceCostFunction(dm)
        b = bounds(cf)
        for _ in range(5):
            c = tree_cost_naive(random_tree(n, rng), cf)
            assert b.m <= c <= b.M


@pytest.mark.parametrize("kind", OVERFLOWING)
def test_bounds_and_score_reject_costs_whose_sums_overflow(kind):
    cf = overflowing_costs(kind)
    with pytest.raises(ValueError, match=r"costs too large: 8\*max\(\|m\|, \|M\|\) must be finite"):
        bounds(cf)
    with pytest.raises(ValueError, match="costs too large"):
        score(random_tree(cf.n, rng_for(1)), cf)


def pinned_case(kind, n):
    """A cost function of ``kind`` over n items and two trees to score: the
    planted tree of ``generate_artificial`` and a random one. "noisy"
    scales the planted d by 1 + 0.05 u, u symmetric uniform in [0, 1)."""
    planted, dm = generate_artificial(n, rng_for(n))
    pair = (planted, random_tree(n, rng_for(n + 1)))
    if kind == "explicit":
        return ExplicitCostFunction(n, rng_for(n + 2).random((math.comb(n, 4), 3))), pair
    d = dm.d.copy()
    if kind == "noisy":
        u = rng_for(n + 2).random((n, n))
        d *= 1.0 + 0.05 * (u + u.T) / 2.0
    elif kind == "equal":
        d = 1.0 - np.eye(n)
    return DistanceCostFunction(DistanceMatrix(d)), pair


# float.hex of m and M, then per tree (planted, random) the naive cost's hex
# and the certificate, as computed before the slab kernel wrote into reused
# buffers: a pass that adds or sums in another order moves a last bit here
PINNED_BITS = {
    ("planted", 5): (
        "0x1.b333333333332p+2", "0x1.2666666666666p+3",
        ("0x1.b333333333332p+2", True), ("0x1.1999999999999p+3", False),
    ),
    ("planted", 12): (
        "0x1.afeaaaaaaaaabp+8", "0x1.2275555555556p+9",
        ("0x1.afeaaaaaaaaabp+8", True), ("0x1.0220000000000p+9", False),
    ),
    ("planted", 32): (
        "0x1.1ce4800000000p+14", "0x1.7764000000000p+14",
        ("0x1.1ce4800000000p+14", True), ("0x1.59de000000000p+14", False),
    ),
    ("noisy", 5): (
        "0x1.c113ba4f706aep+2", "0x1.2f0cf810aca28p+3",
        ("0x1.c113ba4f706aep+2", True), ("0x1.20860e5974a5bp+3", False),
    ),
    ("noisy", 12): (
        "0x1.ba484489bde79p+8", "0x1.2aa72855ecfccp+9",
        ("0x1.ba484489bde79p+8", True), ("0x1.088e71ac52584p+9", False),
    ),
    ("noisy", 32): (
        "0x1.24168d6ad8eb6p+14", "0x1.828abc52c5824p+14",
        ("0x1.24168d6ad8eb6p+14", True), ("0x1.62cb8bf4282c5p+14", False),
    ),
    ("equal", 5): (
        "0x1.4000000000000p+3", "0x1.4000000000000p+3",
        ("0x1.4000000000000p+3", True), ("0x1.4000000000000p+3", True),
    ),
    ("equal", 12): (
        "0x1.ef00000000000p+9", "0x1.ef00000000000p+9",
        ("0x1.ef00000000000p+9", True), ("0x1.ef00000000000p+9", True),
    ),
    ("equal", 32): (
        "0x1.18f0000000000p+16", "0x1.18f0000000000p+16",
        ("0x1.18f0000000000p+16", True), ("0x1.18f0000000000p+16", True),
    ),
    ("explicit", 8): (
        "0x1.217a33afd4b0ap+4", "0x1.9f4fd55f7d240p+5",
        ("0x1.3c4bafa649064p+5", False), ("0x1.09a11401bf63cp+5", False),
    ),
}


@pytest.mark.parametrize("kind, n", PINNED_BITS)
def test_bounds_costs_and_certificates_keep_their_bits(kind, n):
    cf, pair = pinned_case(kind, n)
    b = bounds(cf)
    got = (b.m.hex(), b.M.hex(), *[(tree_cost_naive(t, cf).hex(), is_min_perfect(t, cf)) for t in pair])
    assert got == PINNED_BITS[kind, n]


def test_score_bounds_type():
    with pytest.raises(ValueError):
        ScoreBounds(2.0, 1.0)


# ----------------------------------------------------------------- score


def test_score_examples(rng):
    cf = explicit_n4(3.0, 7.0, 9.0)
    assert score(four_leaf_tree(), cf) == 1.0  # embeds the min topology
    # degenerate bounds
    q = math.comb(5, 4)
    flat = ExplicitCostFunction(5, np.ones((q, 3)))
    assert score(random_tree(5, rng), flat) == 1.0


def test_score_affine_invariance(rng):
    for trial in range(10):
        n = int(rng.integers(5, 9))
        t = random_tree(n, rng)
        q = math.comb(n, 4)
        base = rng.random((q, 3))
        a, b = float(rng.random()) * 5 + 0.1, float(rng.random()) * 10 - 5
        s1 = score(t, ExplicitCostFunction(n, base))
        s2 = score(t, ExplicitCostFunction(n, a * base + b))
        assert s1 == pytest.approx(s2, abs=1e-12)


def test_score_two_arrangements_agree(rng):
    for trial in range(10):
        n = int(rng.integers(5, 9))
        t = random_tree(n, rng)
        dm = random_symmetric_matrix(n, rng)
        cf = DistanceCostFunction(dm)
        b = bounds(cf)
        c = tree_cost_naive(t, cf)
        s1 = (b.M - c) / (b.M - b.m)
        s2 = 1.0 - (c - b.m) / (b.M - b.m)
        assert s1 == pytest.approx(s2, abs=1e-12)
        assert score(t, cf) == pytest.approx(s1, abs=1e-12)


def test_random_tree_baseline_uniform_costs():
    # With iid uniform(0,1) topology costs the embedded topology of a random
    # tree is independent of the costs, so per quartet the expected embedded
    # cost is 1/2 against bounds (1/4, 3/4); the mean score concentrates at
    # (3/4 - 1/2) / (1/2) = 1/2.
    rng = rng_for(777)
    n, q = 10, math.comb(10, 4)
    total = 0.0
    for _ in range(200):
        cf = ExplicitCostFunction(n, rng.random((q, 3)))
        total += score(random_tree(n, rng), cf)
    assert 0.47 <= total / 200 <= 0.53


def test_random_tree_baseline_planted_costs_is_one_third():
    # With one zero-cost topology per quartet (two costing 1), a random tree
    # embeds the zero one for about a third of quartets, so S(T) ~ 1/3.
    rng = rng_for(778)
    n = 10
    total = 0.0
    for _ in range(200):
        planted = random_tree(n, rng)
        cf = cost_from_mqc(n, embedded_quartets(planted))
        total += score(random_tree(n, rng), cf)
    assert 0.28 <= total / 200 <= 0.38


def test_perfect_certificate(rng):
    # a planted tree-metric instance certifies exactly; a perturbed tree does not
    from quartet.trees import hop_distances

    t = random_tree(9, rng)
    d = (hop_distances(t).astype(float) + 1.0) / 9
    np.fill_diagonal(d, 0.0)
    cf = DistanceCostFunction(DistanceMatrix(d))
    assert is_min_perfect(t, cf)
    assert score(t, cf) == 1.0
    other, rec = one_move(t, "leaf_interchange", rng)
    assert rec is not None
    assert not is_min_perfect(other, cf)
    assert score(other, cf) < 1.0


def test_score_from_cost_clipping():
    b = ScoreBounds(0.0, 1.0)
    assert score_from_cost(-1e-18, b, perfect=False) < 1.0
    assert score_from_cost(2.0, b, perfect=False) == 0.0
    assert score_from_cost(0.5, b, perfect=True) == 1.0


def test_slab_paths_past_old_cutoffs_match_combinations():
    # n = 65 is past both the old quartet-cache limit (64) and the old
    # block size (C(65,4) > 2^20 quartets); the quartets, hop distances and
    # sums here are built independently of the slab machinery
    rng = rng_for(65)
    n = 65
    planted = random_tree(n, rng)
    d = (floyd_warshall_leaf_hops(planted) + 1.0) / n
    np.fill_diagonal(d, 0.0)
    noise = np.triu(rng.random((n, n)) * 1e-3, 1)
    d += noise + noise.T
    cf = DistanceCostFunction(DistanceMatrix(d))
    a, b, c, x = np.array(list(itertools.combinations(range(n), 4)), dtype=np.int64).T
    costs = np.stack([d[a, b] + d[c, x], d[a, c] + d[b, x], d[a, x] + d[b, c]])
    lo, hi = costs.min(axis=0), costs.max(axis=0)
    got = bounds(cf)
    assert got.m == pytest.approx(lo.sum(), rel=1e-9)
    assert got.M == pytest.approx(hi.sum(), rel=1e-9)
    perfect_seen = []
    for t in (planted, random_tree(n, rng)):
        h = floyd_warshall_leaf_hops(t)
        sums = np.stack([h[a, b] + h[c, x], h[a, c] + h[b, x], h[a, x] + h[b, c]])
        picked = np.take_along_axis(costs, sums.argmin(axis=0)[None], 0)[0]
        assert tree_cost_naive(t, cf) == pytest.approx(picked.sum(), rel=1e-9)
        perfect = bool(np.all(picked == lo))
        assert is_min_perfect(t, cf) == perfect
        perfect_seen.append(perfect)
    assert perfect_seen == [True, False]


# ------------------------------------------------------------ certificate


def combinations_certificate(hops, d):
    """Every quartet's embedded topology at its least float cost, over
    ``itertools.combinations`` and the hop matrix ``hops``: the slab check's
    condition, built without the slabs or the accept."""
    a, b, c, x = np.array(list(itertools.combinations(range(len(d)), 4)), dtype=np.int64).T
    costs = np.stack([d[a, b] + d[c, x], d[a, c] + d[b, x], d[a, x] + d[b, c]])
    sums = np.stack([hops[a, b] + hops[c, x], hops[a, c] + hops[b, x], hops[a, x] + hops[b, c]])
    picked = np.take_along_axis(costs, sums.argmin(axis=0)[None], 0)[0]
    return bool(np.all(picked == costs.min(axis=0)))


def planted_distances(tree):
    d = (hop_distances(tree) + 1.0) / tree.n
    np.fill_diagonal(d, 0.0)
    return d


@pytest.mark.parametrize("n", [5, 6, 7])
def test_certificate_on_every_small_tree_matches_combinations(n):
    rng = rng_for(100 + n)
    planted = random_tree(n, rng)
    upper = np.triu(rng.integers(0, 3, (n, n)).astype(float), 1)
    matrices = {
        "all-equal": 1.0 - np.eye(n),
        "small-integer": upper + upper.T,
        "planted": planted_distances(planted),
    }
    cfs = {name: DistanceCostFunction(DistanceMatrix(d)) for name, d in matrices.items()}
    seen = Counter()
    for t in enumerate_all_trees(n):
        hops = floyd_warshall_leaf_hops(t)
        for name, cf in cfs.items():
            want = combinations_certificate(hops, cf.dm.d)
            accepted = _gromov_accept(hop_distances(t), cf.dm.d)
            assert is_min_perfect(t, cf) == want
            assert want or not accepted
            seen[name, want, accepted] += 1
        # the tree's own tree metric: the accept alone certifies it
        assert _gromov_accept(hop_distances(t), planted_distances(t))
    trees = math.prod(range(1, 2 * n - 4, 2))
    # ties: every tree is perfect, and the slab check alone says so
    assert seen["all-equal", True, False] == trees
    assert seen["planted", True, True] == 1
    assert seen["planted", False, False] == trees - 1
    assert seen["small-integer", False, False] > 0


def zero_pendant_metric(tree):
    """The tree metric with length 0 on leaf edges and 1 on inner ones, so
    that a leaf and its cherry sibling are at distance 0."""
    d = hop_distances(tree) - 2.0
    np.fill_diagonal(d, 0.0)
    return d


def shifted_away_from(d, leaf):
    """``d`` plus a constant on every pair that avoids ``leaf``: each pairing
    of a quartet gains the constant once or twice alike, so each quartet
    keeps its cheapest topology, while every product F(a,b) rooted at
    ``leaf`` becomes negative."""
    out = d + 3.0 * d.max() * (1.0 - np.eye(len(d)))
    out[leaf, :] = d[leaf, :]
    out[:, leaf] = d[:, leaf]
    return out


@pytest.mark.parametrize("n", [8, 16, 32, 64, 128])
def test_gromov_accept_certifies_tree_metrics_and_no_other_tree(n):
    rng = rng_for(n)
    t = random_tree(n, rng)
    other, rec = one_move(t, "leaf_interchange", rng)
    assert rec is not None
    hops, other_hops = hop_distances(t), hop_distances(other)
    planted = planted_distances(t)
    for d in (planted, zero_pendant_metric(t), shifted_away_from(planted, n // 2)):
        assert _gromov_accept(hops, d)
        assert not _gromov_accept(other_hops, d)
        cf = DistanceCostFunction(DistanceMatrix(d))
        assert is_min_perfect(t, cf) and not is_min_perfect(other, cf)
        if n <= 32:
            assert combinations_certificate(floyd_warshall_leaf_hops(t), d)


def test_gromov_accept_declines_near_ties_and_the_slab_check_decides():
    # a tree metric whose inner edges are a few ulps long, plus 1: one inner
    # edge moves a pairing's sum by 2^-49, under the accept's margin of about
    # 2^-48. A cherry's distance then moves up by k ulps of 1 (2^-52); the
    # float sums, whose ulp is 2^-51, tie near k = 8 where the exact ones do not
    n = 8
    t = random_tree(n, rng_for(8))
    hops = hop_distances(t)
    base = 1.0 + 2.0**-50 * hops
    np.fill_diagonal(base, 0.0)
    a, b = (int(v) for v in np.argwhere(hops == 2)[0])
    others = [v for v in range(n) if v not in (a, b)]
    perfect, float_ties = [], set()
    for k in range(25):
        d = base.copy()
        d[a, b] = d[b, a] = base[a, b] + k * 2.0**-52
        cf = DistanceCostFunction(DistanceMatrix(d))
        assert not _gromov_accept(hops, d)
        want = combinations_certificate(floyd_warshall_leaf_hops(t), d)
        assert is_min_perfect(t, cf) == want
        perfect.append(want)
        for c, x in itertools.combinations(others, 2):
            pairings = [((a, b), (c, x)), ((a, c), (b, x)), ((a, x), (b, c))]
            fl = [d[p] + d[r] for p, r in pairings]
            exact = [Fraction(d[p]) + Fraction(d[r]) for p, r in pairings]
            if any(fl[0] == fl[j] and exact[0] != exact[j] for j in (1, 2)):
                float_ties.add(k)
    # up to k = 8 the exact sums hold; at k = 9 a float tie keeps the quartet
    assert perfect == [True] * 10 + [False] * 15
    assert {7, 9} <= float_ties


def test_gromov_accept_declines_where_its_margin_is_not_a_normal_float():
    t = random_tree(6, rng_for(6))
    hops = hop_distances(t)
    d = planted_distances(t)
    assert _gromov_accept(hops, d)
    assert not _gromov_accept(hops, d * 2.0**-1000)  # 2^-48 max d is subnormal
    assert not _gromov_accept(hops, np.zeros((6, 6)))
    cf = DistanceCostFunction(DistanceMatrix(d * 2.0**-1000))
    assert is_min_perfect(t, cf)


@pytest.mark.parametrize("kind", ["distances", "explicit"])
def test_size_mismatch_is_named_before_any_check(kind):
    if kind == "distances":
        cf = DistanceCostFunction(DistanceMatrix(planted_distances(random_tree(5, rng_for(5)))))
    else:
        cf = cost_from_mqc(5, [])
    t = random_tree(6, rng_for(6))
    for check in (is_min_perfect, tree_cost_naive):
        with pytest.raises(ValueError) as exc:
            check(t, cf)
        assert str(exc.value) == "tree has 6 leaves but cost function covers 5"


def test_explicit_costs_must_have_one_row_per_quartet_and_be_finite():
    with pytest.raises(ValueError) as exc:
        ExplicitCostFunction(5, np.zeros((4, 3)))
    assert str(exc.value) == "cost array has shape (4, 3), expected (5, 3)"
    for bad in (np.nan, np.inf, -np.inf):
        costs = np.zeros((5, 3))
        costs[2, 1] = bad
        with pytest.raises(IncompleteCostFunctionError) as exc:
            ExplicitCostFunction(5, costs)
        assert str(exc.value) == "cost array contains non-finite entries"
