"""Property tests: the simple moves on the neighbour-list working state,
record checks and inversion, move deltas, mutation paths, search trace
replay, the overflow rule on costs, and the Newick and matrix text formats.

Examples are derandomized, so every run checks the same cases."""

import itertools
import math
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from quartet.cost import (
    DistanceCostFunction,
    DistanceMatrix,
    ExplicitCostFunction,
    bounds,
    score,
    tree_cost_fast,
    tree_cost_naive,
)
from quartet.fastcost import DeltaCost, TreeCache, cost_distance_from_adj
from quartet.matrix_io import FORMATS, format_matrix, parse_matrix
from quartet.mutate import (
    _APPLY,
    MutationRecord,
    _RAND_BY_KIND,
    _Draws,
    _k_moves,
    _rand_subtree_interchange,
    _rand_subtree_transfer,
    apply_record,
    max_path_moves,
    replay_records,
    sample_k,
    simple_mutation,
)
from quartet.search import replay_trace, search
from quartet.trees import (
    Tree,
    _move_path,
    _rooted_walk,
    hop_distances,
    random_tree,
    tree_from_newick,
    tree_to_newick,
    trees_equal,
)

from conftest import (
    _bfs_path,
    _near,
    caterpillar,
    enumerate_all_trees,
    floyd_warshall_leaf_hops,
    mutation_path,
    oracle_check_move,
    oracle_simple_mutation,
    random_symmetric_matrix,
    rng_for,
)

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=60)

seeds = st.integers(0, 2**32 - 1)


@PROPERTY
@given(n=st.integers(4, 20), seed=seeds, steps=st.integers(1, 40))
def test_moves_keep_a_valid_tree_and_inverses_restore_it(n, seed, steps):
    rng = rng_for(seed)
    t = random_tree(n, rng)
    rows = t.copy_adjacency()
    records = []
    for _ in range(steps):
        records.append(simple_mutation(rows, rng))
        Tree(rows)  # validates degree, symmetry and connectivity
    for rec in reversed(records):
        apply_record(rows, rec.inverse())
    # slot for slot: an undone move leaves no trace in the working state
    assert rows == t.copy_adjacency()


def shuffled_rows(tree, n, rng):
    rows = tree.copy_adjacency()
    for row in rows[n:]:
        rng.shuffle(row)  # any slot order, as the moves leave it
    return rows


@PROPERTY
@given(n=st.integers(4, 40), seed=seeds, shape=st.sampled_from(["random", "caterpillar"]))
def test_hop_distances_match_floyd_warshall(n, seed, shape):
    rng = rng_for(seed)
    tree = caterpillar(n) if shape == "caterpillar" else random_tree(n, rng)
    rows = shuffled_rows(tree, n, rng)
    want = floyd_warshall_leaf_hops(tree)
    for got in (hop_distances(rows), hop_distances(Tree(rows))):
        assert got.dtype == np.int32
        assert np.array_equal(got, want)


def check_delta(rows, n, d, rec):
    """Delta of the move ``rec`` on the tree ``rows`` equals the difference of
    the full scorer's costs and of the naive scorer's costs, within tau."""
    parent, depth = _rooted_walk(rows)[:2]
    path = _move_path(parent, depth, rec.kind, rec.operands)
    delta, tau = TreeCache(DeltaCost(d), rows).delta(rec.kind, rec.operands, path)
    after = [row[:] for row in rows]
    apply_record(after, rec)
    cf = DistanceCostFunction(DistanceMatrix(d))
    full = cost_distance_from_adj(after, d) - cost_distance_from_adj(rows, d)
    naive = tree_cost_naive(after, cf) - tree_cost_naive(rows, cf)
    assert abs(delta - full) <= tau, (rec, delta, full, tau)
    assert abs(delta - naive) <= tau, (rec, delta, naive, tau)


def delta_instance(n, seed, shape, matrix):
    rng = rng_for(seed)
    tree = caterpillar(n) if shape == "caterpillar" else random_tree(n, rng)
    if matrix == "planted":
        d = (hop_distances(random_tree(n, rng)).astype(float) + 1.0) / n
        np.fill_diagonal(d, 0.0)
    else:
        d = random_symmetric_matrix(n, rng).d
    return tree.copy_adjacency(), d, rng


@PROPERTY
@given(
    n=st.integers(5, 40),
    seed=seeds,
    shape=st.sampled_from(["random", "caterpillar"]),
    matrix=st.sampled_from(["random", "planted"]),
    kind=st.integers(0, 2),
    moves=st.integers(1, 4),
)
def test_move_delta_matches_full_and_naive_scorers(n, seed, shape, matrix, kind, moves):
    rows, d, rng = delta_instance(n, seed, shape, matrix)
    for _ in range(moves):  # each move from the tree the last one made
        before = [row[:] for row in rows]
        rec = MutationRecord(*_RAND_BY_KIND[kind](rows, n, rng))
        check_delta(before, n, d, rec)


def exact_cost(rows, parts):
    """C_T as an exact int, for d = sum of parts[i] * 2^(20 i): each part's
    entries are integers below 2^20, so its full score sums integer
    products below 2^53 and is exact."""
    return sum(int(cost_distance_from_adj(rows, part)) << 20 * i for i, part in enumerate(parts))


@pytest.mark.parametrize("n", [64, 128, 256])
@pytest.mark.parametrize("shape", ["random", "caterpillar"])
def test_move_delta_stays_within_its_own_error_term_past_n_40(n, shape):
    """Delta against the exact cost change, for integer d spread over 40
    bits (small integers such as hop counts would make every float step of
    Delta exact). The grid holds such d exactly, so Delta's float
    evaluation is its only error, and it must lie within the part of tau
    that Delta adds to the full scores' part (``DeltaCost.tau``)."""
    rng = rng_for(n)
    tree = caterpillar(n) if shape == "caterpillar" else random_tree(n, rng)
    rows = tree.copy_adjacency()
    e = np.triu(np.floor(2.0 ** rng.uniform(0.0, 40.0, (n, n))), 1).astype(np.int64)
    e += e.T
    parts = [(e >> 20 * i & (1 << 20) - 1).astype(float) for i in range(2)]
    dcost = DeltaCost(e.astype(float))
    for kind in (0, 1, 2):
        for _ in range(8):  # each move from the tree the last one made
            before = [row[:] for row in rows]
            rec = MutationRecord(*_RAND_BY_KIND[kind](rows, n, rng))
            parent, depth = _rooted_walk(before)[:2]
            path = _move_path(parent, depth, rec.kind, rec.operands)
            delta, tau = TreeCache(dcost, before).delta(rec.kind, rec.operands, path)
            own = tau - dcost.tau
            assert 0 < own < tau
            exact = exact_cost(rows, parts) - exact_cost(before, parts)
            assert abs(delta - exact) <= own, (rec, delta, exact, own)


def cut_side(rows, a, s):
    """The nodes on s's side when the edge a-s is cut."""
    side, grow = {s}, [s]
    while grow:
        for w in rows[grow.pop()]:
            if w >= 0 and w != a and w not in side:
                side.add(w)
                grow.append(w)
    return side


def transfer_edges(rows, n, a, s):
    """Every edge (v, w), v < w, with neither end on s's side of a-s or at
    a: by v, then by w's slot in row v."""
    out = cut_side(rows, a, s) | {a}
    return [(v, w) for v in range(2 * n - 2) if v not in out
            for w in rows[v] if w > v and w not in out]


def all_moves(rows, n):
    """Every simple move on the tree: non-sibling leaf pairs, subtree
    interchanges at distance >= 3 and subtree transfers."""
    for u in range(n):
        for v in range(u + 1, n):
            if rows[u][0] != rows[v][0]:
                yield MutationRecord("leaf_interchange", (u, v))
    for u in range(n, 2 * n - 2):
        for w in range(2 * n - 2):
            if w != u and not n <= w < u and not _near(rows, u, w):
                path = _bfs_path(rows, u, w)
                yield MutationRecord("subtree_interchange", (u, path[1], path[-2], w))
    for a in range(n, 2 * n - 2):
        for s in rows[a]:
            b, c = sorted(q for q in rows[a] if q != s)
            for e, f in transfer_edges(rows, n, a, s):
                yield MutationRecord("subtree_transfer", (s, a, b, c, e, f))


@pytest.mark.parametrize("n", [5, 6, 7, 8])
@pytest.mark.parametrize("shape", ["random", "caterpillar"])
def test_move_delta_on_every_move_of_small_trees(n, shape):
    rows, d, _ = delta_instance(n, 11 * n, shape, "random")
    distance_three = next_to_b = 0
    for rec in all_moves(rows, n):
        check_delta(rows, n, d, rec)
        if rec.kind == "subtree_interchange":
            distance_three += len(_bfs_path(rows, rec.operands[0], rec.operands[3])) == 4
        elif rec.kind == "subtree_transfer":
            _, _, b, c, e, f = rec.operands
            next_to_b += bool({b, c} & {e, f})  # a one-node path from a
    assert distance_three and next_to_b


@pytest.mark.parametrize("n", [5, 6, 7])
def test_every_move_and_its_inverse_restore_the_rows_slot_for_slot(n):
    # includes the case a rewrite of a's row by value gets wrong: a transfer
    # onto an edge at one of a's old neighbours (e == c or f == b)
    touching = 0
    for tree in enumerate_all_trees(n):
        rows = tree.copy_adjacency()
        for rec in all_moves(rows, n):
            work = [row[:] for row in rows]
            apply_record(work, rec)
            apply_record(work, rec.inverse())
            assert work == rows, rec
            if rec.kind == "subtree_transfer":
                _, _, b, c, e, f = rec.operands
                touching += e == c or f == b
    assert touching


@pytest.mark.parametrize("n", [5, 6, 7])
def test_move_path_is_the_tree_path_of_every_move(n):
    # an interchange's path runs from its first operand to its last; a
    # transfer's from a to the nearer end of e-f and on to the farther one
    for i, tree in enumerate(enumerate_all_trees(n)):
        rows = shuffled_rows(tree, n, rng_for(i))
        parent, depth, *_ = _rooted_walk(rows)
        for rec in all_moves(rows, n):
            kind, ops = rec.kind, rec.operands
            if kind == "subtree_transfer":
                _, a, _, _, e, f = ops
                near, far = sorted((_bfs_path(rows, a, e), _bfs_path(rows, a, f)), key=len)
                want = near + far[-1:]
            else:
                want = _bfs_path(rows, ops[0], ops[-1])
            assert _move_path(parent, depth, kind, ops) == want, rec


class Scripted:
    """Draws that return given values in turn and log each bound asked for."""

    def __init__(self, *values):
        self.values = list(values)
        self.highs = []

    def integers(self, high):
        self.highs.append(high)
        value = self.values.pop(0)
        assert 0 <= value < high
        return value


@pytest.mark.parametrize("n", [5, 6, 7])
def test_subtree_samplers_pick_what_the_oracles_list_on_every_tree(n):
    m = 2 * n - 2
    for tree in enumerate_all_trees(n):
        rows = tree.copy_adjacency()
        cuts = [(a, slot, s, transfer_edges(rows, n, a, s))
                for a in range(n, m) for slot, s in enumerate(rows[a])]
        redraw = next((a, slot, len(edges)) for a, slot, _, edges in cuts if edges)
        for a, slot, s, edges in cuts:
            leaves = sum(v < n for v in cut_side(rows, a, s))
            assert len(edges) == 2 * (n - leaves) - 4
            if not edges:  # nothing to draw: a and s are drawn again
                draws = Scripted(a - n, slot, redraw[0] - n, redraw[1], 0)
                _rand_subtree_transfer([row[:] for row in rows], n, draws)
                assert draws.highs == [n - 2, 3, n - 2, 3, redraw[2]]
            b, c = sorted(q for q in rows[a] if q != s)
            for k, (e, f) in enumerate(edges):
                draws = Scripted(a - n, slot, k)
                _, ops = _rand_subtree_transfer([row[:] for row in rows], n, draws)
                assert draws.highs == [n - 2, 3, len(edges)]
                assert ops == (s, a, b, c, e, f)
        for du in range(m):
            for dw in range(m):
                u, w = (du, dw) if du >= n else (dw, du)
                if u == w or u < n or _near(rows, u, w):
                    continue  # the sampler draws again
                path = _bfs_path(rows, u, w)
                _, ops = _rand_subtree_interchange([row[:] for row in rows], n, Scripted(du, dw))
                assert ops == (u, path[1], path[-2], w)


def check_proposal(cache, rows, n, seed):
    """``TreeCache.propose`` on the cache of ``rows`` draws the move that
    ``simple_mutation`` makes on them, from the same draws, and leaves the
    stream where ``simple_mutation`` leaves it; its path is the move's path
    in the tree. Returns the move's record."""
    ours, theirs = _Draws(seed), _Draws(seed)
    kind, ops, path = cache.propose(ours)
    rec = simple_mutation([row[:] for row in rows], theirs)
    assert (kind, ops) == (rec.kind, rec.operands)
    assert (ours.integers(2**32), ours.random()) == (theirs.integers(2**32), theirs.random())
    if kind == "subtree_transfer":
        _, a, _, _, e, f = ops
        near, far = sorted((_bfs_path(rows, a, e), _bfs_path(rows, a, f)), key=len)
        assert path == near + far[-1:]
    else:
        assert path == _bfs_path(rows, ops[0], ops[-1])
    return rec


@pytest.mark.parametrize("n", [5, 6, 7])
def test_proposals_drawn_from_the_cache_are_the_moves_on_every_tree(n):
    d = DeltaCost(np.ones((n, n)) - np.eye(n))
    for i, tree in enumerate(enumerate_all_trees(n)):
        rows = shuffled_rows(tree, n, rng_for(i))
        before = [row[:] for row in rows]
        cache = TreeCache(d, rows)
        for seed in range(20):
            check_proposal(cache, rows, n, seed)
        assert rows == before


@PROPERTY
@given(n=st.integers(4, 64), seed=seeds, shape=st.sampled_from(["random", "caterpillar"]),
       moves=st.integers(1, 30))
def test_proposals_drawn_from_the_cache_are_the_moves_along_a_walk(n, seed, shape, moves):
    rng = rng_for(seed)
    tree = caterpillar(n) if shape == "caterpillar" else random_tree(n, rng)
    rows = shuffled_rows(tree, n, rng)
    d = DeltaCost(random_symmetric_matrix(n, rng).d)
    for step in range(moves):  # each move on the tree the last one made
        rec = check_proposal(TreeCache(d, rows), rows, n, seed + step)
        apply_record(rows, rec)


def check_against_oracle(rows, n, ours, theirs, k):
    """k moves made in place on ``rows`` by ``_k_moves`` from the draws
    ``ours`` are those the record-making oracle makes on a copy from the
    same draws ``theirs``: the same (kind, operands) each, the same rows slot
    for slot, and the streams left at the same place."""
    want_rows = [row[:] for row in rows]
    want = [oracle_simple_mutation(want_rows, n, theirs) for _ in range(k)]
    got = _k_moves(rows, ours, k)
    assert got == [(rec.kind, rec.operands) for rec in want]
    assert rows == want_rows
    assert (ours.integers(2**32), ours.random()) == (theirs.integers(2**32), theirs.random())


@pytest.mark.parametrize("n", [5, 6, 7])
def test_samplers_match_the_oracle_draw_for_draw_on_every_tree(n):
    kinds = set()
    for i, tree in enumerate(enumerate_all_trees(n)):
        rows = shuffled_rows(tree, n, rng_for(i))
        for seed in range(4 * i, 4 * i + 4):
            work = [row[:] for row in rows]
            check_against_oracle(work, n, _Draws(seed), _Draws(seed), 1)
            ours, theirs = _Draws(seed), _Draws(seed)
            rec = simple_mutation([row[:] for row in rows], ours)
            assert rec == oracle_simple_mutation([row[:] for row in rows], n, theirs)
            assert ours.random() == theirs.random()
            kinds.add(rec.kind)
    assert len(kinds) == 3


@PROPERTY
@given(n=st.integers(4, 64), seed=seeds, shape=st.sampled_from(["random", "caterpillar"]),
       data=st.data())
def test_k_mutations_match_the_oracle_along_a_walk(n, seed, shape, data):
    rng = rng_for(seed)
    tree = caterpillar(n) if shape == "caterpillar" else random_tree(n, rng)
    rows = shuffled_rows(tree, n, rng)
    moves = data.draw(st.integers(1, max_path_moves(n)))
    ours, theirs = _Draws(seed), _Draws(seed)
    while moves > 0:  # k-mutations as the hill climber draws them
        k = sample_k(ours, max_path_moves(n))
        assert sample_k(theirs, max_path_moves(n)) == k
        k = min(k, moves)
        check_against_oracle(rows, n, ours, theirs, k)
        moves -= k


def near_records(rows, n):
    """Records that name no simple move of the tree: sibling leaves, leaf
    interchanges naming an internal node, interchanges of nodes at distance
    under three with any neighbours as x and y, and transfers onto an edge
    at a or on s's side."""
    m = 2 * n - 2
    for u in range(m):
        for v in range(m):
            if u >= n or v >= n or rows[u][0] == rows[v][0]:
                yield MutationRecord("leaf_interchange", (u, v))
    for u in range(n, m):
        for w in range(m):
            if _near(rows, u, w):
                for x in rows[u]:
                    for y in rows[w]:
                        if y >= 0:
                            yield MutationRecord("subtree_interchange", (u, x, y, w))
    for a in range(n, m):
        for s in rows[a]:
            b, c = sorted(q for q in rows[a] if q != s)
            off = cut_side(rows, a, s) | {a}
            for e in range(m):
                for f in rows[e]:
                    if f > e and (e in off or f in off):
                        yield MutationRecord("subtree_transfer", (s, a, b, c, e, f))


def test_apply_record_takes_the_moves_of_the_tree_and_nothing_else():
    # stale records (the moves of the tree before) and near records of each
    # kind on every tree at n=6: a record either is a move of this tree, and
    # its inverse undoes it, or raises before it writes anything
    n = 6
    trees = list(enumerate_all_trees(n))
    applied = raised = 0
    for i, tree in enumerate(trees):
        rows = shuffled_rows(tree, n, rng_for(i))
        moves = set(all_moves(rows, n))
        moves |= {MutationRecord(rec.kind, rec.operands[::-1])  # named from w's end
                  for rec in moves if rec.kind == "subtree_interchange"}
        stale = all_moves(trees[i - 1].copy_adjacency(), n)
        for rec in [*stale, *near_records(rows, n)]:
            work = [row[:] for row in rows]
            if rec in moves:
                apply_record(work, rec)
                Tree(work)  # validates degree, symmetry and connectivity
                apply_record(work, rec.inverse())
                applied += 1
            else:
                with pytest.raises(ValueError):
                    apply_record(work, rec)
                raised += 1
            assert work == rows, rec
    assert applied and raised


def oracle_verdict(rows, kind, ops) -> bool:
    """``apply_record`` on a copy of ``rows`` makes the move (kind, ops)
    exactly when the oracle check passes it, and otherwise raises with the
    oracle's reason and leaves the rows as they were. Whether it applied."""
    rec = MutationRecord(kind, ops)
    why = oracle_check_move(rows, kind, ops)
    work = [row[:] for row in rows]
    try:
        apply_record(work, rec)
    except ValueError as err:
        assert (str(err), work) == (f"{why}: {rec.to_line()}", rows)
        return False
    want = [row[:] for row in rows]
    _APPLY[kind](want, *ops)
    assert (why, work) == (None, want), rec
    return True


def test_apply_record_gives_the_oracle_verdict_on_every_interchange_at_n5():
    n, m = 5, 8
    verdicts = []
    for i, tree in enumerate(enumerate_all_trees(n)):
        rows = shuffled_rows(tree, n, rng_for(i))
        for ops in itertools.product(range(m), repeat=2):
            verdicts.append(oracle_verdict(rows, "leaf_interchange", ops))
        for ops in itertools.product(range(m), repeat=4):
            verdicts.append(oracle_verdict(rows, "subtree_interchange", ops))
    assert i == 14 and any(verdicts) and not all(verdicts)


def test_apply_record_gives_the_oracle_verdict_on_transfers_at_n6():
    # every well-formed transfer (b, c in both orders, e-f either way round),
    # then random operands, node ids out of range included
    n, m = 6, 10
    rng = rng_for(6)
    trees = list(enumerate_all_trees(n))[::8]
    verdicts = []
    for i, tree in enumerate(trees):
        rows = shuffled_rows(tree, n, rng)
        for a in range(n, m):
            for s in rows[a]:
                b, c = [q for q in rows[a] if q != s]
                for e, row in enumerate(rows):
                    for f in row[:1] if e < n else row:
                        for ops in ((s, a, b, c, e, f), (s, a, c, b, e, f)):
                            verdicts.append(oracle_verdict(rows, "subtree_transfer", ops))
        for ops in rng.integers(-1, m + 1, (20_000 // len(trees) + 1, 6)).tolist():
            verdicts.append(oracle_verdict(rows, "subtree_transfer", tuple(ops)))
    assert len(trees) >= 12 and any(verdicts) and not all(verdicts)


@PROPERTY
@given(n=st.integers(4, 24), seed=seeds)
def test_mutation_path_within_bound_and_reaches_target(n, seed):
    rng = rng_for(seed)
    t0, t1 = random_tree(n, rng), random_tree(n, rng)
    records = mutation_path(t0, t1)
    assert len(records) <= (4 if n == 4 else 5 * n - 16)
    assert trees_equal(replay_records(t0, records), t1)


@settings(PROPERTY, max_examples=150)
@given(
    n=st.integers(5, 10),
    seed=seeds,
    mode=st.sampled_from(["hill_climb", "metropolis"]),
    termination=st.sampled_from(["simple", "agreement"]),
    max_trees=st.integers(1, 300),
)
def test_trace_replay_reaches_best_tree(n, seed, mode, termination, max_trees):
    dm = random_symmetric_matrix(n, rng_for(seed))
    with tempfile.TemporaryDirectory() as tmp:
        trace = Path(tmp) / "trace.log"
        res = search(DistanceCostFunction(dm), seed=seed, mode=mode, termination=termination,
                     max_trees=max_trees, trace_path=trace)
        replayed = replay_trace(trace)[2]
    assert trees_equal(replayed, res.best_tree)
    cost = tree_cost_fast(replayed, dm)
    assert abs(cost - res.best_cost) <= 1e-12 * abs(res.best_cost)


@settings(PROPERTY, max_examples=40)
@given(n=st.integers(4, 12), seed=seeds, kind=st.sampled_from(["distances", "explicit"]),
       margin=st.floats(0.25, 4.0))
def test_bounds_accept_only_costs_every_scorer_sums_finitely(n, seed, kind, margin):
    """Costs scaled so that 8 max(|m|, |M|) is ``margin`` times the largest
    float: ``bounds`` accepts them below the margin and rejects them above
    it, and where it accepts them, the scorers, Delta and a short search
    stay finite, with numpy's float errors raised."""
    def make(costs):
        if kind == "distances":
            return DistanceCostFunction(DistanceMatrix(costs))
        return ExplicitCostFunction(n, costs)

    rng = rng_for(seed)
    if kind == "distances":
        u = np.triu(rng.random((n, n)), 1)
        unit = u + u.T
    else:
        unit = rng.uniform(-1.0, 1.0, (math.comb(n, 4), 3))
    b = bounds(make(unit))
    with np.errstate(all="ignore"):  # an entry past the largest float is assumed away
        scaled = unit * (sys.float_info.max / 8 / max(abs(b.m), abs(b.M)) * margin)
    assume(np.isfinite(scaled).all() and not 0.999 <= margin <= 1.001)  # rounding decides there
    cf = make(scaled)
    if margin > 1.001:
        with pytest.raises(ValueError, match="costs too large"):
            bounds(cf)
        return
    with np.errstate(all="raise"):
        b = bounds(cf)
        for _ in range(3):
            tree = random_tree(n, rng)
            rows = tree.copy_adjacency()
            if kind == "distances":
                assert math.isfinite(tree_cost_fast(tree, scaled))
                cache = TreeCache(DeltaCost(scaled), rows)
                assert all(map(math.isfinite, cache.delta(*cache.propose(_Draws(seed)))))
            assert b.m <= tree_cost_naive(tree, cf) <= b.M
            assert 0.0 <= score(tree, cf) <= 1.0
        res = search(cf, seed=seed, max_trees=100)
    assert math.isfinite(res.best_cost) and 0.0 <= res.best_score <= 1.0


leaf_names = st.text(min_size=1, max_size=6)


@PROPERTY
@given(n=st.integers(4, 16), seed=seeds, data=st.data())
def test_newick_round_trip(n, seed, data):
    t = random_tree(n, rng_for(seed))
    names = data.draw(st.lists(leaf_names, min_size=n, max_size=n, unique=True))
    back, back_names = tree_from_newick(tree_to_newick(t, names), names)
    assert back_names == names
    assert trees_equal(back, t)


def _is_number(text):
    try:
        float(text)
    except ValueError:
        return False
    return True


item_names = st.from_regex(r"[A-Za-z][A-Za-z0-9_]{0,7}", fullmatch=True).filter(
    lambda s: not _is_number(s)
)
distances = st.floats(min_value=0.0, allow_nan=False, allow_infinity=False)


@PROPERTY
@given(n=st.integers(2, 8), fmt=st.sampled_from(FORMATS), data=st.data())
def test_matrix_formats_round_trip(n, fmt, data):
    upper = data.draw(st.lists(distances, min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2))
    d = np.zeros((n, n))
    d[np.triu_indices(n, 1)] = upper
    d += d.T
    # Nexus quotes what is not a bare word, so any text goes through its
    # quoted-label path: quotes, brackets, blanks and newlines included
    strategy = st.text(min_size=1) if fmt == "nexus" else item_names
    names = data.draw(st.lists(strategy, min_size=n, max_size=n, unique=True))
    if fmt == "csv" and data.draw(st.booleans()):
        names = None  # headerless CSV
    dm = DistanceMatrix(d, names)
    back = parse_matrix(format_matrix(dm, fmt), fmt)
    assert np.array_equal(back.d, d)
    assert back.names == names
