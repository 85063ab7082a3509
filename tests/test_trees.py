import itertools
import math
import re

import numpy as np
import pytest

from quartet import trees
from quartet.cost import DistanceMatrix
from quartet.trees import (
    QuartetTopology,
    Tree,
    _check_names,
    _replace_neighbor,
    enumerate_quartets,
    hop_distances,
    quartet_pair_sums,
    random_tree,
    topology_from_index,
    tree_from_newick,
    tree_to_dot,
    tree_to_newick,
    trees_equal,
)

from conftest import (
    all_topologies,
    caterpillar,
    dot_leaf_labels,
    embedded_quartets,
    enumerate_all_trees,
    is_consistent,
    mapping_canonical_key,
    one_move,
    oracle_tree_to_newick,
    rng_for,
)


# ---------------------------------------------------------------- topology


def test_topology_canonical_forms():
    t1 = QuartetTopology((5, 2), (7, 1))
    assert t1.pair_a == (1, 7) and t1.pair_b == (2, 5)
    assert t1 == QuartetTopology((1, 7), (5, 2)) == QuartetTopology((7, 1), (2, 5))
    assert str(QuartetTopology((3, 0), (2, 1))) == "0,3|1,2"


def test_topology_rejects_repeats():
    with pytest.raises(ValueError):
        QuartetTopology((0, 1), (1, 2))


@pytest.mark.parametrize("quartet", [(0, 1, 2, 3), (2, 5, 9, 11)])
def test_topology_index_round_trip(quartet):
    for idx in range(3):
        topo = topology_from_index(quartet, idx)
        assert topo.topo_index == idx
        assert topo.labels == tuple(sorted(quartet))


@pytest.mark.parametrize("idx", [3, -1])
def test_topology_index_outside_0_to_2_is_rejected(idx):
    with pytest.raises(ValueError, match=f"topology index must be 0, 1 or 2, got {idx}$"):
        topology_from_index((0, 1, 2, 3), idx)


def test_enumerate_counts():
    assert len(list(enumerate_quartets(4))) == 1
    assert len(all_topologies(4)) == 3
    assert len(list(enumerate_quartets(5))) == 5
    assert len(all_topologies(5)) == 15
    assert len(list(enumerate_quartets(10))) == 210
    assert len(all_topologies(10)) == 630
    assert len(set(all_topologies(6))) == 3 * math.comb(6, 4)
    with pytest.raises(ValueError):
        list(enumerate_quartets(3))


# ---------------------------------------------------------------- Tree type


@pytest.mark.parametrize("block", [None, 1, 7])
def test_quartet_pair_sums_match_combinations(block, monkeypatch):
    """Each slab's three pair sums equal the two-operand sums of a loop over
    itertools.combinations in colex order, for the int32 hop matrix and a
    float matrix, whole (block None) or cut into blocks of 1 or 7 entries."""
    if block is not None:
        monkeypatch.setattr(trees, "_PAIR_SUM_BLOCK", block)
    for n in range(4, 13):
        colex = sorted(itertools.combinations(range(n), 4), key=lambda q: q[::-1])
        hop = hop_distances(random_tree(n, rng_for(n)))
        d = rng_for(n + 1).random((n, n))
        d = d + d.T
        for M in (hop, d):
            slabs = []
            for sums in quartet_pair_sums(M):
                assert all(s.dtype == M.dtype for s in sums)
                slabs.append([s.copy() for s in sums])  # the next slab overwrites them
            assert [len(s0) for s0, _, _ in slabs] == [math.comb(x, 3) for x in range(3, n)]
            got = [tuple(s[i].item() for s in slab) for slab in slabs for i in range(len(slab[0]))]
            m = M.tolist()
            want = [(m[a][b] + m[c][x], m[a][c] + m[b][x], m[a][x] + m[b][c]) for a, b, c, x in colex]
            assert got == want


def test_quartet_pair_sums_yield_views_of_reused_buffers():
    """The arrays of a slab share memory with the next slab's: a caller that
    keeps a slab must copy it."""
    first, second = [sums for sums, _ in zip(quartet_pair_sums(np.ones((6, 6))), range(2))]
    assert all(np.shares_memory(a, b) for a, b in zip(first, second))


def test_tree_invariants_enforced():
    with pytest.raises(ValueError):
        Tree.from_adjacency({0: [1], 1: [0]})
    # degree-4 internal node
    with pytest.raises(ValueError):
        Tree.from_adjacency({0: [4], 1: [4], 2: [4], 3: [4], 4: [0, 1, 2, 3], 5: []})
    # asymmetric rows
    adj = random_tree(5, rng_for(1)).copy_adjacency()
    adj[0][0] = 7 if adj[0][0] != 7 else 6
    with pytest.raises(ValueError):
        Tree(adj)
    # degree-correct, symmetric and 2n-3 edges, yet disconnected: a triangle
    # 6-7-8 holding leaves 0, 1 and 2, and node 9 holding leaves 3, 4 and 5
    with pytest.raises(ValueError, match="tree is not connected"):
        Tree.from_adjacency(
            {0: [6], 1: [7], 2: [8], 3: [9], 4: [9], 5: [9],
             6: [0, 7, 8], 7: [1, 6, 8], 8: [2, 6, 7], 9: [3, 4, 5]}
        )


@pytest.mark.parametrize("make, message", [
    (lambda: QuartetTopology((0, 1, 2), (3, 4)), "each side of a quartet topology needs two labels"),
    (lambda: Tree.from_adjacency({0: [4], 1: [4], 2: [5], 3: [5], 4: [0, 1, 5], 9: [2, 3, 4]}),
     "node id 9 out of range for 6 nodes"),
    (lambda: random_tree(5, rng_for(1)).neighbors(8), "node 8 out of range"),
    (lambda: random_tree(5, rng_for(1)).neighbors(-1), "node -1 out of range"),
    (lambda: _replace_neighbor(random_tree(5, rng_for(1)).copy_adjacency(), 5, 1, 2), "node 5 has no neighbor 1"),
    (lambda: _check_names(4, ["a", "b", "c"]), "3 names for 4 items"),
    (lambda: tree_from_newick("(a:'1',b,c,d);"), "bad branch length '1' at position 3"),
])
def test_bad_tree_arguments_give_their_message(make, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        make()


@pytest.mark.parametrize("names, message", [
    (["a", "", "c", "d"], "item names must not be empty, got one at position 1"),
    (["a", "b", "a", "b"], "item names must be unique, got duplicates ['a', 'b']"),
])
def test_a_bad_name_list_gives_one_value_error_everywhere(names, message):
    # the check that carries the row of the bad name for the matrix readers
    # reads as a plain ValueError to the matrix and the tree writers
    tree = random_tree(4, rng_for(1))
    for call in (lambda: DistanceMatrix(1.0 - np.eye(4), names),
                 lambda: tree_to_newick(tree, names), lambda: tree_to_dot(tree, names)):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call()


@pytest.mark.parametrize("internal_row, message", [
    ([0, 1, 1], "node 4 has a repeated neighbor"),
    ([0, 1, 9], "node 4 has invalid neighbor 9"),
    ([0, 1, 4], "node 4 has invalid neighbor 4"),
])
def test_tree_rows_name_the_node_with_a_bad_neighbour(internal_row, message):
    rows = [[4, -1, -1], [4, -1, -1], [5, -1, -1], [5, -1, -1], internal_row, [2, 3, 4]]
    with pytest.raises(ValueError) as exc:
        Tree(rows)
    assert str(exc.value) == message


@pytest.mark.parametrize("rows, message", [
    ([[4, -1, -1]] * 5, "adjacency needs 2n-2 rows, an even count, got 5 rows"),
    ([[4, 5]] * 8, "node 0 has 2 slots, expected 3"),
    ([[-1, 4, -1], [4, -1, -1], [5, -1, -1], [5, -1, -1], [0, 1, 5], [2, 3, 4]],
     "leaf 0 must hold its neighbour in slot 0, -1 in the others"),
    ([[4, 5, -1], [4, -1, -1], [5, -1, -1], [5, -1, -1], [0, 1, 5], [2, 3, 4]],
     "node 0 has degree 2, expected 1"),
], ids=["odd-row-count", "two-slot-rows", "leaf-off-slot-0", "leaf-of-degree-2"])
def test_tree_rows_of_the_wrong_shape_name_the_fault(rows, message):
    with pytest.raises(ValueError) as exc:
        Tree(rows)
    assert str(exc.value) == message


def test_random_tree_structure(rng):
    for n in (4, 5, 9, 17):
        t = random_tree(n, rng)
        assert t.leaf_count == n
        assert t.node_count == 2 * n - 2
        for v in t.leaves:
            assert len(t.neighbors(v)) == 1
        for v in t.internal_nodes:
            assert len(t.neighbors(v)) == 3
    with pytest.raises(ValueError):
        random_tree(3, rng)


def test_random_tree_n4_hits_all_three_shapes():
    rng = rng_for(99)
    counts = {}
    for _ in range(10_000):
        key = random_tree(4, rng).canonical_key()
        counts[key] = counts.get(key, 0) + 1
    assert len(counts) == 3
    # uniform generator: each count within 5 sigma of 10000/3
    for c in counts.values():
        assert abs(c - 10_000 / 3) < 5 * math.sqrt(10_000 * (1 / 3) * (2 / 3))


def test_canonical_key_matches_the_mapping_oracle():
    # every tree on 4-7 leaves, then random trees and caterpillars up to
    # n=256, each also under permuted internal ids
    rng = rng_for(4096)
    trees = [t for n in range(4, 8) for t in enumerate_all_trees(n)]
    for n in (8, 9, 12, 17, 24, 33, 64, 96, 128, 256):
        trees += [random_tree(n, rng), random_tree(n, rng), caterpillar(n)]
    for t in trees:
        n = t.n
        perm = list(range(n)) + [n + int(x) for x in rng.permutation(n - 2)]
        mapping = {perm[v]: [perm[w] for w in t.neighbors(v)] for v in range(t.node_count)}
        want = mapping_canonical_key(mapping, n)
        assert t.canonical_key() == want
        assert Tree.from_adjacency(mapping).canonical_key() == want


def test_enumerate_all_trees_counts_and_distinctness():
    for n, want in ((4, 3), (5, 15), (6, 105), (7, 945)):
        keys = {t.canonical_key() for t in enumerate_all_trees(n)}
        assert len(keys) == want


# ------------------------------------------------------------- consistency


def test_single_quartet_consistency():
    t = Tree.from_adjacency({0: [4], 1: [4], 2: [5], 3: [5], 4: [0, 1, 5], 5: [2, 3, 4]})
    assert is_consistent(t, QuartetTopology((0, 1), (2, 3)))
    assert not is_consistent(t, QuartetTopology((0, 2), (1, 3)))
    assert not is_consistent(t, QuartetTopology((0, 3), (1, 2)))
    with pytest.raises(ValueError):
        is_consistent(t, QuartetTopology((0, 1), (2, 9)))


def test_exactly_one_topology_consistent_everywhere(rng):
    for n in (5, 6, 8):
        t = random_tree(n, rng)
        for quartet in enumerate_quartets(n):
            hits = [
                idx
                for idx in range(3)
                if is_consistent(t, topology_from_index(quartet, idx))
            ]
            assert len(hits) == 1


def test_embedded_quartets_matches_literal_checks(rng):
    for n in (5, 7):
        t = random_tree(n, rng)
        emb = embedded_quartets(t)
        assert len(emb) == math.comb(n, 4)
        for topo in emb:
            assert is_consistent(t, topo)


def test_embedded_quartets_examples():
    t4 = Tree.from_adjacency({0: [4], 1: [4], 2: [5], 3: [5], 4: [0, 1, 5], 5: [2, 3, 4]})
    assert embedded_quartets(t4) == {QuartetTopology((0, 1), (2, 3))}
    from conftest import five_leaf_target

    t5 = five_leaf_target()
    assert embedded_quartets(t5) == {
        QuartetTopology((0, 1), (2, 3)),  # uv|wx
        QuartetTopology((0, 1), (2, 4)),  # wy|uv
        QuartetTopology((0, 1), (3, 4)),  # xy|uv
        QuartetTopology((0, 4), (2, 3)),  # uy|wx
        QuartetTopology((1, 4), (2, 3)),  # vy|wx
    }


def test_embedded_quartet_count_n7(rng):
    t = random_tree(7, rng)
    assert len(embedded_quartets(t)) == 35


# ------------------------------------------------------------- trees_equal


def test_trees_equal_ignores_internal_ids(rng):
    t = random_tree(9, rng)
    perm = list(range(9)) + [9 + int(x) for x in rng.permutation(7)]
    mapping = {
        perm[v]: [perm[int(w)] for w in t.adj_array[v] if w >= 0]
        for v in range(t.node_count)
    }
    t2 = Tree.from_adjacency(mapping)
    assert trees_equal(t, t2)
    assert embedded_quartets(t) == embedded_quartets(t2)


def test_trees_equal_detects_leaf_swap(rng):
    t = random_tree(6, rng)
    t2, rec = one_move(t, "leaf_interchange", rng)
    assert rec is not None
    assert not trees_equal(t, t2)
    assert embedded_quartets(t) != embedded_quartets(t2)
    assert trees_equal(t, t)


def test_trees_equal_is_quartet_set_equality(rng):
    # equality decisions agree with the embedded-set comparison on random pairs
    for n in (5, 6, 7):
        a, b = random_tree(n, rng), random_tree(n, rng)
        assert trees_equal(a, b) == (embedded_quartets(a) == embedded_quartets(b))
    with pytest.raises(ValueError):
        trees_equal(random_tree(5, rng), random_tree(6, rng))


# ----------------------------------------------------------- serialization


def test_newick_round_trip(rng):
    for n in (4, 8, 13):
        t = random_tree(n, rng)
        names = [f"item{i}" for i in range(n)]
        text = tree_to_newick(t, names)
        back, back_names = tree_from_newick(text, names)
        assert back_names == names
        assert trees_equal(t, back)


def test_newick_writes_deep_trees():
    four = Tree.from_adjacency({0: [4], 1: [4], 2: [5], 3: [5], 4: [0, 1, 5], 5: [2, 3, 4]})
    assert tree_to_newick(four) == "(0,1,(2,3));"
    # a caterpillar nests its n - 2 clades one inside the next
    t = caterpillar(600)
    text = tree_to_newick(t)
    assert text.count("(") == 598
    back, _ = tree_from_newick(text, [str(i) for i in range(600)])
    assert trees_equal(t, back)


def permute_internal_ids(tree, rng):
    n = tree.n
    perm = list(range(n)) + [n + int(x) for x in rng.permutation(n - 2)]
    return Tree.from_adjacency(
        {perm[v]: [perm[w] for w in tree.neighbors(v)] for v in range(tree.node_count)}
    )


def test_newick_writer_matches_the_breadth_first_oracle():
    # byte for byte: the same rooting, and each clade's children in row order
    rng = rng_for(15)
    trees = [t for n in range(4, 8) for t in enumerate_all_trees(n)]
    for n in (8, 13, 24, 64, 128, 256, 600):
        trees += [random_tree(n, rng), caterpillar(n)]
    for tree in trees:
        names = [f"s {i}" if i % 2 else f"s{i}" for i in range(tree.n)]
        for t in (tree, permute_internal_ids(tree, rng)):
            assert tree_to_newick(t) == oracle_tree_to_newick(t)
            assert tree_to_newick(t, names) == oracle_tree_to_newick(t, names)


def test_newick_rooted_binary_input_is_unrooted():
    text = "((a:0.1,b:0.2)0.9:0.3,(c:0.1,d:0.2):0.4);"
    t, names = tree_from_newick(text)
    assert names == ["a", "b", "c", "d"]
    assert trees_equal(
        t, Tree.from_adjacency({0: [4], 1: [4], 2: [5], 3: [5], 4: [0, 1, 5], 5: [2, 3, 4]})
    )


def test_newick_quoted_names_and_errors():
    t, names = tree_from_newick("(('sp one','two''s'),(c,d));")
    assert names == ["c", "d", "sp one", "two's"]
    rooted, names = tree_from_newick("[&R] ((a,b),(c,d));")
    assert names == ["a", "b", "c", "d"]
    annotated, _ = tree_from_newick("((a[&&NHX:S=x [nested]]:0.1,b),(c,'d'[note]));")
    assert trees_equal(annotated, rooted)
    with pytest.raises(ValueError):
        tree_to_newick(t, ["", "b", "c", "d"])  # empty name
    with pytest.raises(ValueError):
        tree_from_newick("((a,b),(c,d));", names=["a", "b", "c", "x"])
    with pytest.raises(ValueError):
        tree_from_newick("((a,b),(a,d));")  # duplicate leaf
    with pytest.raises(ValueError):
        tree_from_newick("((a,b),(c,d)") # unbalanced


@pytest.mark.parametrize("text, message", [
    ("(a,,b,c);", "empty leaf label at position 3"),
    ("(a:x,b,c,d);", "bad branch length 'x' at position 3"),
    ("(a,b),c;", "unexpected ',' at position 5"),
    ("(a,b,(c,d,e,f));", "internal node of degree 5: only ternary trees "
                         "(binary rooted or trifurcating unrooted) are supported"),
    ("((a,b),c);", "need at least 4 leaves, got 3"),
])
def test_newick_errors_name_what_is_wrong_and_where(text, message):
    with pytest.raises(ValueError) as exc:
        tree_from_newick(text)
    assert str(exc.value) == message


def test_dot_output_names_internal_nodes(rng):
    t = random_tree(6, rng)
    dot = tree_to_dot(t, [f"s{i}" for i in range(6)])
    for j in range(1, 5):
        assert f'label="k{j}"' in dot
    assert dot.count(" -- ") == 2 * 6 - 3


def test_dot_labels_are_quoted_strings_that_read_back_as_the_names(rng):
    names = ['a"b', "c\\d", "e f", "tab\tx", "ü漢字", '"', "\\", '\\"', 'x\\\\"y"', "end\\",
             "plain", "0"]
    t = random_tree(len(names), rng)
    assert dot_leaf_labels(tree_to_dot(t, names)) == dict(enumerate(names))
    assert dot_leaf_labels(tree_to_dot(t)) == {v: str(v) for v in range(len(names))}


def test_hop_distances_symmetric(rng):
    t = random_tree(10, rng)
    L = hop_distances(t)
    assert np.array_equal(L, L.T)
    assert np.all(np.diag(L) == 0)
    assert L[0, 1] >= 2
