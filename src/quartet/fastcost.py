"""O(n^2) tree-cost evaluation for distance-backed cost functions.

With C(uv|wx) = d(u,v) + d(w,x), every leaf pair (u,v) contributes d(u,v)
once for each pair {w,x} with uv|wx embedded, so

    C_T = sum_{u<v} d(u,v) * W(u,v),

where W(u,v) counts those pairs. Each internal node p on the u-v path
contributes C(h_p, 2) of them, h_p being the number of leaves behind p's
off-path neighbour. Writing G(p) = sum_k C(n_k(p), 2) over p's three
neighbour directions and H(e) = C(s,2) + C(n-s,2) for an internal edge that
splits s leaves from n-s, C(h_p,2) = G(p) minus the C(.,2) of the two path
directions, so W is an integer tree metric: doubled, an internal edge (a,b)
weighs G(a) + G(b) - 2 H(e) and a leaf edge at p weighs G(p). The scorer
sums these weights into each node's doubled depth D in the order of the
tree walk that ``hop_distances`` uses too (``trees._rooted_walk``), and the
shared lca fill (``trees._lca_fill``) turns the depths into 2 W(u,v) =
D(u) + D(v) - 2 D(lca(u,v)): the leaves below each node form a contiguous
range in walk order, so the lca depths fill n - 1 blocks of sibling-subtree
pairs that tile the leaf pairs, O(n^2) work in all.

Determinism: W holds exact integers, and the final reduction multiplies d
by W over the upper triangle of the leaf-pair matrix in label order and
sums the products in numpy's fixed pairwise order. The result therefore depends on the
labelled tree alone, never on internal node numbering or walk order, so
isomorphic trees score bit-identically; it does not depend on the thread
count either, as a multithreaded BLAS dot product would.

Move deltas, for the Metropolis walk. Grouped by internal node instead of by
leaf pair, the same sum reads

    C_T = sum_p [d(A1,A2) C(a3,2) + d(A1,A3) C(a2,2) + d(A2,A3) C(a1,2)],

where A1, A2, A3 are the leaf sets behind p's three neighbours, a1, a2, a3
their sizes and d(A,B) the cross mass, d summed over A x B. A simple move
changes those sets only at the internal nodes on one path. A leaf or subtree
interchange moves a set X from one end of the path to the other and a set Y
back. A subtree transfer moves the subtree S = X from its node a, which is
smoothed, to the edge at the path's far end, where a is reinserted (Y is
empty); a's own term is replaced too. Write M(Z) = d(Y,Z) - d(X,Z), c0 =
M(X) - M(Y), and g = |X| - |Y|. At path node j, with the path sides U_j
(towards the first end, u leaves) and V_j (v leaves) and the off-path side
B_j (b leaves), U_j loses X and gains Y, V_j the reverse, so with delta_j =
M(B_j) the node's term changes by

    (M(V_j) - M(U_j) + c0) C(b,2) + delta_j e_j
        + d(V_j,B_j) (C(u-g,2) - C(u,2)) + d(U_j,B_j) (C(v+g,2) - C(v,2)),

e_j = C(v+g,2) - C(u-g,2); the first factor is the change of d(U_j,V_j).
Split at its lca, the path runs up from the first end and down to the last:
below the lca a path side is the leaves below the path's child, above it
their complement, and B_j is what lies between the two. So with R(v) = M(the
leaves below v), every M the loop reads is R of a path node or N - R, N =
M(all), and on the up-chain delta_j telescopes to R(p_j) - R(p_{j-1}), on
the down-chain to R(p_j) - R(p_{j+1}), and at the lca to N less the R of its
two path children. Every side of every edge is a walk-order range or its
complement, so each R is two reads of one prefix row, cum[t] = M(walk
positions 0:t), made per move from a summed-area table of d in walk order
(elementwise numpy, in a fixed order: no BLAS call, whose summation order may
depend on the build and the thread count). The other masses come from a
``TreeCache`` of the tree before the move, as lists indexed by node, one per
walk direction: ``oc[v]``, the mass between the two sides of v's parent
other than v's, and ``op[v]``, between v's two children. Both come from one
cut per node v, the mass between the leaves below v and the rest: the
range's column mass minus its diagonal block of the table. At internal node
p the three sides A1, A2, A3 have cuts d(A1,A2) + d(A1,A3) and so on (a
child side's cut is the child's, the parent side's is p's own), which sum to
twice the mass between the sides, so d(A2,A3) is half that sum minus the cut
of A1, in exact integers. Delta takes O(path length) steps and one prefix
row.

Rounding. ``DeltaCost`` rounds d once to multiples of h = 2^-k, k chosen so
that the rounded total D_q (in units of h) stays below 2^60: the table, the
prefix row of a move and every mass the cache keeps are exact int64 sums.
Each entry moved by at most h/2, and sum_{u<v} |W'(u,v) - W(u,v)| <= 4 C(n,4)
because every tree has sum_{u<v} W(u,v) = 2 C(n,4); so the exact Delta of
the rounded matrix lies within 2 C(n,4) h of the true change. The full
scorer adds n^2 products of d and 2W < n^2, whose absolute values sum to
under n^2 D / 2 (D the sum of d over all ordered pairs); in any order of
additions the sum errs by at most n^2 eps times that, so a full score lies
within n^4 eps D / 4 of the true cost (eps = 2^-53).

Delta is evaluated in float64, in units of h: the integers above each
become a float once, and the coefficients C(j,2) are exact. Every float
operation returns its exact result times 1 + theta, |theta| <= eps (Higham,
Accuracy and Stability of Numerical Algorithms, 2nd ed., 2.2), and Delta is
linear in each intermediate result, so the computed Delta errs by at most
the sum, over the operations, of eps |result| times the weight with which
Delta depends on that result. Let mt be the larger of d(X, all) and d(Y, all)
(d >= 0), m <= 2 mt their sum, L the number of internal path nodes and
G = |g| n D_q. Then |cum[t]| <= mt, and so is every R and M; the first
factor of a node term is at most m (only X and Y move), and the B_j are
disjoint, so sum_j C(b_j,2) <= C(n,2), sum_j |delta_j| <= m, |e_j| <= C(n,2),
sum_j (d(V_j,B_j) + d(U_j,B_j)) <= D_q, and both C(.,2) changes are at most
|g| n: the node terms' sizes sum to at most 2 mt n^2 + G. The weights and
errors, at first order:

* each R enters two consecutive node terms, with weight at most C(b_j,2) +
  C(b_{j+1},2) + |e_j - e_{j+1}|. U grows and V shrinks along the path, so
  e_j falls monotonically, and the weights of all R sum to at most 6 C(n,2)
  (the e differences telescope to e_1 - e_L, and the R at the path's ends
  enter one term each, with |e_1| and |e_L|). Each R errs by at most
  3 eps mt (its two cum entries and its subtraction): 9 eps mt n^2 in all;
* N, c0 and K = N + c0, K2 = N - c0, formed once, err by at most 16 eps mt,
  with weights summing to at most C(n,2); N and N - R at the lca add
  3 eps mt C(n,2): 9.5 eps mt n^2;
* a node's first factor (two operations, at most 6 eps mt C(b,2)), delta_j
  (eps |delta_j e_j|), its products (eps each, and eps for the rounded mass
  of each d(.,B) product) and its three additions (2 eps the sum of the
  product sizes): 10 eps mt n^2 + 4 eps G over the path;
* the node terms' recursive summation, gamma_{L-1} sum_j |t_j| (Higham,
  4.2, gamma_m = m eps / (1 - m eps)): (L - 1) eps (2 mt n^2 + G);
* a transfer's node a (M(F), M(E), cut(F), a's old term and their products
  and sums): at most 19.5 eps mt n^2 + 2 eps G + 6 eps E, E = cut(F)
  C(|S|,2) plus a's old term.

So |Delta_f - Delta| <= eps [mt n^2 (2L + 48) + (G + E)(L + 6)] (E = 0 for
an interchange); ``delta`` evaluates that bound times 1.01, which covers the
second-order terms and the bound's own rounding, scales it by h, and adds
``DeltaCost.tau`` = n^4 (eps D / 2 + h) + (n^2 + 2) 2^-1074: the two full
scores, the grid (2 C(n,4) h < n^4 h), and what underflow adds below 2^-1022,
where a product or a scaling by h may err by 2^-1075 in absolute terms. The
screen stays sound: with dc the difference of the two full scores the walk
compares, |Delta_f - dc| <= tau, so lo = Delta_f - tau <= dc; it drops a
move only where the full test would reject it too (see ``search``). Nothing
overflows: in units of h every mass is below 2^61 and every product below
2^61 n^2. Scaled by h, for n < 2^13, |Delta_f| <= |Delta| + tau and tau <
D / 2, where |Delta| <= M and D <= 6M (M the summed per-quartet maxima, 8M
finite by ``cost.bounds``), so |Delta_f| and tau stay below 4M, and |lo|
below 7M.

Proposals. ``TreeCache.propose`` draws the walk's next simple move from the
cache, with the draws and result of ``mutate.simple_mutation``, and makes
no change to the tree. Sibling and distance tests read the walk's parents
and depths. A subtree transfer picks the k-th of its candidate edges in the
order of the neighbour rows: by lower end, then by slot. The cache lists
the edges in that order and holds, for each node but the root, the index
of its edge to its walk parent. Those indices are kept in two lists, the
leaves' in walk order and the internal nodes' in ``pre`` order, so the
edges below any node are one slice of each list: that subtree's leaves fill
a walk-order range and its internal nodes a block of ``pre``. The
candidates are the edges below a, or all edges but those below s, less
a's own edges either way; a sort of the slices and a bisection find the
k-th in O(l log l) for l leaves below, with no walk of the tree.
"""

from __future__ import annotations

import functools
import math
from bisect import bisect_right

import numpy as np

from .trees import _edges, _lca_fill, _move_path, _rooted_walk, _tree_path

BACKEND = "numpy"
_EPS = 2.0**-53  # unit roundoff of float64
_TINY = 2.0**-1074  # the least positive float
_SLACK = 1.01 * _EPS  # eps, and room for the rounding of a float bound

__all__ = [
    "BACKEND",
    "DeltaCost",
    "TreeCache",
    "cost_distance_from_adj",
]


def cost_distance_from_adj(adj: list[list[int]], d: np.ndarray) -> float:
    """C_T of a tree's 2n-2 neighbour rows ``adj`` (the search's working
    state, in the inner loop, or a ``Tree``'s own), in any slot order, for
    the distance matrix ``d``. The rows fix n; unless ``d`` is n x n, raises
    ValueError."""
    m = len(adj)
    n = root = (m + 2) // 2
    if d.shape != (n, n):
        shape = "x".join(map(str, d.shape))
        raise ValueError(f"tree has {n} leaves but distance matrix is {shape}")
    walk = _rooted_walk(adj)
    parent, _, size, _, pre = walk
    g = [0] * m  # G(p)
    dep = [0] * m  # doubled depth D
    for v in pre:
        pv = parent[v]
        a, b, c = adj[v]
        if a == pv:
            a = c
        elif b == pv:
            b = c
        sa = size[a]
        sb = size[b]
        sv = size[v]
        s = n - sv
        gv = sa * (sa - 1) // 2 + sb * (sb - 1) // 2 + s * (s - 1) // 2
        if v == root:
            sc = size[c]
            gv += sc * (sc - 1) // 2
        else:
            dep[v] = dep[pv] + g[pv] + gv - sv * (sv - 1) - s * (s - 1)
        g[v] = gv
    dep[:n] = [dep[p] + g[p] for p in parent[:n]]
    w2 = _lca_fill(walk, dep)  # 2 W off the diagonal
    w2 *= _upper_triangle(n)
    w2 *= d
    return 0.5 * float(w2.sum())


@functools.lru_cache(maxsize=1)
def _upper_triangle(n: int) -> np.ndarray:
    """1.0 on the pairs u < v, 0.0 elsewhere."""
    mask = np.triu(np.ones((n, n)), 1)
    mask.setflags(write=False)
    return mask


class DeltaCost:
    """Move deltas for one distance matrix (see the module docstring).

    d is rounded once to the grid h = 2^-k, with k chosen so that the
    rounded total mass stays below 2^60: the int64 summed-area table then
    holds exact sums, and Delta is evaluated in floats from them.
    """

    def __init__(self, d: np.ndarray):
        n = d.shape[0]
        total = float(d.sum())
        self.k = 60 - math.frexp(total)[1] if total > 0 else 0
        self.n = n
        self.dq = np.rint(np.ldexp(d, self.k)).astype(np.int64)
        self.total_q = int(self.dq.sum())  # D on the grid, in units of h
        self.c2 = [j * (j - 1) / 2 for j in range(n + 1)]  # C(j, 2)
        # every node but the root, node n, of ``trees._rooted_walk``
        self.below_root = np.r_[0:n, n + 1 : 2 * n - 2]
        # The part of tau that does not depend on the move: the two full
        # scores' errors, at most n^4 eps D / 4 each, the grid's, at most
        # 2 C(n,4) h, and what underflow may add below 2^-1022.
        self.tau = n**4 * (_EPS * total / 2 + math.ldexp(1.0, -self.k)) + (n * n + 2) * _TINY


class TreeCache:
    """What Delta needs of one tree: the rooted walk, a summed-area table of
    the rounded d in walk order, and per node v the walk-order range lo[v] :
    hi[v] of its leaves, the mass ``rm`` between them and all leaves, the
    ``cut`` between them and the rest, and the masses that Delta reads by
    walk direction: ``oc[v]``, between the two sides of v's parent other
    than v's, and ``op[v]``, between v's two children. Plus what ``propose``
    needs to draw a move on the tree without touching it: the rows' slot
    order and the edge index (see ``propose``)."""

    __slots__ = ("cost", "parent", "depth", "size", "lo", "hi", "sat", "nbr", "rm", "cut", "oc", "op",
                 "ends", "up", "at", "leaf_up", "inner_up")

    def __init__(self, cost: DeltaCost, adj: list[list[int]]):
        n = cost.n
        parent, depth, size, lo, pre = _rooted_walk(adj)
        order = np.empty(n, dtype=np.intp)
        order[lo[:n]] = np.arange(n)
        sat = np.zeros((n + 1, n + 1), dtype=np.int64)
        np.cumsum(cost.dq.take(order, 0).take(order, 1).cumsum(0), 1, out=sat[1:, 1:])

        par, r0, size_a = np.array(parent), np.array(lo), np.array(size)
        r1 = r0 + size_a
        # rm[v]: the mass between the leaves below v and all leaves; cut[v]:
        # between them and all other leaves
        col = sat[n]
        rm = col[r1] - col[r0]
        cut = rm - (sat[r1, r1] - sat[r0, r1] - sat[r1, r0] + sat[r0, r0])
        # per internal node, the cuts of its three sides: its children's
        # own, and its own for the parent side (the complement of its
        # leaves), which the root lacks. Half their sum less one side's cut
        # is the mass between the other two sides (see the module docstring).
        half = cut[n:].copy()
        half[0] = 0
        below = cost.below_root
        np.add.at(half, par[below] - n, cut[below])
        half //= 2
        oc = half[par - n] - cut  # the root's entry is never read
        op = half - cut[n:]
        masses = np.concatenate((cut, oc, op)).astype(np.float64).tolist()
        m = 2 * n - 2
        # up[v] indexes the edge from v to its walk parent among the edges
        # in (lower end, slot) order: leaf v's, to its parent, is edge v.
        ends = _edges(adj)
        up = list(range(m))
        for j in range(n, m - 1):
            v, w = ends[j]
            up[v if w == parent[v] else w] = j
        # Below node v lie its leaves, walk positions lo[v]:lo[v] + size[v],
        # and size[v] - 1 internal nodes, v first, from at[v] in ``pre``: so
        # the edges below v are two slices of leaf_up and inner_up.
        at = [0] * m
        for i, v in enumerate(pre):
            at[v] = i
        self.ends, self.up, self.at = ends, up, at
        self.leaf_up = order.tolist()
        self.inner_up = [up[v] for v in pre]
        self.cost = cost
        self.parent, self.depth, self.size, self.lo = parent, depth, size, lo
        self.hi = r1.tolist()
        self.sat = sat
        self.nbr = [None] * n + [row[:] for row in adj[n:]]
        self.rm = rm.tolist()
        self.cut, self.oc = masses[:m], masses[m : 2 * m]
        self.op = [0.0] * n + masses[2 * m :]

    def propose(self, rng) -> tuple[str, tuple[int, ...], list[int]]:
        """Draw a simple move on this tree without touching it: (kind,
        operands, path), with the draws, kind and operands of
        ``mutate.simple_mutation`` on the rows the cache was built from, and
        the path ``delta`` walks. ``rng`` is the search's draw stream
        (``mutate._Draws``), whose integers are Python ints.

        Leaves u and v are siblings iff they share a parent, and nodes u and
        w are near (distance < 3) iff their path has at most 3 nodes. A
        transfer takes the k-th edge, in (lower end, slot) order, with no end
        on s's side of a-s or at a. When s is a's child, those are all edges
        but the 2l + 1 below s or at a (l the leaves below s), and the k-th
        is the fixpoint of j = k + (excluded indices <= j). When s is a's
        parent, they are the edges below a but a's two child edges."""
        n = self.cost.n
        parent, depth = self.parent, self.depth
        while True:
            kind = rng.integers(3)
            if kind == 0:
                while True:
                    u = rng.integers(n)
                    v = rng.integers(n)
                    if u != v and parent[u] != parent[v]:
                        return "leaf_interchange", (u, v), _tree_path(parent, depth, u, v)
            if n == 4:  # neither subtree move changes a 4-leaf tree
                continue
            if kind == 1:
                m = 2 * n - 2
                while True:
                    u = rng.integers(m)
                    w = rng.integers(m)
                    if u == w or (u < n and w < n):
                        continue
                    if u < n:  # keep the internal node in the u role
                        u, w = w, u
                    path = _tree_path(parent, depth, u, w)
                    if len(path) > 3:
                        return "subtree_interchange", (u, path[1], path[-2], w), path
            size, lo, up, at = self.size, self.lo, self.up, self.at
            while True:
                a = n + rng.integers(n - 2)
                row = self.nbr[a]
                s = row[rng.integers(3)]
                below = parent[s] == a
                ell = size[s] if below else n - size[a]
                count = 2 * (n - ell) - 4
                if count:
                    break
            k = rng.integers(count)
            b, c = sorted(q for q in row if q != s)
            if below:
                r, i = lo[s], at[s]
                out = self.leaf_up[r : r + ell] + self.inner_up[i : i + ell - 1]
                out += [up[q] if parent[q] == a else up[a] for q in (b, c)]
                out.sort()
                j, last = k, -1
                while j != last:
                    last, j = j, k + bisect_right(out, j)
            else:
                r, i, sa = lo[a], at[a], size[a]
                edges = self.leaf_up[r : r + sa] + self.inner_up[i + 1 : i + sa - 1]
                edges.remove(up[b])
                edges.remove(up[c])
                edges.sort()
                j = edges[k]
            e, f = self.ends[j]
            ops = (s, a, b, c, e, f)
            return "subtree_transfer", ops, _move_path(parent, depth, "subtree_transfer", ops)

    def delta(self, kind: str, ops: tuple[int, ...], path: list[int]) -> tuple[float, float]:
        """(Delta, tau) of a simple move on this tree, given by its
        ``MutationRecord`` kind and operands and its path (the one
        ``propose`` gives, ``trees._move_path`` on the cache's walk): C after
        the move minus C before, and a bound on how far Delta may lie from
        the difference of the two full scores (see the module docstring)."""
        cost = self.cost
        n, c2 = cost.n, cost.c2
        parent, size, lo, hi = self.parent, self.size, self.lo, self.hi
        oc, op, rm, sat = self.oc, self.op, self.rm, self.sat
        transfer = kind == "subtree_transfer"
        first, second, last = path[0], path[1], len(path) - 1
        # X moves from the path's first end to its last, Y the other way; each
        # is the leaves below a node xv, or their complement. cum[t] is
        # d(Y, 0:t) - d(X, 0:t) over walk positions, from exact int64 rows.
        if transfer:  # X = S moves from node a to the edge e-f, Y is empty
            s, a = ops[0], ops[1]
            xv, xin = (s, True) if parent[s] == a else (a, False)
        else:
            xv, xin = (first, True) if parent[first] == second else (second, False)
        x0, x1 = lo[xv], hi[xv]
        if xin:
            cum = sat[x0] - sat[x1]
            mx, nx = rm[xv], size[xv]
        else:
            cum = sat[x1] - sat[x0] - sat[n]
            mx, nx = cost.total_q - rm[xv], n - size[xv]
        if transfer:
            my = ny = 0
        else:
            w, yp = path[-1], path[-2]
            yv, yin = (w, True) if parent[w] == yp else (yp, False)
            y0, y1 = lo[yv], hi[yv]
            if yin:
                cum += sat[y1] - sat[y0]
                my, ny = rm[yv], size[yv]
            else:
                cum += sat[n] - sat[y1] + sat[y0]
                my, ny = cost.total_q - rm[yv], n - size[yv]
        c = cum.astype(np.float64).tolist()
        N = c[n]
        # M(Z) = d(Y, Z) - d(X, Z) for a set Z: R(v) = c[hi[v]] - c[lo[v]] for
        # the leaves below v, N - R(v) for the rest. c0 = M(X) - M(Y).
        c0 = c[x1] - c[x0] if xin else N - (c[x1] - c[x0])
        if not transfer:
            c0 -= c[y1] - c[y0] if yin else N - (c[y1] - c[y0])
        K, K2 = N + c0, N - c0
        g = nx - ny
        # Per internal path node p, with path sides U (towards the first end,
        # u leaves) and V (v leaves) and off-path side B (b leaves), p's term
        # changes by (M(V) - M(U) + c0) C(b,2) + delta (C(v+g,2) - C(u-g,2))
        # + d(V,B) (C(u-g,2) - C(u,2)) + d(U,B) (C(v+g,2) - C(v,2)), where
        # delta = M(B) = N - M(U) - M(V). Below the lca a path side is the
        # leaves below the path's child, above it their complement, so the
        # masses come from one R per node, carried to the next.
        acc = 0.0
        steps = zip(path[1:], path[2:])  # (p, the node after p), p internal
        if parent[first] == second:  # up from the first end
            q, sq = first, size[first]
            Rq = c[hi[q]] - c[lo[q]]
            for p, r in steps:
                if parent[p] != r:  # p is the lca
                    Rr = c[hi[r]] - c[lo[r]]
                    sr = size[r]
                    t = (Rr - Rq + c0) * c2[n - sq - sr] + (N - Rq - Rr) * (c2[sr + g] - c2[sq - g])
                    if g:
                        t += oc[q] * (c2[sq - g] - c2[sq]) + oc[r] * (c2[sr + g] - c2[sr])
                    acc += t
                    Rp = Rr  # r is the down-chain's first node
                    break
                Rp = c[hi[p]] - c[lo[p]]
                sp = size[p]
                vc = n - sp
                t = (K - Rp - Rq) * c2[sp - sq] + (Rp - Rq) * (c2[vc + g] - c2[sq - g])
                if g:
                    t += oc[q] * (c2[sq - g] - c2[sq]) + op[p] * (c2[vc + g] - c2[vc])
                acc += t
                q, sq, Rq = p, sp, Rp
        else:  # the first end is the lca
            Rp = c[hi[second]] - c[lo[second]]
        for p, r in steps:  # down to the last end; Rp is R(p)
            Rr = c[hi[r]] - c[lo[r]]
            sp, sr = size[p], size[r]
            uc = n - sp
            t = (Rp + Rr - K2) * c2[sp - sr] + (Rp - Rr) * (c2[sr + g] - c2[uc - g])
            if g:
                t += op[p] * (c2[uc - g] - c2[uc]) + oc[r] * (c2[sr + g] - c2[sr])
            acc += t
            Rp = Rr
        e_a = 0.0
        if transfer:
            # node a: its old term out, and in, its new one between S, F (f's
            # side of e-f) and the rest E: d(S, F) = -M(F), d(S, E) = -M(E)
            # and d(E, F) = cut(F) + M(F)
            e, f = path[-2], path[-1]
            if parent[f] == e:
                MF = c[hi[f]] - c[lo[f]]
                nf, cut_f = size[f], self.cut[f]
            else:
                MF = N - (c[hi[e]] - c[lo[e]])
                nf, cut_f = n - size[e], self.cut[e]
            ne = n - nx - nf
            old = 0.0
            for q in self.nbr[a]:
                old += oc[q] * c2[size[q]] if parent[q] == a else op[a] * c2[n - size[a]]
            acc += cut_f * c2[nx] + MF * (c2[nx] - c2[ne]) - (N - c0 - MF) * c2[nf]
            acc -= old
            e_a = cut_f * c2[nx] + old
        # Delta's own error bound (module docstring), in units of h
        L = last - 1
        mt = float(max(mx, my))
        own = (mt * n * n * (2 * L + 48) + (abs(g) * n * cost.total_q + e_a) * (L + 6)) * _SLACK
        k = cost.k
        return math.ldexp(acc, -k), cost.tau + math.ldexp(own, -k)
