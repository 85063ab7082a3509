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
back. A subtree transfer moves the subtree S from its node a, which is
smoothed, to the edge at the path's far end, where a is reinserted; a's own
term is replaced too. At path node j, with off-path side O_j and delta_j =
d(Y,O_j) - d(X,O_j), the cross mass of the off-path side with the side
towards the first end grows by delta_j, with the other side it shrinks by
delta_j, and between the two path sides it grows by the delta_i after j
minus those before j. So Delta C takes O(path length) steps given a
``TreeCache`` of the tree before the move: the same rooted walk, whose
parents and edge depths trace the move's path, a summed-area table of d in
walk order (every side of every edge is a walk-order range or its
complement, so every cross mass is a few table lookups), and per
internal node, for each neighbour, the leaf count behind it and the cross
mass of the other two sides. Those masses come from one cut per node v, the
mass between the leaves below v and the rest: the range's column mass
minus its diagonal block of the table. At internal node p the three sides
A1, A2, A3 have cuts d(A1,A2) + d(A1,A3) and so on (a child side's cut is
the child's, the parent side's is p's own), which sum to twice the mass
between the sides, so d(A2,A3) is half that sum minus the cut of A1, in
exact integers.

Rounding. ``DeltaCost`` rounds d once to multiples of h = 2^-k, k chosen so
that the rounded total stays below 2^60: the table then holds exact int64
sums and Delta is exact, in Python integers, for the rounded matrix. Each
entry moved by at most h/2, and sum_{u<v} |W'(u,v) - W(u,v)| <= 4 C(n,4)
because every tree has sum_{u<v} W(u,v) = 2 C(n,4); so Delta lies within
2 C(n,4) h of the true change. The full scorer adds n^2 products of d and
2W < n^2, whose absolute values sum to under n^2 D / 2 (D the sum of d over
all ordered pairs); in any order of additions the sum errs by at most n^2
eps times that, so a full score lies within n^4 eps D / 4 of the true cost
(eps = 2^-53). The bound tau = n^4 (eps D + h) therefore covers Delta's
error and the errors of both full scores that the walk would subtract, and
each call adds 2 eps |Delta| for Delta's rounding to a float.

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
    """Exact move deltas for one distance matrix (see the module docstring).

    d is rounded once to the grid h = 2^-k, with k chosen so that the
    rounded total mass stays below 2^60: int64 block sums and Python ints
    then carry Delta without rounding, and the only error left is the grid's.
    """

    def __init__(self, d: np.ndarray):
        n = d.shape[0]
        total = float(d.sum())
        self.k = 60 - math.frexp(total)[1] if total > 0 else 0
        self.n = n
        self.dq = np.rint(np.ldexp(d, self.k)).astype(np.int64)
        # Delta within tau of what two full scores would subtract to: the
        # full scorer's two errors, at most n^4 eps D / 4 each; the grid's,
        # at most 2 C(n,4) h; the final rounding to float is added per call.
        self.tau = n**4 * (_EPS * total + math.ldexp(1.0, -self.k))


class TreeCache:
    """What Delta needs of one tree: the rooted walk, a summed-area table of
    the rounded d in walk order, and per internal node, for each neighbour,
    the leaf count behind it and the mass between the other two directions.
    Plus what ``propose`` needs to draw a move on the tree without touching
    it: the rows' slot order and the edge index (see ``propose``)."""

    __slots__ = ("cost", "parent", "depth", "size", "lo", "sat", "nbr", "cnt", "cnt2", "opp",
                 "ends", "up", "at", "leaf_up", "inner_up")

    def __init__(self, cost: DeltaCost, adj: list[list[int]]):
        n = cost.n
        parent, depth, size, lo, pre = _rooted_walk(adj)
        order = np.empty(n, dtype=np.intp)
        order[lo[:n]] = np.arange(n)
        sat = np.zeros((n + 1, n + 1), dtype=np.int64)
        np.cumsum(cost.dq.take(order, 0).take(order, 1).cumsum(0), 1, out=sat[1:, 1:])

        rows = np.array(adj[n:], dtype=np.intp)
        par, r0, size_a = np.array(parent), np.array(lo), np.array(size)
        r1 = r0 + size_a
        # cut[v]: the mass between the leaves below v and all other leaves
        col = sat[n]
        cut = col[r1] - col[r0] - (sat[r1, r1] - sat[r0, r1] - sat[r1, r0] + sat[r0, r0])
        p = np.arange(n, 2 * n - 2)[:, None]
        child = par[rows] == p
        # side cuts: a child's own, or p's for the parent side (the
        # complement of p's leaves); see the module docstring
        sc = np.where(child, cut[rows], cut[p])
        opp = sc.sum(1, keepdims=True) // 2 - sc
        # up[v] indexes the edge from v to its walk parent among the edges
        # in (lower end, slot) order: leaf v's, to its parent, is edge v.
        ends = _edges(adj)
        up = list(range(2 * n - 2))
        for j in range(n, 2 * n - 3):
            v, w = ends[j]
            up[v if w == parent[v] else w] = j
        # Below node v lie its leaves, walk positions lo[v]:lo[v] + size[v],
        # and size[v] - 1 internal nodes, v first, from at[v] in ``pre``: so
        # the edges below v are two slices of leaf_up and inner_up.
        at = [0] * (2 * n - 2)
        for i, v in enumerate(pre):
            at[v] = i
        self.ends, self.up, self.at = ends, up, at
        self.leaf_up = order.tolist()
        self.inner_up = [up[v] for v in pre]
        pad: list = [None] * n
        self.cost = cost
        self.parent, self.depth, self.size, self.lo = parent, depth, size, lo
        self.sat = sat
        self.nbr = pad + rows.tolist()
        cnt = np.where(child, size_a[rows], n - size_a[p])
        self.cnt = pad + cnt.tolist()
        self.cnt2 = pad + (cnt * (cnt - 1) // 2).tolist()
        self.opp = pad + opp.tolist()

    def _side(self, p: int, q: int) -> tuple[int, int, bool, int]:
        """The leaves on q's side of edge p-q: (r0, r1, complement, count),
        the walk-order range r0:r1 or its complement."""
        if self.parent[q] == p:
            r0 = self.lo[q]
            return r0, r0 + self.size[q], False, self.size[q]
        r0 = self.lo[p]
        return r0, r0 + self.size[p], True, self.cost.n - self.size[p]

    def _prefix_mass(self, side) -> np.ndarray:
        """Row t: the rounded d summed between ``side`` and the walk-order
        positions 0:t."""
        r0, r1, comp, _ = side
        sat = self.sat
        m = sat[r1] - sat[r0]
        return sat[-1] - m if comp else m

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
        the difference of the two full scores."""
        n = self.cost.n
        parent, lo, size = self.parent, self.lo, self.size
        nbr, cnt, cnt2, opp = self.nbr, self.cnt, self.cnt2, self.opp
        transfer = kind == "subtree_transfer"
        # X moves from the path's first end to its last, Y the other way
        if transfer:
            # S = X moves from node a to the edge e-f; the path runs from a
            # to the nearer end e of e-f, then to the farther one f
            s, a, b, c = ops[:4]
            e, f = path[-2], path[-1]
            side = self._side(a, s)
            nx, ny = side[3], 0
            cum = -self._prefix_mass(side)
        else:
            u, w = path[0], path[-1]
            side = self._side(path[1], u)
            other = self._side(path[-2], w)
            nx, ny = side[3], other[3]
            cum = self._prefix_mass(other) - self._prefix_mass(side)
        # d(Y, O) - d(X, O) is cum[o1] - cum[o0] for the range O = o0:o1,
        # and cum[n] minus that for its complement
        cum = cum.tolist()
        if transfer:  # the side of a that stays: delta_0
            o0, o1, oc, _ = self._side(a, c if path[1] == b else b)
            P = cum[o1] - cum[o0]
            if oc:
                P = cum[n] - P
        else:
            P = 0
        # Per path node p, with off-path side B: delta_j = d(Y, B) - d(X, B)
        # and P the sum of the delta_i before it. p's term changes by
        # (Q - P) C(b,2) + d(V,B) du + d(U,B) dv + delta_j (C(v',2) - C(u',2))
        # for the path sides U (towards the first end) and V; Q - P is
        # T - 2P - delta_j, and the total T enters once, times the sum of
        # the C(b,2), after the loop.
        g = nx - ny
        gu, gv = g * (g + 1) // 2, g * (g - 1) // 2
        acc = 0
        cbsum = 0
        for prev, p, nxt in zip(path, path[1:-1], path[2:]):
            row = nbr[p]
            i = row.index(prev)
            k = row.index(nxt)
            o = 3 - i - k
            q = row[o]
            if parent[q] == p:
                o0 = lo[q]
                dj = cum[o0 + size[q]] - cum[o0]
            else:
                o0 = lo[p]
                dj = cum[n] - cum[o0 + size[p]] + cum[o0]
            cp = cnt[p]
            c2 = cnt2[p]
            mp = opp[p]
            cb = c2[o]
            # C(.,2) growth of the two path sides: U loses g leaves, V gains g
            du = gu - g * cp[i]
            dv = gv + g * cp[k]
            acc += (-2 * P - dj) * cb + mp[i] * du + mp[k] * dv + dj * (c2[k] - c2[i] + dv - du)
            P += dj
            cbsum += cb
        if transfer:
            # F, f's side of e-f, closes the path: its delta is -d(S, F)
            f0, f1, fc, nf = self._side(e, f)
            dsf = cum[f0] - cum[f1]
            if fc:
                dsf = -cum[n] - dsf
            acc += (P - dsf) * cbsum
            # node a: its old term out, its new one between S, F and the
            # rest E in; d(S, E) is -P, and d(E, F) comes from e's cache
            ma, ca = opp[a], cnt2[a]
            acc -= ma[0] * ca[0] + ma[1] * ca[1] + ma[2] * ca[2]
            d_ef = mp[o] + mp[i] - dsf
            ne = n - nx - nf
            acc += dsf * (ne * (ne - 1) // 2) - P * (nf * (nf - 1) // 2) + d_ef * (nx * (nx - 1) // 2)
        else:
            acc += P * cbsum
        dl = math.ldexp(float(acc), -self.cost.k)
        return dl, self.cost.tau + abs(dl) * _EPS * 2

