"""Correctness references for the benchmark, independent of the ``quartet`` package.

* ``parse_newick``: Newick text -> leaf-name-indexed adjacency lists.
* ``splits``: the set of non-trivial leaf bipartitions of a tree.
* ``quartet_costs``: the O(n^4) four-point oracle giving (C_T, m, M).
* ``ncd``: normalized compression distance computed with zlib/bz2/lzma directly.
"""

from __future__ import annotations

import bz2
import itertools
import lzma
import zlib

import numpy as np

from gen import hop_distances

CODECS = {
    "zlib": lambda data: len(zlib.compress(data, 9)),
    "bz2": lambda data: len(bz2.compress(data, 9)),
    "lzma": lambda data: len(lzma.compress(data, preset=6)),
}


def parse_newick(text: str, names: list[str]) -> list[list[int]]:
    """Adjacency lists of a Newick tree: leaf ``names[i]`` becomes node i,
    internal nodes follow. Branch lengths and internal labels are skipped;
    degree-2 nodes (a rooted input) are smoothed away."""
    index = {name: i for i, name in enumerate(names)}
    n = len(names)
    adj: dict[int, list[int]] = {}
    seen: set[str] = set()
    s = text.strip().rstrip(";")
    pos = 0
    next_internal = n

    def label() -> str:
        nonlocal pos
        j = pos
        while j < len(s) and s[j] not in "(),:":
            j += 1
        out, pos = s[pos:j].strip(), j
        if pos < len(s) and s[pos] == ":":
            pos += 1
            while pos < len(s) and s[pos] not in "(),":
                pos += 1
        return out

    def clade() -> int:
        nonlocal pos, next_internal
        if s[pos] == "(":
            pos += 1
            kids = [clade()]
            while s[pos] == ",":
                pos += 1
                kids.append(clade())
            if s[pos] != ")":
                raise ValueError(f"expected ')' at {pos}")
            pos += 1
            label()
            v, next_internal = next_internal, next_internal + 1
            adj[v] = kids
            for k in kids:
                adj[k].append(v)
            return v
        name = label()
        if name not in index or name in seen:
            raise ValueError(f"unexpected or repeated leaf {name!r}")
        seen.add(name)
        adj[index[name]] = []
        return index[name]

    clade()
    if len(seen) != n:
        raise ValueError(f"tree has {len(seen)} leaves, expected {n}")
    for v in [v for v in adj if v >= n and len(adj[v]) == 2]:
        a, b = adj.pop(v)
        adj[a][adj[a].index(v)] = b
        adj[b][adj[b].index(v)] = a
    internal = sorted(v for v in adj if v >= n)
    if any(len(adj[v]) != 3 for v in internal) or len(internal) != n - 2:
        raise ValueError("not an unrooted ternary tree")
    relabel = {v: v for v in range(n)} | {v: n + k for k, v in enumerate(internal)}
    out = [[] for _ in range(2 * n - 2)]
    for v, nbrs in adj.items():
        out[relabel[v]] = [relabel[w] for w in nbrs]
    return out


def splits(adj: list[list[int]], n: int) -> frozenset[frozenset[int]]:
    """Non-trivial bipartitions, each given by its side without leaf 0."""
    out = set()
    for v in range(2 * n - 2):
        for w in adj[v]:
            # leaves behind w, seen from v
            side, stack, seen = set(), [w], {v, w}
            while stack:
                x = stack.pop()
                if x < n:
                    side.add(x)
                for y in adj[x]:
                    if y not in seen:
                        seen.add(y)
                        stack.append(y)
            if 0 in side:
                side = set(range(n)) - side
            if 2 <= len(side) <= n - 2:
                out.add(frozenset(side))
    return frozenset(out)


def quartet_costs(adj: list[list[int]], d: np.ndarray) -> tuple[float, float, float]:
    """(C_T, m, M) for the distance-derived quartet costs d(u,v)+d(w,x).

    Every quartet a<b<c<e is visited; its embedded pairing is the one with
    the strictly smallest sum of tree path lengths (four-point condition).
    """
    n = d.shape[0]
    L = hop_distances(adj, n)
    tri = np.array(list(itertools.combinations(range(n), 3)), dtype=np.int64).reshape(-1, 3)
    tri = tri[np.lexsort((tri[:, 0], tri[:, 1], tri[:, 2]))]  # colex: largest label slowest
    cost = lo = hi = 0.0
    count = 0
    for e in range(3, n):
        while count < len(tri) and tri[count, 2] < e:
            count += 1
        a, b, c = tri[:count, 0], tri[:count, 1], tri[:count, 2]
        s = np.stack([L[a, b] + L[c, e], L[a, c] + L[b, e], L[a, e] + L[b, c]])
        w = np.stack([d[a, b] + d[c, e], d[a, c] + d[b, e], d[a, e] + d[b, c]])
        pick = np.argmin(s, axis=0)
        ordered = np.sort(s, axis=0)
        if not np.all(ordered[0] < ordered[1]):
            raise ValueError("tree path lengths tie on a quartet: not a ternary tree")
        cost += float(w[pick, np.arange(count)].sum())
        lo += float(w.min(axis=0).sum())
        hi += float(w.max(axis=0).sum())
    return cost, lo, hi


def ncd(x: bytes, y: bytes, codec: str) -> float:
    """NCD as the program defines a matrix entry: the smaller of the two
    concatenation orders, negative values clamped to 0."""
    z = CODECS[codec]
    zx, zy = z(x), z(y)
    value = (min(z(x + y), z(y + x)) - min(zx, zy)) / max(zx, zy)
    return max(value, 0.0)


def rel_close(a: float, b: float, rel: float = 1e-9) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)
