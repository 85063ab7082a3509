"""Input generators for the benchmark, independent of the ``quartet`` package.

Trees are unrooted ternary trees on leaves 0..n-1 with internal nodes
n..2n-3, stored as adjacency lists. A uniform random labelled tree is grown by
leaf addition: start from the star on leaves 0, 1, 2 and attach each next leaf
by splitting an edge chosen uniformly at random.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

ACGT = np.frombuffer(b"ACGT", dtype=np.uint8)


def random_tree(n: int, rng: np.random.Generator) -> list[list[int]]:
    """Adjacency lists of a uniform random labelled ternary tree on n >= 3 leaves."""
    adj: list[list[int]] = [[] for _ in range(2 * n - 2)]
    edges = []
    for leaf in range(3):
        adj[leaf].append(n)
        adj[n].append(leaf)
        edges.append((leaf, n))
    for leaf in range(3, n):
        mid = n + leaf - 2
        k = int(rng.integers(len(edges)))
        a, b = edges[k]
        adj[a][adj[a].index(b)] = mid
        adj[b][adj[b].index(a)] = mid
        adj[mid] = [a, b, leaf]
        adj[leaf] = [mid]
        edges[k] = (a, mid)
        edges += [(mid, b), (mid, leaf)]
    return adj


def hop_distances(adj: list[list[int]], n: int) -> np.ndarray:
    """Leaf-to-leaf path lengths in edges, (n, n) int64."""
    out = np.zeros((n, n), dtype=np.int64)
    for src in range(n):
        dist = {src: 0}
        frontier = [src]
        while frontier:
            nxt = []
            for v in frontier:
                for w in adj[v]:
                    if w not in dist:
                        dist[w] = dist[v] + 1
                        nxt.append(w)
            frontier = nxt
        out[src] = [dist[leaf] for leaf in range(n)]
    return out


def tree_metric(adj: list[list[int]], n: int) -> np.ndarray:
    """d(a,b) = (L(a,b)+1)/n off the diagonal, 0 on it: a metric whose unique
    minimum-quartet-cost tree is the one it was derived from."""
    d = (hop_distances(adj, n) + 1.0) / n
    np.fill_diagonal(d, 0.0)
    return d


def leaf_swap(adj: list[list[int]], u: int, v: int) -> list[list[int]]:
    """Copy of the tree with leaves u and v exchanged (u, v must not be siblings)."""
    pu, pv = adj[u][0], adj[v][0]
    if pu == pv:
        raise ValueError(f"leaves {u} and {v} are siblings")
    out = [list(row) for row in adj]
    out[pu][out[pu].index(u)] = v
    out[pv][out[pv].index(v)] = u
    out[u], out[v] = [pv], [pu]
    return out


def names_for(n: int) -> list[str]:
    return [f"t{i:03d}" for i in range(n)]


def to_newick(adj: list[list[int]], names: list[str]) -> str:
    """Newick string rooted at the neighbour of leaf 0."""
    n = len(names)
    root = adj[0][0]

    def grow(par: int, v: int) -> str:
        if v < n:
            return names[v]
        return "(" + ",".join(grow(v, w) for w in adj[v] if w != par) + ")"

    return "(" + ",".join(grow(root, w) for w in adj[root]) + ");"


def write_csv_matrix(path: Path, d: np.ndarray, names: list[str]) -> None:
    lines = [",".join(names)]
    lines += [",".join(repr(float(x)) for x in row) for row in d]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def evolve_corpus(
    n: int, length: int, rate: float, rng: np.random.Generator
) -> tuple[list[list[int]], list[bytes]]:
    """Random ACGT strings evolved along a random tree.

    A root string of ``length`` uniform bases sits on internal node n; along
    every edge each base is replaced by a uniform random base with
    probability ``rate``. Returns the tree and the n leaf strings.
    """
    adj = random_tree(n, rng)
    seqs: dict[int, np.ndarray] = {n: ACGT[rng.integers(4, size=length)]}
    stack = [n]
    while stack:
        v = stack.pop()
        for w in adj[v]:
            if w in seqs:
                continue
            s = seqs[v].copy()
            hit = rng.random(length) < rate
            s[hit] = ACGT[rng.integers(4, size=int(hit.sum()))]
            seqs[w] = s
            stack.append(w)
    return adj, [seqs[leaf].tobytes() for leaf in range(n)]


def recombinant(a: bytes, b: bytes, share: float, rate: float, rng: np.random.Generator) -> bytes:
    """The first ``share`` of ``a`` followed by the rest of ``b``, then point
    substitutions at ``rate``: an item no single tree places exactly."""
    cut = int(len(a) * share)
    s = np.frombuffer(a[:cut] + b[cut:], dtype=np.uint8).copy()
    hit = rng.random(len(s)) < rate
    s[hit] = ACGT[rng.integers(4, size=int(hit.sum()))]
    return s.tobytes()


# ---------------------------------------------------------------------- #
# Workload instances
# ---------------------------------------------------------------------- #

PLANTED_N = {"planted-metropolis": 32, "planted-hill-stats": 12, "score-n96": 96}
CORPUS_N = 24
CORPUS_BYTES = 8192
CORPUS_RATE = 0.015
RECOMBINANT_SHARE = 0.6


def instance_rng(workload: str, seed: int, round_index: int) -> np.random.Generator:
    return np.random.default_rng([*workload.encode(), seed, round_index])


def make_instance(workload: str, seed: int, round_index: int, out: Path) -> dict:
    """Write one round's input files under ``out`` and return what the
    checks need. The same (workload, seed, round) always gives the same files."""
    out.mkdir(parents=True, exist_ok=True)
    rng = instance_rng(workload, seed, round_index)
    search_seed = int(rng.integers(2**31))
    if workload == "ncd-agreement":
        adj, seqs = evolve_corpus(CORPUS_N - 1, CORPUS_BYTES, CORPUS_RATE, rng)
        a = int(rng.integers(CORPUS_N - 1))
        b = int(np.argmax(hop_distances(adj, CORPUS_N - 1)[a]))
        seqs.append(recombinant(seqs[a], seqs[b], RECOMBINANT_SHARE, CORPUS_RATE, rng))
        names = names_for(CORPUS_N)
        corpus = out / "corpus"
        corpus.mkdir(exist_ok=True)
        for name, data in zip(names, seqs):
            (corpus / name).write_bytes(data)
        return {"names": names, "corpus": corpus, "seqs": seqs, "search_seed": search_seed}
    n = PLANTED_N[workload]
    adj = random_tree(n, rng)
    names = names_for(n)
    d = tree_metric(adj, n)
    write_csv_matrix(out / "matrix.csv", d, names)
    (out / "planted.nwk").write_text(to_newick(adj, names) + "\n", encoding="utf-8")
    inst = {"names": names, "adj": adj, "d": d, "search_seed": search_seed,
            "matrix": out / "matrix.csv", "planted": out / "planted.nwk"}
    if workload == "score-n96":
        # leaf 0 and the leaf farthest from it (smallest label on ties):
        # so many quartets change that the certificate fails on the first
        # ones it looks at, and the work per instance does not vary
        far = int(np.argmax(hop_distances(adj, n)[0]))
        inst["swapped_adj"] = leaf_swap(adj, 0, far)
        inst["swapped"] = out / "swapped.nwk"
        inst["swapped"].write_text(to_newick(inst["swapped_adj"], names) + "\n", encoding="utf-8")
    return inst
