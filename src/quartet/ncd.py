"""Normalized compression distance and matrix construction from raw bytes.

NCD(x, y) = (Z(xy) - min(Z(x), Z(y))) / max(Z(x), Z(y)), where Z measures
the compressed length of its input in bytes under a fixed codec. Similar
objects compress well against each other, driving the quotient toward 0;
unrelated incompressible objects push it toward 1 (slightly above for real
codecs). Any deterministic compressor plugs in; a better codec gives better
distances.
"""

from __future__ import annotations

import bz2
import lzma
import warnings
import zlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Protocol, Sequence

import numpy as np

from .cost import DistanceMatrix

__all__ = [
    "COMPRESSORS",
    "Bz2Compressor",
    "Compressor",
    "CorpusItem",
    "LzmaCompressor",
    "ZlibCompressor",
    "get_compressor",
    "load_corpus",
    "ncd",
    "ncd_matrix",
]


class Compressor(Protocol):
    name: str

    def compressed_length(self, data: bytes) -> int:
        """Length in bytes of ``data`` compressed; deterministic."""
        ...


class ZlibCompressor:
    """Deflate at maximum effort (the default codec)."""

    def __init__(self, level: int = 9):
        self.level = level
        self.name = "zlib"

    def compressed_length(self, data: bytes) -> int:
        return len(zlib.compress(data, self.level))


class Bz2Compressor:
    """Block-sorting codec; often tighter than deflate on text."""

    def __init__(self, level: int = 9):
        self.level = level
        self.name = "bz2"

    def compressed_length(self, data: bytes) -> int:
        return len(bz2.compress(data, self.level))


class LzmaCompressor:
    """LZMA with a large dictionary; strongest of the built-in codecs."""

    def __init__(self, preset: int = 6):
        self.preset = preset
        self.name = "lzma"

    def compressed_length(self, data: bytes) -> int:
        return len(lzma.compress(data, preset=self.preset))


COMPRESSORS = {"zlib": ZlibCompressor, "bz2": Bz2Compressor, "lzma": LzmaCompressor}


def get_compressor(name: str) -> Compressor:
    try:
        return COMPRESSORS[name]()
    except KeyError:
        raise ValueError(
            f"unknown compressor {name!r}; choose from {sorted(COMPRESSORS)}"
        ) from None


@dataclass(frozen=True)
class CorpusItem:
    name: str
    data: bytes

    def __post_init__(self):
        if not self.data:
            raise ValueError(f"corpus item {self.name!r} is empty")


def ncd(x: bytes, y: bytes, z: Compressor | None = None) -> float:
    """Normalized compression distance of two byte strings.

    The concatenation is raw bytes with no separator. The value is not
    clamped: real codecs can exceed 1 slightly and may go marginally
    negative for near-identical inputs.
    """
    if not x or not y:
        raise ValueError("ncd needs nonempty byte strings")
    z = z or ZlibCompressor()
    zx = z.compressed_length(x)
    zy = z.compressed_length(y)
    zxy = z.compressed_length(x + y)
    return (zxy - min(zx, zy)) / max(zx, zy)


def ncd_matrix(
    items: Sequence[CorpusItem], z: Compressor | None = None, workers: int | None = None
) -> DistanceMatrix:
    """Pairwise NCD distance matrix over a corpus.

    Each unordered pair is measured in both concatenation orders and the
    smaller value kept, which makes the matrix exactly symmetric; the
    diagonal is forced to zero and any negative measurement is clamped to 0
    with a warning. With ``workers`` > 1 the pair compressions run in that
    many threads (the codecs release the GIL); the result does not depend
    on scheduling.
    """
    items = list(items)
    if len(items) < 4:
        raise ValueError(f"need at least 4 corpus items, got {len(items)}")
    names = [it.name for it in items]
    if len(set(names)) != len(names):
        dup = sorted({nm for nm in names if names.count(nm) > 1})
        raise ValueError(f"duplicate corpus item names: {dup}")
    z = z or ZlibCompressor()
    n = len(items)
    lengths = [z.compressed_length(it.data) for it in items]
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]

    def both_orders(pair):
        i, j = pair
        x, y = items[i].data, items[j].data
        return z.compressed_length(x + y), z.compressed_length(y + x)

    if workers and workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            joint = list(pool.map(both_orders, pairs))
    else:
        joint = [both_orders(p) for p in pairs]

    d = np.zeros((n, n), dtype=np.float64)
    clamped = 0
    for (i, j), (zxy, zyx) in zip(pairs, joint):
        zx, zy = lengths[i], lengths[j]
        lo, hi = min(zx, zy), max(zx, zy)
        value = (min(zxy, zyx) - lo) / hi
        if value < 0:
            clamped += 1
            value = 0.0
        d[i, j] = d[j, i] = value
    if clamped:
        warnings.warn(
            f"{clamped} negative NCD value(s) clamped to 0", stacklevel=2
        )
    return DistanceMatrix(d, names)


def load_corpus(source: str | Path, manifest: bool = False) -> list[CorpusItem]:
    """Read corpus items from a directory (name = filename) or, with
    ``manifest=True``, from a text file listing one path per line."""
    source = Path(source)
    if manifest:
        paths = []
        for lineno, raw in enumerate(source.read_text(encoding="utf-8").splitlines(), 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            p = Path(line)
            if not p.is_absolute():
                p = source.parent / p
            if not p.is_file():
                raise ValueError(f"{source}:{lineno}: no such file {line!r}")
            paths.append(p)
    else:
        if not source.is_dir():
            raise ValueError(f"corpus directory {source} does not exist")
        paths = sorted(p for p in source.iterdir() if p.is_file())
    items = [CorpusItem(p.name, p.read_bytes()) for p in paths]
    if not items:
        raise ValueError(f"no corpus files found in {source}")
    return items
