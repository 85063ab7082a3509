import numpy as np
import pytest

from quartet.ncd import CorpusItem, get_compressor, ncd, ncd_matrix

from conftest import rng_for


def dna_corpus(count: int, length: int, seed: int) -> list[CorpusItem]:
    """Items that share a random ancestor, each with its own point mutations."""
    rng = rng_for(seed)
    bases = np.frombuffer(b"ACGT", dtype=np.uint8)
    ancestor = bases[rng.integers(4, size=length)]
    items = []
    for i in range(count):
        seq = ancestor.copy()
        sites = rng.integers(length, size=length // 10 * (i + 1) // count + 1)
        seq[sites] = bases[rng.integers(4, size=sites.size)]
        items.append(CorpusItem(f"item{i}", seq.tobytes()))
    return items


@pytest.mark.parametrize("codec", ["zlib", "bz2", "lzma"])
def test_matrix_symmetric_with_zero_diagonal(codec):
    dm = ncd_matrix(dna_corpus(6, 1500, 1), get_compressor(codec))
    assert dm.names == [f"item{i}" for i in range(6)]
    assert np.array_equal(dm.d, dm.d.T)
    assert np.all(np.diag(dm.d) == 0.0)
    off = dm.d[~np.eye(6, dtype=bool)]
    assert np.all(off >= 0.0) and np.all(off < 1.2)


def test_identical_items_are_near_zero():
    items = dna_corpus(5, 2000, 2)
    twin = CorpusItem("twin", items[0].data)
    z = get_compressor("zlib")
    dm = ncd_matrix(items + [twin], z)
    assert dm.d[0, 5] < 0.05
    assert dm.d[0, 5] < dm.d[0, 1:5].min()
    assert ncd(items[0].data, items[0].data, z) < 0.05


def test_ncd_rejects_empty_input():
    with pytest.raises(ValueError, match="nonempty"):
        ncd(b"", b"ACGT")
    with pytest.raises(ValueError, match="nonempty"):
        ncd(b"ACGT", b"")
    with pytest.raises(ValueError, match="empty"):
        CorpusItem("blank", b"")


def test_worker_count_does_not_change_matrix():
    items = dna_corpus(8, 1000, 3)
    z = get_compressor("lzma")
    one = ncd_matrix(items, z, workers=1)
    two = ncd_matrix(items, z, workers=2)
    assert one.names == two.names
    assert one.d.tobytes() == two.d.tobytes()
