import numpy as np
import pytest

from quartet.ncd import CorpusItem, get_compressor, load_corpus, ncd, ncd_matrix

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


@pytest.mark.parametrize("codec", ["zlib", "bz2", "lzma"])
def test_matrix_keeps_the_smaller_order_of_ncd(codec):
    items = dna_corpus(6, 1500, 1)
    z = get_compressor(codec)
    dm = ncd_matrix(items, z)
    want = np.zeros((6, 6))
    for i, x in enumerate(items):
        for j, y in enumerate(items):
            if i != j:
                want[i, j] = max(min(ncd(x.data, y.data, z), ncd(y.data, x.data, z)), 0.0)
    assert dm.d.tobytes() == want.tobytes()


def test_load_corpus_reads_the_files_a_list_names(tmp_path):
    (tmp_path / "sub").mkdir()
    for name in ("a.txt", "b.txt"):
        (tmp_path / "sub" / name).write_bytes(name.encode())
    outside = tmp_path / "c.txt"
    outside.write_bytes(b"c")
    listing = tmp_path / "list.txt"
    listing.write_text(f"# the corpus\nsub/a.txt\n\n  sub/b.txt  \n{outside}\n")
    items = load_corpus(listing, manifest=True)
    assert [(it.name, it.data, it.path) for it in items] == [
        ("a.txt", b"a.txt", tmp_path / "sub" / "a.txt"),
        ("b.txt", b"b.txt", tmp_path / "sub" / "b.txt"),
        ("c.txt", b"c", outside),
    ]


def test_get_compressor_names_the_codecs_it_offers():
    with pytest.raises(ValueError) as exc:
        get_compressor("gzip")
    assert str(exc.value) == "unknown compressor 'gzip'; choose from ['bz2', 'lzma', 'zlib']"


def test_load_corpus_rejects_a_missing_directory_and_an_empty_corpus(tmp_path):
    missing = tmp_path / "missing"
    with pytest.raises(ValueError) as exc:
        load_corpus(missing)
    assert str(exc.value) == f"corpus directory {missing} does not exist"
    empty = tmp_path / "empty"
    (empty / "sub").mkdir(parents=True)  # a directory is not a corpus file
    listing = tmp_path / "list.txt"
    listing.write_text("# nothing listed\n\n")
    for source, manifest in ((empty, False), (listing, True)):
        with pytest.raises(ValueError) as exc:
            load_corpus(source, manifest=manifest)
        assert str(exc.value) == f"no corpus files found in {source}"


def test_load_corpus_names_the_list_line_of_a_missing_file(tmp_path):
    listing = tmp_path / "list.txt"
    listing.write_text("# the corpus\n\nmissing.txt\n")
    with pytest.raises(ValueError) as exc:
        load_corpus(listing, manifest=True)
    assert str(exc.value) == f"{listing}:3: no such file 'missing.txt'"


def test_matrix_rejects_duplicate_item_names():
    items = dna_corpus(4, 200, 1)
    with pytest.raises(ValueError) as exc:
        ncd_matrix(items + [CorpusItem("item1", b"x"), CorpusItem("item0", b"y")])
    assert str(exc.value) == "duplicate corpus item names: ['item0', 'item1']"


class ShrinkingCompressor:
    """Compresses any concatenation of two 5-byte items to 1 byte, so every
    pair's NCD is (1 - 5) / 5 < 0."""

    name = "shrinking"

    def compressed_length(self, data: bytes) -> int:
        return 1 if len(data) > 5 else len(data)


def test_matrix_clamps_negative_values_to_zero_with_a_warning():
    items = [CorpusItem(f"i{k}", bytes([65 + k]) * 5) for k in range(4)]
    with pytest.warns(UserWarning) as record:
        dm = ncd_matrix(items, ShrinkingCompressor())
    assert [str(w.message) for w in record] == ["6 negative NCD value(s) clamped to 0"]
    assert not dm.d.any()
