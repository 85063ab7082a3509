import re

import numpy as np
import pytest

from quartet.cost import DistanceMatrix
from quartet.matrix_io import (
    FORMATS,
    MatrixParseError,
    detect_format,
    format_matrix,
    parse_matrix,
    read_distance_matrix,
    write_distance_matrix,
)

from conftest import random_symmetric_matrix, rng_for


@pytest.mark.parametrize("fmt", FORMATS)
def test_round_trip_exact(fmt, tmp_path):
    rng = rng_for(17)
    dm = random_symmetric_matrix(9, rng)
    dm = DistanceMatrix(dm.d, names=[f"sp{i}" for i in range(9)])
    path = tmp_path / f"m.{fmt}"
    write_distance_matrix(dm, path, fmt)
    back = read_distance_matrix(path, fmt)
    assert np.array_equal(back.d, dm.d)  # bit-exact through text
    assert back.names == dm.names


def test_csv_headerless_round_trip(tmp_path):
    dm = random_symmetric_matrix(5, rng_for(3))
    assert dm.names is None
    text = format_matrix(dm, "csv")
    back = parse_matrix(text, "csv")
    assert back.names is None and np.array_equal(back.d, dm.d)


def test_csv_rejects_numeric_names():
    dm = DistanceMatrix(np.zeros((4, 4)), names=["1", "2", "3", "4"])
    with pytest.raises(ValueError):
        format_matrix(dm, "csv")


def test_whitespace_tolerance():
    text = "  a , b ,c, d\n 0, 1,2, 3\n1,0 , 2,2\n2,2,0,1\n3,2,1,0\n"
    dm = parse_matrix(text, "csv")
    assert dm.names == ["a", "b", "c", "d"]
    phylip = " 4\n  a\t0 1 2 3\n b 1 0 2\n   2\n c 2 2 0 1\n d 3 2 1 0\n"
    dm2 = parse_matrix(phylip, "phylip")
    assert dm2.names == ["a", "b", "c", "d"]
    assert dm2.d[1, 3] == 2.0


def test_parse_errors_carry_positions():
    with pytest.raises(MatrixParseError, match="line 2"):
        parse_matrix("1,2\n3,x\n", "csv")
    with pytest.raises(MatrixParseError, match="symmetric"):
        parse_matrix("0,1\n1.5,0\n" * 1, "csv")
    with pytest.raises(MatrixParseError, match="expected item count"):
        parse_matrix("abc\n", "phylip")
    with pytest.raises(MatrixParseError, match="truncated"):
        parse_matrix("3\na 0 1 2\nb 1 0 1\n", "phylip")
    with pytest.raises(MatrixParseError, match="NEXUS"):
        parse_matrix("BEGIN DISTANCES;", "nexus")
    with pytest.raises(MatrixParseError, match="line 3: expected an item count"):
        parse_matrix("#NEXUS\nBEGIN DISTANCES;\nDIMENSIONS NTAX=x;\nMATRIX a 0;\nEND;\n", "nexus")
    with pytest.raises(MatrixParseError, match="line 3: unterminated quoted label"):
        parse_matrix("#NEXUS\nBEGIN DISTANCES; MATRIX\n'a 0\n;\nEND;\n", "nexus")
    rows = "0,1,1,1,1\n1,0,1,1,1\n1,1,0,1,1\n1,1,1,0,1\n1,1,1,1,0\n"
    with pytest.raises(MatrixParseError, match="line 1: item names must not be empty"):
        parse_matrix(",x,c,d,e\n" + rows, "csv")
    with pytest.raises(MatrixParseError, match="line 2: item names must be unique"):
        parse_matrix("# names\nx,x,c,d,e\n" + rows, "csv")


def test_csv_rejects_names_it_would_read_back_changed():
    d = 1.0 - np.eye(4)
    for names in ([" a", "b", "c", "d "], ["a", "b", "c", "d\n"], ["a", "b\rc", "c", "d"],
                  ["#a", "b", "c", "d"]):
        with pytest.raises(ValueError, match="CSV"):
            format_matrix(DistanceMatrix(d, names), "csv")
    # blanks inside a name, and '#' past the line start, read back as written
    names = ["a b", "#b", "c\td", "d"]
    assert parse_matrix(format_matrix(DistanceMatrix(d, names), "csv"), "csv").names == names


def test_nexus_block_starts_only_at_a_command():
    d = 1.0 - np.eye(4)
    names = ["BEGIN", "DISTANCES", "c", "d"]
    back = parse_matrix(format_matrix(DistanceMatrix(d, names), "nexus"), "nexus")
    assert back.names == names and np.array_equal(back.d, d)
    with pytest.raises(MatrixParseError, match="no DISTANCES block"):
        parse_matrix("#NEXUS\nBEGIN TAXA; TAXLABELS BEGIN DISTANCES c d; END;\n", "nexus")


def test_phylip_rejects_names_that_collide_or_vanish():
    d = 1.0 - np.eye(4)
    for names in (["a b", "a_b", "c", "d"], [" ", "b", "c", "d"]):
        with pytest.raises(ValueError, match="PHYLIP"):
            format_matrix(DistanceMatrix(d, names), "phylip")


def test_csv_first_row_typo_is_not_a_header():
    with pytest.raises(MatrixParseError, match="line 1, column 3"):
        parse_matrix("0,1,x\n1,0,2\nx,2,0\n", "csv")


def test_nexus_lower_triangle_and_comments():
    text = """#NEXUS
[ distance block written by another tool ]
BEGIN distances;
  DIMENSIONS ntax=4;
  FORMAT triangle=LOWER diagonal;
  MATRIX
    'sp a' 0
    b 1.5 0
    c 2.25 3 0
    d 0.5 1 2 0
  ;
END;
"""
    dm = parse_matrix(text, "nexus")
    assert dm.names == ["sp a", "b", "c", "d"]
    assert dm.d[0, 3] == 0.5 and dm.d[3, 0] == 0.5
    assert dm.d[2, 1] == 3.0 and dm.d[1, 2] == 3.0


def test_an_unknown_format_names_the_known_ones():
    message = "unknown matrix format 'xml'; choose from ('csv', 'phylip', 'nexus')"
    for call in (lambda: parse_matrix("0", "xml"), lambda: format_matrix(DistanceMatrix(np.zeros((4, 4))), "xml")):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call()


def test_a_name_check_without_a_cell_is_a_parse_error():
    """An empty quoted Nexus label fails the matrix's name check, which names
    no cell and so no line."""
    rows = "".join(f"{name} {' '.join('0' if i == j else '1' for j in range(4))}\n"
                   for i, name in enumerate(["''", "b", "c", "d"]))
    text = f"#NEXUS\nBEGIN DISTANCES;\nDIMENSIONS NTAX=4;\nMATRIX\n{rows};\nEND;\n"
    with pytest.raises(MatrixParseError, match="^item names must not be empty, got one at position 0$"):
        parse_matrix(text, "nexus")


def test_format_detection(tmp_path):
    assert detect_format("x.nex") == "nexus"
    assert detect_format("x.phy") == "phylip"
    assert detect_format("x.csv") == "csv"
    for ext, fmt in ((".phylip", "phylip"), (".dist", "phylip"), (".nexus", "nexus"),
                     (".nxs", "nexus"), (".NXS", "nexus")):
        assert detect_format("x" + ext, "0,1\n1,0\n") == fmt
    assert detect_format(None, "#NEXUS\nBEGIN...") == "nexus"
    assert detect_format(None, " 5\na 0 1\n") == "phylip"
    assert detect_format(None, "0,1\n1,0\n") == "csv"
    # extension wins over content
    p = tmp_path / "m.weird"
    p.write_text("#NEXUS\n")
    assert detect_format(p, "#NEXUS\n") == "nexus"


def test_17_digit_round_trip_values():
    vals = np.array(
        [
            [0.0, 1 / 3, np.pi],
            [1 / 3, 0.0, np.nextafter(0.1, 1.0)],
            [np.pi, np.nextafter(0.1, 1.0), 0.0],
        ]
    )
    # 3x3 is legal as a bare matrix container even though trees need n>=4
    dm = DistanceMatrix(vals)
    for fmt in FORMATS:
        back = parse_matrix(format_matrix(dm, fmt), fmt)
        assert np.array_equal(back.d, vals), fmt


def nexus_triangle(d, names, triangle, diagonal, short_row=None):
    """Nexus text of d in one TRIANGLE x DIAGONAL layout, written cell by
    cell; row ``short_row`` loses its last value."""
    n = len(d)
    rows = []
    for i in range(n):
        if triangle == "BOTH":
            cols = range(n)
        elif triangle == "LOWER":
            cols = range(i + 1 if diagonal else i)
        else:
            cols = range(i if diagonal else i + 1, n)
        vals = [repr(float(d[i, j])) for j in cols]
        if i == short_row:
            vals.pop()
        rows.append(f"    '{names[i]}' " + " ".join(vals))
    return "\n".join([
        "#NEXUS", "BEGIN DISTANCES;", f"  DIMENSIONS NTAX={n};",
        f"  FORMAT TRIANGLE={triangle} {'DIAGONAL' if diagonal else 'NODIAGONAL'};",
        "  MATRIX", *rows, "  ;", "END;",
    ]) + "\n"


@pytest.mark.parametrize("diagonal", [True, False])
@pytest.mark.parametrize("triangle", ["BOTH", "LOWER", "UPPER"])
def test_nexus_reads_every_triangle_layout(triangle, diagonal):
    dm = random_symmetric_matrix(6, rng_for(41))
    names = [f"t {i}" for i in range(6)]
    back = parse_matrix(nexus_triangle(dm.d, names, triangle, diagonal), "nexus")
    assert back.names == names and np.array_equal(back.d, dm.d)
    # row 't 2' is on line 8 and holds these many values in this layout
    want = {"BOTH": 6, "LOWER": 2 + diagonal, "UPPER": 4 - (not diagonal)}[triangle]
    layout = triangle + ("" if diagonal else " NODIAGONAL")
    message = f"line 8: row 't 2': expected {want} values for TRIANGLE={layout}, got {want - 1}"
    with pytest.raises(MatrixParseError) as exc:
        parse_matrix(nexus_triangle(dm.d, names, triangle, diagonal, short_row=2), "nexus")
    assert str(exc.value) == message


def csv_text(d, names):
    """A comment line and a header, then row i on line 3 + i."""
    rows = [",".join(repr(float(x)) for x in row) for row in d]
    return "\n".join(["# distances", ",".join(names), *rows]) + "\n"


def phylip_text(d, names):
    """The item count, then row i on line 2 + i."""
    rows = [f"{nm} " + " ".join(repr(float(x)) for x in row) for nm, row in zip(names, d)]
    return "\n".join([str(len(d)), *rows]) + "\n"


WRITERS = {  # format: (text writer, line of row 0)
    "csv": (csv_text, 3),
    "phylip": (phylip_text, 2),
    "nexus": (lambda d, names: nexus_triangle(d, names, "BOTH", True), 6),
}
# (cell set, value, message, row of the reported cell): each of the
# DistanceMatrix checks, failing first at one cell
CELL_CHECKS = [
    ((2, 1), float("nan"), "distance matrix contains non-finite values", 2),
    ((2, 1), -1.0, "negative distance d[2,1] = -1.0", 2),
    ((2, 2), 0.5, "nonzero diagonal entry d[2,2] = 0.5", 2),
    ((2, 1), 7.0, "matrix is not symmetric: d[1,2]=1 != d[2,1]=7", 1),
]


@pytest.mark.parametrize("cell, value, message, row", CELL_CHECKS)
@pytest.mark.parametrize("fmt", FORMATS)
def test_matrix_checks_give_the_line_of_the_failing_row(fmt, cell, value, message, row):
    write, first_line = WRITERS[fmt]
    d = 1.0 - np.eye(4)
    d[cell] = value
    with pytest.raises(MatrixParseError) as exc:
        parse_matrix(write(d, ["a", "b", "c", "d"]), fmt)
    assert str(exc.value) == f"line {first_line + row}: {message}"


@pytest.mark.parametrize("fmt", FORMATS)
def test_a_repeated_name_gives_the_line_of_its_second_copy(fmt):
    write, first_line = WRITERS[fmt]
    # CSV names sit on one header line, just above row 0
    line = first_line - 1 if fmt == "csv" else first_line + 2
    with pytest.raises(MatrixParseError) as exc:
        parse_matrix(write(1.0 - np.eye(4), ["a", "b", "a", "b"]), fmt)
    assert str(exc.value) == f"line {line}: item names must be unique, got duplicates ['a', 'b']"


@pytest.mark.parametrize("triangle, diagonal, cell, value, message", [
    (triangle, diagonal, cell if triangle == "LOWER" else cell[::-1], value, message)
    for triangle in ("LOWER", "UPPER") for diagonal in (True, False)
    for cell, value, message, _ in CELL_CHECKS[:3] if diagonal or cell[0] != cell[1]
])
def test_triangle_checks_give_the_line_of_the_row_holding_the_cell(triangle, diagonal, cell, value,
                                                                    message):
    # the cell's mirror fails too, and comes first in the message when the
    # cell lies below the diagonal; the line is that of the row holding it
    d = 1.0 - np.eye(4)
    d[cell] = value
    first, second = sorted(cell)
    message = message.replace("d[2,1]", f"d[{first},{second}]")
    with pytest.raises(MatrixParseError) as exc:
        parse_matrix(nexus_triangle(d, ["a", "b", "c", "d"], triangle, diagonal), "nexus")
    assert str(exc.value) == f"line {6 + cell[0]}: {message}"


@pytest.mark.parametrize("text, message", [
    ("#NEXUS\nBEGIN DISTANCES;\nDIMENSIONS NTAX=2;\nMATRIX\na 0 1\nb 1 0\n",
     "line 4: MATRIX command not terminated by ';'"),
    ("#NEXUS\n\nBEGIN DISTANCES;\nDIMENSIONS NTAX=2;\n",
     "line 3: DISTANCES block has no MATRIX command"),
    ("#NEXUS\nBEGIN DISTANCES;\nDIMENSIONS NTAX=3;\nMATRIX\na 0 1\nb 1 0\n  ;\nEND;\n",
     "line 7: expected 3 matrix rows, found 2"),
    ("#NEXUS\nBEGIN DISTANCES;\nFORMAT NOLABELS;\nMATRIX\n0 1\n1 0\n;\nEND;\n",
     "line 4: NOLABELS distance matrices are not supported"),
    ("#NEXUS\nBEGIN DISTANCES;\nFORMAT TRIANGLE=ODD;\nMATRIX\na 0\n;\nEND;\n",
     "line 4: unsupported TRIANGLE=ODD"),
    ("#NEXUS\nBEGIN DISTANCES;\nDIMENSIONS NTAX=2;\nEND;\n",
     "line 4: DISTANCES block has no MATRIX command"),
    ("#NEXUS\nBEGIN DISTANCES;\nMATRIX\n0 a 1\n;\nEND;\n",
     "line 4: matrix value before any taxon label"),
])
def test_nexus_block_errors_give_a_line(text, message):
    with pytest.raises(MatrixParseError) as exc:
        parse_matrix(text, "nexus")
    assert str(exc.value) == message


@pytest.mark.parametrize("fmt, text, message", [
    ("csv", "", "no matrix rows found"),
    ("csv", "# a comment\n\n", "line 2: no matrix rows found"),
    ("csv", "0,1\n1,0,2\n", "line 2: row has 3 values but the matrix has 2 rows"),
    ("phylip", " \n\n", "empty input"),
    ("phylip", "0\n", "line 1: bad item count 0"),
    ("phylip", "3\na 0 1 2\nb 1 0\n", "line 3: row 'b' is truncated: expected 3 values, got 2"),
    ("phylip", "2\na 0 1\nb 1 0 9\n", "line 3: unexpected trailing token '9'"),
])
def test_csv_and_phylip_errors_give_a_line(fmt, text, message):
    with pytest.raises(MatrixParseError) as exc:
        parse_matrix(text, fmt)
    assert str(exc.value) == message
