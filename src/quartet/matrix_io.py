"""Distance-matrix file formats: CSV, PHYLIP square, and Nexus DISTANCES.

Readers are whitespace-tolerant; writers emit 17-significant-digit values so
matrices round-trip exactly through any of the three formats. Nexus is read
through the Newick reader's tokenizer (``trees._tokens``), so both formats
share one rule for quoted labels (``''`` is a quote) and nested ``[...]``
comments; its errors give the line. Values and names pass
``DistanceMatrix``'s checks (as many names as items, unique, non-empty); a
check that fails at a cell gives, in every format, the line of the input row
that holds the cell, and a repeated name the line of its second copy. The
CSV writer raises ValueError on names its reader would change or misread:
names with commas, line breaks or blanks at either end, a first name
starting with '#', or all-numeric names. The PHYLIP writer raises it on
names that collide or become empty once blanks are written as '_'.

One rule says what a number is: a token Python's ``float`` accepts, so
``1e5``, ``nan`` and ``inf`` are numbers. A CSV first row is a header
unless every cell is a number; a Nexus matrix token starts a row when it is
quoted or not a number; and the writers keep names from reading back as
numbers (CSV refuses all-numeric names, Nexus quotes a numeric name).
"""

from __future__ import annotations

from collections import Counter
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .cost import DistanceMatrix
from .trees import _CellError, _check_names, _LexError, _tokens

__all__ = [
    "FORMATS",
    "MatrixParseError",
    "detect_format",
    "format_matrix",
    "parse_matrix",
    "read_distance_matrix",
    "write_distance_matrix",
]


class MatrixParseError(ValueError):
    """Malformed matrix input, with 1-based line (and column when known)."""

    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        loc = ""
        if line is not None:
            loc = f"line {line}" + (f", column {col}" if col is not None else "") + ": "
        super().__init__(loc + message)
        self.line = line
        self.col = col


def _fmt_value(x: float) -> str:
    return format(float(x), ".17g")


def _is_number(token: str) -> bool:
    try:
        float(token)
    except ValueError:
        return False
    return True


def _parse_float(token: str, line: int, col: int | None = None) -> float:
    try:
        return float(token)
    except ValueError:
        raise MatrixParseError(f"expected a number, got {token!r}", line, col) from None


def _build(values: np.ndarray, names, lines: list[int], lower: bool = False) -> DistanceMatrix:
    """The checked matrix of ``values`` read from rows on ``lines``. A check
    that fails at a cell d[i,j] gives the line of the row holding it: row i,
    or row j of a lower triangle, whose first failing cell (i <= j, as the
    mirrored cell fails too) lies above the diagonal. A repeated name fails
    at (k, k), k the row holding its second copy."""
    try:
        return DistanceMatrix(values, names)
    except _CellError as exc:
        i, j = exc.cell
        raise MatrixParseError(str(exc), lines[j if lower else i]) from exc
    except ValueError as exc:
        raise MatrixParseError(str(exc)) from exc


# ---------------------------------------------------------------------- #
# CSV (square grid, optional header row with names)
# ---------------------------------------------------------------------- #


def _parse_csv(text: str) -> DistanceMatrix:
    lines = []
    lineno = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            lines.append((lineno, [c.strip() for c in line.split(",")]))
    if not lines:
        raise MatrixParseError("no matrix rows found", lineno or None)
    names = None
    # Row 1 names the items only when one row per name follows it, so a typo
    # in the first row of a headerless matrix is reported where it is.
    if len(lines) == len(lines[0][1]) + 1 and not all(map(_is_number, lines[0][1])):
        ln, names = lines.pop(0)
        try:
            _check_names(len(names), names)
        except ValueError as exc:
            raise MatrixParseError(str(exc), ln) from None
    rows = [[_parse_float(c, ln, i + 1) for i, c in enumerate(cells)] for ln, cells in lines]
    n = len(rows)
    for (ln, _), row in zip(lines, rows):
        if len(row) != n:
            raise MatrixParseError(f"row has {len(row)} values but the matrix has {n} rows", ln)
    return _build(np.array(rows, dtype=np.float64), names, [ln for ln, _ in lines])


def _format_csv(dm: DistanceMatrix) -> str:
    lines = []
    if dm.names is not None:
        # the reader splits at line breaks and commas, strips each cell's
        # blanks and skips lines that start with '#'
        bad = [nm for nm in dm.names if "," in nm or nm != nm.strip() or len(nm.splitlines()) > 1]
        if bad:
            raise ValueError(
                f"CSV cannot hold names with commas or line breaks, or with blanks "
                f"at either end: {bad[:3]}"
            )
        if dm.names[0].startswith("#"):
            raise ValueError(f"CSV cannot hold a first name starting with '#': {dm.names[0]!r}")
        if all(map(_is_number, dm.names)):
            raise ValueError(
                "CSV cannot hold all-numeric item names (the header would parse "
                "as a matrix row); use the phylip or nexus format"
            )
        lines.append(",".join(dm.names))
    for i in range(dm.n):
        lines.append(",".join(_fmt_value(x) for x in dm.d[i]))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------- #
# PHYLIP square (relaxed: whitespace-separated, name first per row)
# ---------------------------------------------------------------------- #


def _parse_phylip(text: str) -> DistanceMatrix:
    tokens: list[tuple[str, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        for tok in raw.split():
            tokens.append((tok, lineno))
    if not tokens:
        raise MatrixParseError("empty input")
    pos = 0
    head, head_line = tokens[pos]
    pos += 1
    try:
        n = int(head)
    except ValueError:
        raise MatrixParseError(f"expected item count, got {head!r}", head_line) from None
    if n < 1:
        raise MatrixParseError(f"bad item count {n}", head_line)
    names, lines = [], []
    values = np.empty((n, n), dtype=np.float64)
    for i in range(n):
        if pos >= len(tokens):
            raise MatrixParseError(f"truncated input: expected {n} rows, got {i}", tokens[-1][1])
        name, line = tokens[pos]
        pos += 1
        names.append(name)
        lines.append(line)
        for j in range(n):
            if pos >= len(tokens):
                raise MatrixParseError(
                    f"row {name!r} is truncated: expected {n} values, got {j}", tokens[-1][1]
                )
            tok, line = tokens[pos]
            pos += 1
            values[i, j] = _parse_float(tok, line)
    if pos != len(tokens):
        raise MatrixParseError(f"unexpected trailing token {tokens[pos][0]!r}", tokens[pos][1])
    return _build(values, names, lines)


def _format_phylip(dm: DistanceMatrix) -> str:
    # PHYLIP tokens are whitespace-delimited; spaces in names become '_'
    given = _check_names(dm.n, dm.names)
    names = ["_".join(nm.split()) for nm in given]
    counts = Counter(names)
    bad = [nm for nm, out in zip(given, names) if not out or counts[out] > 1]
    if bad:
        raise ValueError(
            f"PHYLIP cannot hold names that collide or become empty once blanks "
            f"are written as '_': {bad[:3]}"
        )
    width = max(10, max(len(nm) for nm in names) + 1)
    lines = [f"{dm.n:5d}"]
    for i in range(dm.n):
        row = " ".join(_fmt_value(x) for x in dm.d[i])
        lines.append(f"{names[i]:<{width}s} {row}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------- #
# Nexus DISTANCES block
# ---------------------------------------------------------------------- #


def _parse_nexus(text: str) -> DistanceMatrix:
    if not text.lstrip().upper().startswith("#NEXUS"):
        raise MatrixParseError("missing #NEXUS header", 1)
    toks, line, last = [], 1, 0
    try:
        for tok, pos, quoted in _tokens(text, ";="):
            line += text.count("\n", last, pos)
            last = pos
            toks.append((tok, line, quoted))
    except _LexError as exc:
        raise MatrixParseError(str(exc), line + text.count("\n", last, exc.pos)) from None
    upper = [t[0].upper() if not t[2] else None for t in toks]
    # a block starts only where a command may: after #NEXUS or after a ';'
    for start in range(1, len(toks) - 1):
        if upper[start : start + 2] == ["BEGIN", "DISTANCES"] and (start == 1 or upper[start - 1] == ";"):
            break
    else:
        raise MatrixParseError("no DISTANCES block found", 1)

    ntax = None
    triangle = "BOTH"
    diagonal = True
    labels = True
    i = start + 2
    while i < len(toks) and upper[i] != "MATRIX":
        word = upper[i]
        if word == "NTAX":
            if i + 2 < len(toks) and toks[i + 1][0] == "=":
                tok, line, _ = toks[i + 2]
                try:
                    ntax = int(tok)
                except ValueError:
                    raise MatrixParseError(f"expected an item count after NTAX=, got {tok!r}", line) from None
                i += 3
                continue
        if word == "TRIANGLE" and i + 2 < len(toks) and toks[i + 1][0] == "=":
            triangle = toks[i + 2][0].upper()
            i += 3
            continue
        if word == "DIAGONAL":
            diagonal = True
        elif word == "NODIAGONAL":
            diagonal = False
        elif word == "NOLABELS":
            labels = False
        elif word == "END":
            raise MatrixParseError("DISTANCES block has no MATRIX command", toks[i][1])
        i += 1
    if i >= len(toks):
        raise MatrixParseError("DISTANCES block has no MATRIX command", toks[start][1])
    matrix_line = toks[i][1]
    if triangle not in ("BOTH", "LOWER", "UPPER"):
        raise MatrixParseError(f"unsupported TRIANGLE={triangle}", matrix_line)
    if not labels:
        raise MatrixParseError("NOLABELS distance matrices are not supported", matrix_line)
    i += 1  # past MATRIX

    rows: list[tuple[str, list[float], int]] = []
    cur_name = None
    cur_vals: list[float] = []
    cur_line = None
    while i < len(toks):
        tok, line, quoted = toks[i]
        if tok == ";" and not quoted:
            break
        if quoted or not _is_number(tok):
            if cur_name is not None:
                rows.append((cur_name, cur_vals, cur_line))
            cur_name, cur_vals, cur_line = tok, [], line
        else:
            if cur_name is None:
                raise MatrixParseError("matrix value before any taxon label", line)
            cur_vals.append(float(tok))
        i += 1
    else:
        raise MatrixParseError("MATRIX command not terminated by ';'", matrix_line)
    if cur_name is not None:
        rows.append((cur_name, cur_vals, cur_line))

    n = ntax if ntax is not None else len(rows)
    if len(rows) != n:
        raise MatrixParseError(f"expected {n} matrix rows, found {len(rows)}", line)  # the ';' line
    names = [r[0] for r in rows]
    values = np.zeros((n, n), dtype=np.float64)
    for idx, (name, vals, line) in enumerate(rows):
        first = idx + (not diagonal) if triangle == "UPPER" else 0
        want = idx + diagonal if triangle == "LOWER" else n - first
        if len(vals) != want:
            raise MatrixParseError(
                f"row {name!r}: expected {want} values for TRIANGLE={triangle}"
                f"{'' if diagonal else ' NODIAGONAL'}, got {len(vals)}",
                line,
            )
        values[idx, first : first + want] = vals
    if triangle != "BOTH":
        values = values + values.T
        if diagonal:
            values[np.diag_indices(n)] /= 2.0
    return _build(values, names, [r[2] for r in rows], lower=triangle == "LOWER")


def _format_nexus(dm: DistanceMatrix) -> str:
    names = _check_names(dm.n, dm.names)

    def q(name: str) -> str:
        if name and not _is_number(name) and all(ch.isalnum() or ch in "._-" for ch in name):
            return name
        return "'" + name.replace("'", "''") + "'"

    lines = [
        "#NEXUS",
        "BEGIN TAXA;",
        f"  DIMENSIONS NTAX={dm.n};",
        "  TAXLABELS " + " ".join(q(nm) for nm in names) + ";",
        "END;",
        "BEGIN DISTANCES;",
        f"  DIMENSIONS NTAX={dm.n};",
        "  FORMAT TRIANGLE=BOTH DIAGONAL LABELS;",
        "  MATRIX",
    ]
    width = max(len(q(nm)) for nm in names)
    for i in range(dm.n):
        row = " ".join(_fmt_value(x) for x in dm.d[i])
        lines.append(f"    {q(names[i]):<{width}s} {row}")
    lines += ["  ;", "END;"]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------- #
# Entry points
# ---------------------------------------------------------------------- #


class _Format(NamedTuple):
    """A matrix format's reader, writer and file extensions."""

    reader: Callable[[str], DistanceMatrix]
    writer: Callable[[DistanceMatrix], str]
    extensions: tuple[str, ...]  # the first names the files ``quartet ncd`` writes


_FORMATS = {
    "csv": _Format(_parse_csv, _format_csv, (".csv",)),
    "phylip": _Format(_parse_phylip, _format_phylip, (".phy", ".phylip", ".dist")),
    "nexus": _Format(_parse_nexus, _format_nexus, (".nex", ".nexus", ".nxs")),
}
FORMATS = tuple(_FORMATS)


def detect_format(path: str | Path | None = None, text: str | None = None) -> str:
    """Guess the matrix format from file extension, falling back to content
    (#NEXUS header, a lone leading integer for PHYLIP, else CSV)."""
    if path is not None:
        suffix = Path(path).suffix.lower()
        for fmt, spec in _FORMATS.items():
            if suffix in spec.extensions:
                return fmt
    if text is not None:
        stripped = text.lstrip()
        if stripped.upper().startswith("#NEXUS"):
            return "nexus"
        first = stripped.splitlines()[0].split() if stripped else []
        if len(first) == 1:
            try:
                int(first[0])
                return "phylip"
            except ValueError:
                pass
    return "csv"


def _lookup(fmt: str) -> _Format:
    if fmt not in _FORMATS:
        raise ValueError(f"unknown matrix format {fmt!r}; choose from {FORMATS}")
    return _FORMATS[fmt]


def parse_matrix(text: str, fmt: str) -> DistanceMatrix:
    return _lookup(fmt).reader(text)


def format_matrix(dm: DistanceMatrix, fmt: str) -> str:
    return _lookup(fmt).writer(dm)


def read_distance_matrix(path: str | Path, fmt: str | None = None) -> DistanceMatrix:
    text = Path(path).read_text(encoding="utf-8")
    return parse_matrix(text, fmt or detect_format(path, text))


def write_distance_matrix(dm: DistanceMatrix, path: str | Path, fmt: str | None = None) -> None:
    fmt = fmt or detect_format(path, None)
    Path(path).write_text(format_matrix(dm, fmt), encoding="utf-8")
