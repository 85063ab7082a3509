"""Distance-matrix file formats: CSV, PHYLIP square, and Nexus DISTANCES.

Readers are whitespace-tolerant; writers emit 17-significant-digit values so
matrices round-trip exactly through any of the three formats. Nexus is read
through the Newick reader's tokenizer (``trees._tokens``), so both formats
share one rule for quoted labels (``''`` is a quote) and nested ``[...]``
comments; it is split into commands at each unquoted ';'. In the first
DISTANCES block, options come only from ``DIMENSIONS`` (``NTAX=``) and
``FORMAT`` (``TRIANGLE=``, ``[NO]DIAGONAL``, and ``NOLABELS``, refused);
other commands (``TITLE``, ``LINK``, ...) are skipped up to ``MATRIX``,
which ``END`` or ``ENDBLOCK`` may not precede. Values and names pass
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
numbers (CSV refuses all-numeric names, Nexus quotes a numeric name). One
row converter (``_floats``) makes every value; errors give the line.
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


def _floats(tokens: list[str], where: Callable[[int], tuple[int, int | None]]) -> list[float]:
    """A row of tokens as Python's ``float`` reads them; the first bad token,
    k, is reported at ``where(k)``: its line, and its column or None."""
    try:
        return list(map(float, tokens))
    except ValueError:
        k = next(k for k, tok in enumerate(tokens) if not _is_number(tok))
        raise MatrixParseError(f"expected a number, got {tokens[k]!r}", *where(k)) from None


def _build(values: np.ndarray, names, lines: list[int], lower: bool = False) -> DistanceMatrix:
    """The checked matrix of ``values`` read from rows on ``lines``. A check
    that fails at a cell d[i,j] gives the line of the row holding it: row i,
    or row j of a lower triangle, whose first failing cell (i <= j, as the
    mirrored cell fails too) lies above the diagonal. A name check fails at
    (k, k), k the row holding the first empty name or a name's second copy."""
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
    rows = [_floats(cells, lambda k: (ln, k + 1)) for ln, cells in lines]
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
    toks, tok_lines = [], []  # each token and its line
    for lineno, raw in enumerate(text.splitlines(), start=1):
        words = raw.split()
        toks += words
        tok_lines += [lineno] * len(words)
    if not toks:
        raise MatrixParseError("empty input")
    try:
        n = int(toks[0])
    except ValueError:
        raise MatrixParseError(f"expected item count, got {toks[0]!r}", tok_lines[0]) from None
    if n < 1:
        raise MatrixParseError(f"bad item count {n}", tok_lines[0])
    # row i is the name at token 1 + i(n + 1), then its n values
    end = 1 + n * (n + 1)
    names, lines, rows = [], [], []
    for pos in range(1, end, n + 1):
        if pos >= len(toks):
            raise MatrixParseError(f"truncated input: expected {n} rows, got {len(rows)}", tok_lines[-1])
        names.append(toks[pos])
        lines.append(tok_lines[pos])
        rows.append(_floats(toks[pos + 1 : pos + 1 + n], lambda k: (tok_lines[pos + 1 + k], None)))
        if len(rows[-1]) < n:
            raise MatrixParseError(
                f"row {toks[pos]!r} is truncated: expected {n} values, got {len(rows[-1])}", tok_lines[-1]
            )
    if end < len(toks):
        raise MatrixParseError(f"unexpected trailing token {toks[end]!r}", tok_lines[end])
    return _build(np.array(rows, dtype=np.float64), names, lines)


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


def _command_word(cmd: list, k: int = 0) -> str | None:
    """Token k of a Nexus command upper-cased, or None if quoted or absent."""
    return cmd[k][0].upper() if k < len(cmd) and not cmd[k][2] else None


def _parse_nexus(text: str) -> DistanceMatrix:
    if not text.lstrip().upper().startswith("#NEXUS"):
        raise MatrixParseError("missing #NEXUS header", 1)
    # the commands, each a list of (token, line, quoted) ended by its ';'
    # (the last may lack one), after the #NEXUS token
    commands, cmd, line, last = [], [], 1, 0
    try:
        for tok, pos, quoted in _tokens(text, ";="):
            line += text.count("\n", last, pos)
            last = pos
            cmd.append((tok, line, quoted))
            if tok == ";" and not quoted:
                commands.append(cmd)
                cmd = []
    except _LexError as exc:
        raise MatrixParseError(str(exc), line + text.count("\n", last, exc.pos)) from None
    commands.append(cmd)
    commands[0] = commands[0][1:]
    start = next((k for k, c in enumerate(commands) if _command_word(c) == "BEGIN"
                  and _command_word(c, 1) == "DISTANCES"), None)
    if start is None:
        raise MatrixParseError("no DISTANCES block found", 1)

    ntax, triangle, diagonal, labels = None, "BOTH", True, True
    for cmd in commands[start + 1 :]:
        name = _command_word(cmd)
        if name == "MATRIX":
            break
        if name in ("END", "ENDBLOCK"):
            raise MatrixParseError("DISTANCES block has no MATRIX command", cmd[0][1])
        if name not in ("DIMENSIONS", "FORMAT"):
            continue
        for k in range(1, len(cmd)):
            word = _command_word(cmd, k)
            # an option's value is the token after its '=', even a ';'
            value = cmd[k + 2] if k + 2 < len(cmd) and cmd[k + 1][0] == "=" else None
            if name == "DIMENSIONS":
                if word == "NTAX" and value:
                    try:
                        ntax = int(value[0])
                    except ValueError:
                        raise MatrixParseError(
                            f"expected an item count after NTAX=, got {value[0]!r}", value[1]
                        ) from None
                    if ntax < 0:
                        raise MatrixParseError(f"bad item count {ntax}", value[1])
            elif word == "TRIANGLE" and value:
                triangle = value[0].upper()
            elif word in ("DIAGONAL", "NODIAGONAL"):
                diagonal = word == "DIAGONAL"
            elif word == "NOLABELS":
                labels = False
    else:
        raise MatrixParseError("DISTANCES block has no MATRIX command", commands[start][0][1])
    matrix_line = cmd[0][1]
    if triangle not in ("BOTH", "LOWER", "UPPER"):
        raise MatrixParseError(f"unsupported TRIANGLE={triangle}", matrix_line)
    if not labels:
        raise MatrixParseError("NOLABELS distance matrices are not supported", matrix_line)

    closed = cmd[-1][0] == ";" and not cmd[-1][2]
    rows: list[tuple[str, int, list[str]]] = []
    for tok, line, quoted in cmd[1 : len(cmd) - closed]:
        if quoted or not _is_number(tok):
            rows.append((tok, line, []))
        elif rows:
            rows[-1][2].append(tok)
        else:
            raise MatrixParseError("matrix value before any taxon label", line)
    if not closed:
        raise MatrixParseError("MATRIX command not terminated by ';'", matrix_line)
    n = ntax if ntax is not None else len(rows)
    if len(rows) != n:
        raise MatrixParseError(f"expected {n} matrix rows, found {len(rows)}", cmd[-1][1])
    if not rows:
        raise MatrixParseError("no matrix rows found", cmd[-1][1])
    values = np.zeros((n, n), dtype=np.float64)
    for idx, (label, line, vals) in enumerate(rows):
        first = idx + (not diagonal) if triangle == "UPPER" else 0
        want = idx + diagonal if triangle == "LOWER" else n - first
        if len(vals) != want:
            raise MatrixParseError(
                f"row {label!r}: expected {want} values for TRIANGLE={triangle}"
                f"{'' if diagonal else ' NODIAGONAL'}, got {len(vals)}",
                line,
            )
        values[idx, first : first + want] = _floats(vals, lambda k: (line, None))
    if triangle != "BOTH":
        values = values + values.T
        if diagonal:
            values[np.diag_indices(n)] /= 2.0
    return _build(values, [r[0] for r in rows], [r[1] for r in rows], lower=triangle == "LOWER")


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
