"""Text formats for the four matrix kinds.

SYM n  -- symbolic cells in the monomial grammar (`0`, `1`, `-i*c*a^-1`, ...)
EXP n  -- affine phase cells (`.` for a bullet, `0`, `b-a`, `e+g-a`, ...): an
          optional sign, then terms joined by `+` or `-`; a term is ASCII
          digits, a symbol a-z other than i, or digits followed by a symbol
BH n m -- Butson log form: integer k for zeta_m^k, `z` for a zero cell
NUM n  -- complex floats as `re,im` pairs, 17 significant digits

Integers (header fields, BH logs, SYM exponents) are an optional sign and
ASCII digits, and NUM pairs are ASCII without `_`: Python's int() and float()
would also take underscores and other scripts' digits.

Parsing is whitespace-insensitive inside rows.  Emitting aligns SYM and EXP
columns and writes EXP terms in canonical order, constant first and symbols
sorted, so `b-a` comes back as `-a+b`.  parse(emit(M)) == M structurally unless a NUM
cell is NaN, which equals nothing; emit(parse(emit(M))) == emit(M) for all M.
"""

from __future__ import annotations

from .matrices import (
    AnyMatrix,
    ButsonMatrix,
    ComplexMatrix,
    ExponentMatrix,
    SymbolicMatrix,
    map_cells,
    parse_phase_cell,
)
from .symbolic import parse_entry, parse_float, parse_int

# Largest root order a BH header may name: the exact checks count each row
# pair's roots in a vector of m ints, and build Phi_m from every Phi_d, d | m.
MAX_BUTSON_ORDER = 1024


class FormatError(ValueError):
    """Malformed matrix text; carries the 1-based line of the problem."""

    def __init__(self, message: str, line: int | None = None) -> None:
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


def _split_rows(text: str, kind: str, extra_header: int = 0):
    lines = [ln for ln in text.splitlines()]
    if not lines:
        raise FormatError("empty input")
    header = lines[0].split()
    if not header or header[0] != kind:
        raise FormatError(f"expected {kind!r} header, got {lines[0]!r}", 1)
    if len(header) != 2 + extra_header:
        raise FormatError(f"malformed {kind} header {lines[0]!r}", 1)
    try:
        n = parse_int(header[1])
    except ValueError:
        raise FormatError(f"bad dimension {header[1]!r}", 1) from None
    if n <= 0:
        raise FormatError(f"bad dimension {n}", 1)
    rows = []
    for lineno, raw in enumerate(lines[1:], start=2):
        if not raw.strip():
            continue
        cells = raw.split()
        if len(cells) != n:
            raise FormatError(f"row has {len(cells)} cells, expected {n}", lineno)
        rows.append((lineno, cells))
    if len(rows) != n:
        raise FormatError(f"found {len(rows)} rows, expected {n}")
    return n, header, rows


def _parse_cells(rows, parse_cell) -> list[list]:
    """parse_cell over every cell; its ValueError becomes a FormatError
    naming the line."""
    grid = []
    for lineno, cells in rows:
        try:
            grid.append([parse_cell(c) for c in cells])
        except ValueError as exc:
            raise FormatError(str(exc), lineno) from None
    return grid


def _emit_aligned(header: str, cells: list[list[str]]) -> str:
    """Left-aligned columns two spaces apart, trailing blanks cut."""
    widths = [max(map(len, column)) for column in zip(*cells)]
    body = "\n".join(
        "  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip() for row in cells
    )
    return f"{header}\n{body}\n"


def parse_symbolic(text: str) -> SymbolicMatrix:
    _, _, rows = _split_rows(text, "SYM")
    return SymbolicMatrix(_parse_cells(rows, parse_entry))


def emit_symbolic(matrix: SymbolicMatrix) -> str:
    return _emit_aligned(f"SYM {matrix.n}", map_cells(matrix, str, "0"))


def parse_exponent(text: str) -> ExponentMatrix:
    _, _, rows = _split_rows(text, "EXP")
    return ExponentMatrix(_parse_cells(rows, parse_phase_cell))


def emit_exponent(matrix: ExponentMatrix) -> str:
    cells = [["." if c is None else str(c) for c in row] for row in matrix.cells]
    return _emit_aligned(f"EXP {matrix.n}", cells)


def _butson_cell(text: str, m: int) -> int | None:
    if text == "z":
        return None
    try:
        k = parse_int(text)
    except ValueError:
        raise ValueError(f"bad log entry {text!r}") from None
    if not 0 <= k < m:
        raise ValueError(f"log {k} outside [0, {m})")
    return k


def parse_butson(text: str) -> ButsonMatrix:
    n, header, rows = _split_rows(text, "BH", extra_header=1)
    try:
        m = parse_int(header[2])
    except ValueError:
        raise FormatError(f"bad root order {header[2]!r}", 1) from None
    if m <= 0:
        raise FormatError(f"bad root order {m}", 1)
    if m > MAX_BUTSON_ORDER:
        raise FormatError(f"order {m} above {MAX_BUTSON_ORDER}", 1)
    return ButsonMatrix(m, _parse_cells(rows, lambda c: _butson_cell(c, m)))


def emit_butson(matrix: ButsonMatrix) -> str:
    width = len(str(matrix.m - 1))
    body = "\n".join(
        " ".join(("z" if c is None else str(c)).rjust(width) for c in row)
        for row in matrix.logs
    )
    return f"BH {matrix.n} {matrix.m}\n{body}\n"


def _complex_cell(text: str) -> complex:
    re_txt, sep, im_txt = text.partition(",")
    if not sep:
        raise ValueError(f"expected re,im pair, got {text!r}")
    try:
        return complex(parse_float(re_txt), parse_float(im_txt))
    except ValueError:
        raise ValueError(f"bad complex pair {text!r}") from None


def parse_numeric(text: str) -> ComplexMatrix:
    _, _, rows = _split_rows(text, "NUM")
    return ComplexMatrix(_parse_cells(rows, _complex_cell))


def emit_numeric(matrix: ComplexMatrix) -> str:
    body = "\n".join(
        " ".join(f"{z.real!r},{z.imag!r}" for z in row) for row in matrix.rows
    )
    return f"NUM {matrix.n}\n{body}\n"


def parse_matrix(text: str) -> AnyMatrix:
    """Dispatch on the header keyword."""
    head = text.split(None, 1)[0] if text.split() else ""
    if head == "SYM":
        return parse_symbolic(text)
    if head == "EXP":
        return parse_exponent(text)
    if head == "BH":
        return parse_butson(text)
    if head == "NUM":
        return parse_numeric(text)
    raise FormatError(f"unknown matrix header {head!r}", 1)


def emit_matrix(matrix: AnyMatrix) -> str:
    if isinstance(matrix, SymbolicMatrix):
        return emit_symbolic(matrix)
    if isinstance(matrix, ExponentMatrix):
        return emit_exponent(matrix)
    if isinstance(matrix, ButsonMatrix):
        return emit_butson(matrix)
    if isinstance(matrix, ComplexMatrix):
        return emit_numeric(matrix)
    raise TypeError(f"cannot emit {type(matrix).__name__}")
