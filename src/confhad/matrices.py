"""Matrix containers and constructions.

Three containers cover the artifact: :class:`SymbolicMatrix` (cells are unit
monomials or zero), :class:`ExponentMatrix` (cells are affine phase
expressions, with a distinguished bullet cell for "phase zero as printed"),
and exact/float numeric matrices (:class:`ButsonMatrix`, :class:`ComplexMatrix`).

Constructions: circulant and bordered-circulant builders, the conference
inverse, the size-doubling block formula, column scaling, substitution,
dephasing and exact/float/exponent-form evaluation.
"""

from __future__ import annotations

import cmath
import re
from dataclasses import dataclass
from math import lcm
from typing import Callable, Iterable, Mapping, Optional, Sequence, Union

from .cyclotomic import minimal_root_order
from .symbolic import Entry, ExpKey, Monomial, ONE, parse_entry


def _square(grid: tuple[tuple, ...]) -> int:
    """The size n of an n-by-n grid; ValueError unless square and nonempty."""
    n = len(grid)
    if n == 0 or any(len(row) != n for row in grid):
        raise ValueError("matrix must be square and nonempty")
    return n


class SymbolicMatrix:
    """Square grid of unit-monomial cells (None marks a zero cell)."""

    __slots__ = ("n", "rows")

    def __init__(self, rows: Iterable[Iterable[Entry]]) -> None:
        grid = tuple(tuple(row) for row in rows)
        self.n = _square(grid)
        for row in grid:
            for cell in row:
                if cell is not None and not isinstance(cell, Monomial):
                    raise TypeError(f"bad cell {cell!r}")
        self.rows = grid

    def __getitem__(self, i: int) -> tuple[Entry, ...]:
        return self.rows[i]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, SymbolicMatrix) and self.rows == other.rows

    def __hash__(self) -> int:
        return hash(self.rows)

    def symbols(self) -> set[str]:
        return {s for row in self.rows for cell in row if cell is not None for s, _ in cell.exps}

    @property
    def is_constant(self) -> bool:
        return not self.symbols()

    def has_zero(self) -> bool:
        return any(cell is None for row in self.rows for cell in row)

    def __repr__(self) -> str:
        return f"<SymbolicMatrix {self.n}x{self.n}>"


@dataclass(frozen=True, slots=True)
class AffinePhase:
    """Integer-affine phase expression c0 + sum(coef * symbol)."""

    const: int = 0
    terms: tuple[tuple[str, int], ...] = ()

    def __post_init__(self) -> None:
        merged: dict[str, int] = {}
        for sym, c in self.terms:
            merged[sym] = merged.get(sym, 0) + c
        object.__setattr__(
            self, "terms", tuple(sorted((s, c) for s, c in merged.items() if c))
        )

    def __call__(self, phases: Mapping[str, float]) -> float:
        value = float(self.const)
        for sym, c in self.terms:
            if sym not in phases:
                raise KeyError(f"unassigned phase symbol {sym!r}")
            value += c * phases[sym]
        return value

    def __str__(self) -> str:
        parts: list[str] = []
        if self.const or not self.terms:
            parts.append(str(self.const))
        for sym, c in self.terms:
            if c == 1:
                parts.append(f"+{sym}" if parts else sym)
            elif c == -1:
                parts.append(f"-{sym}")
            else:
                sign = "+" if c > 0 else "-"
                parts.append(f"{sign}{abs(c)}{sym}" if parts else f"{c}{sym}")
        return "".join(parts)


# a bullet cell prints as "." and evaluates to phase 0
PhaseCell = Optional[AffinePhase]


_PHASE_TERM = "(?:[0-9]+[a-hj-z]?|[a-hj-z])"
_PHASE_CELL = re.compile(f"[+-]?{_PHASE_TERM}(?:[+-]{_PHASE_TERM})*")
_PHASE_PART = re.compile("([+-]?)([0-9]*)([a-hj-z]?)")


def parse_phase_cell(text: str) -> PhaseCell:
    """`.` or an optional sign, then terms joined by `+` or `-`; a term is
    ASCII digits, a symbol a-z other than i, or digits followed by a symbol."""
    s = text.strip()
    if s == ".":
        return None
    if not _PHASE_CELL.fullmatch(s):
        raise ValueError(f"bad phase cell {text!r}")
    const = 0
    terms: list[tuple[str, int]] = []
    for sign, digits, sym in _PHASE_PART.findall(s):
        coef = (-1 if sign == "-" else 1) * (int(digits) if digits else 1)
        if sym:
            terms.append((sym, coef))
        elif digits:
            const += coef
    return AffinePhase(const, tuple(terms))


class ExponentMatrix:
    """Square grid of affine phase cells; None cells are printed bullets."""

    __slots__ = ("n", "cells")

    def __init__(self, cells: Iterable[Iterable[PhaseCell]]) -> None:
        grid = tuple(tuple(row) for row in cells)
        self.n = _square(grid)
        self.cells = grid

    def __getitem__(self, i: int) -> tuple[PhaseCell, ...]:
        return self.cells[i]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ExponentMatrix) and self.cells == other.cells

    def __hash__(self) -> int:
        return hash(self.cells)

    def symbols(self) -> set[str]:
        return {s for row in self.cells for cell in row if cell is not None for s, _ in cell.terms}

    def phase(self, i: int, j: int, phases: Mapping[str, float]) -> float:
        cell = self.cells[i][j]
        return 0.0 if cell is None else cell(phases)

    def __repr__(self) -> str:
        return f"<ExponentMatrix {self.n}x{self.n}>"


class ButsonMatrix:
    """Exact matrix over m-th roots of unity; cells are logs, None is zero."""

    __slots__ = ("n", "m", "logs")

    def __init__(self, m: int, logs: Iterable[Iterable[Optional[int]]]) -> None:
        if m < 1:
            raise ValueError("root order must be positive")
        grid = tuple(
            tuple(None if c is None else c % m for c in row) for row in logs
        )
        self.n = _square(grid)
        self.m = m
        self.logs = grid

    def __getitem__(self, i: int) -> tuple[Optional[int], ...]:
        return self.logs[i]

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, ButsonMatrix)
            and self.m == other.m
            and self.logs == other.logs
        )

    def __hash__(self) -> int:
        return hash((self.m, self.logs))

    def has_zero(self) -> bool:
        return any(c is None for row in self.logs for c in row)

    def lift(self, big: int) -> "ButsonMatrix":
        if big == self.m:
            return self
        if big % self.m:
            raise ValueError(f"{big} is not a multiple of {self.m}")
        step = big // self.m
        return ButsonMatrix(
            big,
            [[None if c is None else c * step for c in row] for row in self.logs],
        )

    def reduce_order(self) -> "ButsonMatrix":
        """Rewrite over the smallest root order containing every cell."""
        logs = [c for row in self.logs for c in row if c is not None]
        small = minimal_root_order(logs, self.m)
        if small == self.m:
            return self
        step = self.m // small
        return ButsonMatrix(
            small,
            [[None if c is None else c // step for c in row] for row in self.logs],
        )

    def __repr__(self) -> str:
        return f"<ButsonMatrix {self.n}x{self.n} order {self.m}>"


class ComplexMatrix:
    """Square grid of floating-point complex cells."""

    __slots__ = ("n", "rows")

    def __init__(self, rows: Iterable[Iterable[complex]]) -> None:
        grid = tuple(tuple(complex(c) for c in row) for row in rows)
        self.n = _square(grid)
        self.rows = grid

    def __getitem__(self, i: int) -> tuple[complex, ...]:
        return self.rows[i]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ComplexMatrix) and self.rows == other.rows

    def __hash__(self) -> int:
        return hash(self.rows)

    def __repr__(self) -> str:
        return f"<ComplexMatrix {self.n}x{self.n}>"


AnyMatrix = Union[SymbolicMatrix, ExponentMatrix, ButsonMatrix, ComplexMatrix]


# ---------------------------------------------------------------------------
# constructions


def _circulant_grid(first_row: Sequence) -> list[list]:
    """Rows that are each the right cyclic shift of the last, for any cells."""
    n = len(first_row)
    return [[first_row[(j - i) % n] for j in range(n)] for i in range(n)]


def _bordered_grid(core_row: Sequence, one) -> list[list]:
    """The circulant of core_row framed by a first row and column of `one`
    around a zero (None) corner; `one` is ONE for monomials, 0 for logs."""
    core = _circulant_grid(core_row)
    return [[None] + [one] * len(core)] + [[one, *row] for row in core]


def circulant(first_row: Sequence[Entry]) -> SymbolicMatrix:
    """Square matrix whose every row is the right cyclic shift of the last."""
    if len(first_row) == 0:
        raise ValueError("first row must be nonempty")
    return SymbolicMatrix(_circulant_grid(first_row))


def bordered_circulant(core_row: Sequence[Entry]) -> SymbolicMatrix:
    """Circulant core framed by all-ones first row/column and a corner zero."""
    if not core_row:
        raise ValueError("core row must be nonempty")
    if core_row[0] is not None:
        raise ValueError("core row must start with the zero cell")
    return SymbolicMatrix(_bordered_grid(core_row, ONE))


def transpose(matrix: SymbolicMatrix) -> SymbolicMatrix:
    return SymbolicMatrix(
        [[matrix.rows[j][i] for j in range(matrix.n)] for i in range(matrix.n)]
    )


def conference_inverse(matrix: SymbolicMatrix) -> SymbolicMatrix:
    """Reciprocal transpose off the diagonal, zero diagonal.

    Requires a conference-shaped input: zero diagonal, nonzero elsewhere.
    """
    n = matrix.n
    out: list[list[Entry]] = []
    for i in range(n):
        row: list[Entry] = []
        for j in range(n):
            cell = matrix.rows[j][i]
            if i == j:
                if cell is not None:
                    raise ValueError(f"nonzero diagonal cell at ({i},{i})")
                row.append(None)
            else:
                if cell is None:
                    raise ValueError(f"zero off-diagonal cell at ({j},{i})")
                row.append(cell.reciprocal())
        out.append(row)
    return SymbolicMatrix(out)


def double_orthogonal(C: SymbolicMatrix) -> SymbolicMatrix:
    """[[C+I, Cinv-I], [C-I, -Cinv-I]] for a conference-shaped C.

    Cinv is the conference inverse, so free parameters are allowed; for a
    constant unimodular C it equals the Hermitian conjugate, and the result
    is the Hadamard doubling.
    """
    Cinv = conference_inverse(C)
    n = C.n
    rows: list[list[Entry]] = []
    for i in range(n):
        top: list[Entry] = []
        for j in range(n):
            top.append(ONE if i == j else C.rows[i][j])
        for j in range(n):
            top.append(-ONE if i == j else Cinv.rows[i][j])
        rows.append(top)
    for i in range(n):
        bottom: list[Entry] = []
        for j in range(n):
            bottom.append(-ONE if i == j else C.rows[i][j])
        for j in range(n):
            cell = Cinv.rows[i][j]
            bottom.append(-ONE if i == j else -cell)
        rows.append(bottom)
    return SymbolicMatrix(rows)


def scale_columns(matrix: SymbolicMatrix, diag: Sequence[Entry]) -> SymbolicMatrix:
    if len(diag) != matrix.n:
        raise ValueError("diagonal length mismatch")
    if any(d is None for d in diag):
        raise ValueError("zero scale factor")
    return SymbolicMatrix(
        [
            [None if cell is None else cell * diag[j] for j, cell in enumerate(row)]
            for row in matrix.rows
        ]
    )


def map_cells(matrix: SymbolicMatrix, f: Callable[[Monomial], object], zero: object) -> list[list]:
    """The grid of f(cell), ``zero`` for zero cells, with f called once per
    distinct cell.  Cells are keyed by (ipow, exps): a tuple hashes and
    compares in C, where a Monomial key would call Python methods."""
    images: dict[tuple[int, ExpKey], object] = {}

    def image(cell: Entry) -> object:
        if cell is None:
            return zero
        key = (cell.ipow, cell.exps)
        out = images.get(key)
        if out is None:
            out = images[key] = f(cell)
        return out

    return [[image(cell) for cell in row] for row in matrix.rows]


def substitute(matrix: SymbolicMatrix, mapping: Mapping[str, Monomial | str]) -> SymbolicMatrix:
    """Substitute unit monomials for symbols in every cell, each distinct
    cell once."""
    parsed: dict[str, Monomial] = {}
    for sym, val in mapping.items():
        mono = parse_entry(val) if isinstance(val, str) else val
        if mono is None:
            raise ValueError(f"cannot substitute zero for {sym!r}")
        parsed[sym] = mono
    return SymbolicMatrix(map_cells(matrix, lambda cell: cell.substitute(parsed), None))


def dephase(matrix: SymbolicMatrix) -> SymbolicMatrix:
    """Normalize the first row and column to ones.

    out[i][j] = M[i][j] * M[0][0] / (M[i][0] * M[0][j]); requires a zero-free
    matrix.
    """
    if matrix.has_zero():
        raise ValueError("cannot dephase a matrix with zero cells")
    corner = matrix.rows[0][0]
    col_fix = [
        (corner * matrix.rows[0][j].reciprocal()) for j in range(matrix.n)
    ]
    out = []
    for i in range(matrix.n):
        head_inv = matrix.rows[i][0].reciprocal()
        out.append(
            [matrix.rows[i][j] * head_inv * col_fix[j] for j in range(matrix.n)]
        )
    return SymbolicMatrix(out)


def eval_exponent_form(
    base: SymbolicMatrix,
    exponents: ExponentMatrix,
    phases: Mapping[str, float],
) -> ComplexMatrix:
    """Entrywise base[i][j] * exp(i * exponents[i][j](phases)).

    The base matrix must be constant; bullet cells contribute phase zero.
    """
    if base.n != exponents.n:
        raise ValueError("dimension mismatch")
    if not base.is_constant:
        raise ValueError("base matrix must be constant")
    return ComplexMatrix(
        [
            [
                0j
                if cell is None
                else 1j**cell.ipow * cmath.exp(1j * exponents.phase(i, j, phases))
                for j, cell in enumerate(row)
            ]
            for i, row in enumerate(base.rows)
        ]
    )


def to_butson(matrix: SymbolicMatrix) -> ButsonMatrix:
    """Exact numeric form of a constant matrix (4th roots), order-reduced."""
    if not matrix.is_constant:
        raise ValueError("matrix has free symbols")
    return eval_exact(matrix, {}, 4)


def eval_exact(
    matrix: SymbolicMatrix, assignment: Mapping[str, int], order: int
) -> ButsonMatrix:
    """Evaluate at root-of-unity parameter values given as logs base zeta_order.

    Every cell is a log base zeta_big, big = lcm(order, 4), which holds the
    parameter values and the i^k coefficients alike; the result is
    order-reduced.  A non-positive order raises ``ValueError``.
    """
    if order < 1:
        raise ValueError(f"order must be a positive integer, got {order}")
    big = lcm(order, 4)
    step, quarter = big // order, big // 4
    logs: list[list[Optional[int]]] = []
    for row in matrix.rows:
        out_row: list[Optional[int]] = []
        for cell in row:
            if cell is None:
                out_row.append(None)
                continue
            k = cell.ipow * quarter
            for sym, e in cell.exps:
                if sym not in assignment:
                    raise KeyError(f"unassigned symbol {sym!r}")
                k += e * step * assignment[sym]
            out_row.append(k)
        logs.append(out_row)
    return ButsonMatrix(big, logs).reduce_order()


def eval_complex(matrix: SymbolicMatrix, assignment: Mapping[str, complex]) -> ComplexMatrix:
    return ComplexMatrix(
        [
            [0j if cell is None else cell.eval_complex(assignment) for cell in row]
            for row in matrix.rows
        ]
    )
