"""Exhaustive search for circulant and bordered-circulant conference matrices.

Candidates are first rows over m-th roots of unity (log form, ``None`` for the
fixed leading zero); each candidate matrix goes through the exact conference
predicate.  Plain enumeration, no cleverness: the spaces of interest are tiny
and the point is auditability.
"""

from __future__ import annotations

from itertools import product
from typing import Iterable, Optional, Sequence

from .matrices import ButsonMatrix, _bordered_grid, _circulant_grid
from .verify import check_conference

CoreRow = tuple[Optional[int], ...]

# Largest candidate space a search enumerates: about 40 s at 42 us per
# candidate, far above the catalog searches (4,096 and 7,776 candidates).
MAX_CANDIDATES = 10**6


def _search(n: int, m: int, free: int, matrix) -> list[CoreRow]:
    """Rows (0, c1..c_free) whose matrix(row, m) is conference, sorted.

    Refuses more than MAX_CANDIDATES candidates before enumerating any.  The
    size is multiplied only up to the cap, so a huge n costs nothing; order 1
    counts as 2, because its one candidate is still an n-by-n matrix.
    """
    if n < 2 or m < 1:
        raise ValueError("need n >= 2 and m >= 1")
    size = 1
    for _ in range(free):
        size *= max(m, 2)
        if size > MAX_CANDIDATES:
            raise ValueError(f"n={n}, m={m} is above the cap of {MAX_CANDIDATES} candidates")
    found: list[CoreRow] = []
    for tail in product(range(m), repeat=free):
        row: CoreRow = (None, *tail)
        if check_conference(matrix(row, m)):
            found.append(row)
    return found


def search_circulant(n: int, m: int) -> list[CoreRow]:
    """All first rows (0, c1..c_{n-1}), ci in m-th roots, giving a conference
    circulant; exhaustive over m^(n-1) candidates, sorted."""
    return _search(n, m, n - 1, circulant_matrix)


def search_bordered_circulant(n: int, m: int) -> list[CoreRow]:
    """All core rows (0, c1..c_{n-2}) whose bordered circulant is an n-by-n
    conference matrix; exhaustive over m^(n-2) candidates, sorted."""
    return _search(n, m, n - 2, bordered_matrix)


def bordered_matrix(core_row: Sequence[Optional[int]], m: int) -> ButsonMatrix:
    """The bordered-circulant matrix a search row describes."""
    return ButsonMatrix(m, _bordered_grid(core_row, 0))


def circulant_matrix(first_row: Sequence[Optional[int]], m: int) -> ButsonMatrix:
    return ButsonMatrix(m, _circulant_grid(first_row))


def _scaled(row: CoreRow, t: int, m: int) -> CoreRow:
    return tuple(None if c is None else (c + t) % m for c in row)


def _reversed_row(row: CoreRow) -> CoreRow:
    k = len(row)
    return tuple(row[(-i) % k] for i in range(k))


def symmetry_reduce(rows: Iterable[CoreRow], m: int) -> list[CoreRow]:
    """One representative per orbit under global unit scaling and reversal.

    Both generators preserve the conference property of the (bordered)
    circulant; the representative is the orbit's lexicographic minimum (None
    sorting first).
    """

    def key(row: CoreRow):
        return tuple(-1 if c is None else c for c in row)

    seen: set[CoreRow] = set()
    reps: list[CoreRow] = []
    for row in rows:
        if row in seen:
            continue
        orbit = set()
        for base in (row, _reversed_row(row)):
            for t in range(m):
                orbit.add(_scaled(base, t, m))
        seen |= orbit
        reps.append(min(orbit, key=key))
    return sorted(reps, key=key)
