"""Exhaustive search for circulant and bordered-circulant conference matrices.

Candidates are first rows over m-th roots of unity (log form, ``None`` for the
fixed leading zero).  Three exact steps cut the enumeration; 2 and 3 test
root sums with ``verify._vanishes`` on count vectors over the m-th roots:

1. global scaling is a symmetry: c1 = 0 is fixed, and each surviving row is
   expanded back to its m scalings;
2. bordered only: the border row is orthogonal to the core rows exactly when
   the core row's root sum vanishes;
3. for each cyclic shift s = 1..k//2 of the length-k row, with an early exit
   (shift k - s is the conjugate of shift s), the periodic autocorrelation is
   0, or -1 for a bordered core, whose border column adds +1.

2 and 3 are the Gram identity of the candidate, so they pass a row exactly
when its matrix is conference; 3 alone implies 2, which is the cheaper
reject.  Every row that passes is re-verified by ``check_conference``.
"""

from __future__ import annotations

from itertools import product
from typing import Callable, Iterable, Optional, Sequence

from .matrices import ButsonMatrix, _bordered_grid, _circulant_grid
from .verify import _vanishes, check_conference

CoreRow = tuple[Optional[int], ...]

# Largest candidate space (m^free rows) a search accepts.  With c1 fixed at
# most 2^18 rows are screened, at 5-8 us each on a 2-CPU x86_64 VM, and only
# the hits are re-verified: about 2 s at the cap.
MAX_CANDIDATES = 10**6


def _shift_filter(k: int, m: int, bordered: bool) -> Callable[[CoreRow], bool]:
    """The exact test, filters 2 and 3, of a length-k row (None first): True
    exactly when the (bordered) circulant of the row is conference.  Verdicts
    are memoised per count vector for the life of the returned test."""
    verdicts: dict[tuple[int, ...], bool] = {}
    border = (0,) if bordered else ()
    zeros = (0,) * k

    def counts(row: CoreRow, head: CoreRow) -> tuple[int, ...]:
        # k * m steps, so a search takes at most about k^2 * MAX_CANDIDATES of them
        diffs = [(a - b) % m for a, b in zip(row, head) if a is not None and b is not None]
        return tuple(map(diffs.count, range(m)))

    def passes(row: CoreRow) -> bool:
        if bordered and not _vanishes(counts(row, zeros), m, verdicts):
            return False
        first = border + row
        return all(
            _vanishes(counts(first, border + row[s:] + row[:s]), m, verdicts)
            for s in range(1, k // 2 + 1)
        )

    return passes


def _search(n: int, m: int, bordered: bool) -> list[CoreRow]:
    """Rows (None, c1..c_free) whose (bordered) circulant is conference, sorted.

    Refuses more than MAX_CANDIDATES candidates before enumerating any.  The
    size is multiplied only up to the cap, so a huge n costs nothing; order 1
    counts as 2, because its one candidate is still an n-by-n matrix.
    """
    if n < 2 or m < 1:
        raise ValueError("need n >= 2 and m >= 1")
    free = n - 2 if bordered else n - 1
    size = 1
    for _ in range(free):
        size *= max(m, 2)
        if size > MAX_CANDIDATES:
            raise ValueError(f"n={n}, m={m} is above the cap of {MAX_CANDIDATES} candidates")
    matrix = bordered_matrix if bordered else circulant_matrix
    passes = _shift_filter(free + 1, m, bordered)
    lead, scalings = ((0,), m) if free else ((), 1)
    found: list[CoreRow] = []
    for tail in product(range(m), repeat=free - len(lead)):
        base: CoreRow = (None, *lead, *tail)
        if passes(base):
            for t in range(scalings):
                row = _scaled(base, t, m)
                if check_conference(matrix(row, m)):
                    found.append(row)
    return sorted(found)  # every row starts with None, so tuples compare from c1


def search_circulant(n: int, m: int) -> list[CoreRow]:
    """All first rows (0, c1..c_{n-1}), ci in m-th roots, giving a conference
    circulant; exhaustive over m^(n-1) candidates, sorted."""
    return _search(n, m, bordered=False)


def search_bordered_circulant(n: int, m: int) -> list[CoreRow]:
    """All core rows (0, c1..c_{n-2}) whose bordered circulant is an n-by-n
    conference matrix; exhaustive over m^(n-2) candidates, sorted."""
    return _search(n, m, bordered=True)


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
