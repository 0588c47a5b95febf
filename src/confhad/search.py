"""Exhaustive search for circulant and bordered-circulant conference matrices.

A first row is written in log form over the m-th roots of unity, ``None``
for the fixed leading zero: (None, c1, ..., c_{k-1}).  Global scaling is a
symmetry, so c1 = 0 is fixed and every row found is expanded back to its m
scalings.  A depth-first search assigns c2, c3, ... in order.  The Gram
identity of the matrix is:

1. for each cyclic shift s = 1..k//2 (shift k - s is the conjugate of shift
   s) the periodic autocorrelation sum_j x_j conj(x_{j+s}) is 0, or -1 for a
   bordered core, whose border column adds +1;
2. bordered only: the core row sum is 0, since the border row is orthogonal
   to every core row.

Each sum is kept over the terms whose cells are both assigned; a term falls
due when its later cell is.  Every open term is a root of unity, so a
partial sum P that must end at the target t with r terms open has
|P - t| <= r (triangle inequality), and a branch is cut when |P - t|^2 > r^2.
When m divides 4 or 6 the sums are Gaussian or Eisenstein integers and the
test is exact integer arithmetic: it never cuts a solution, and at a full
row (r = 0) it is the identity itself.  For any other m no cut is made:
every row is enumerated and tested when full by exact root-sum tests
(``verify._vanishes``).  Every row found is re-verified by
``check_conference``.

The search spends one node of its budget per cell value it tries and holds
O(k) state.  A spent budget raises ``SearchBudgetExhausted``, so a partial
list is never returned as complete; a row longer than the budget can reach
is refused before anything is allocated.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from .equivalence import DEFAULT_BUDGET
from .matrices import ButsonMatrix, _bordered_grid, _circulant_grid
from .verify import _vanishes, check_conference

CoreRow = tuple[Optional[int], ...]

# zeta^c as (x, y): x + y*i when m | 4, x + y*w when m | 6, w = exp(2 pi i/3),
# so that zeta_6 = 1 + w.  The norm is x^2 - cross*x*y + y^2.
_I_POWERS = ((1, 0), (0, 1), (-1, 0), (0, -1))
_ZETA6_POWERS = ((1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1))


class SearchBudgetExhausted(Exception):
    """The search spent its node budget: the answer is unknown."""


class _Partials:
    """The partial sums of a row prefix and the cut on them.

    ``push(d, c)`` sets cell d to c (cells are set in order d = 1, 2, ...),
    adds the terms that fall due and returns whether every bound still
    holds; on False the sums are as before.  ``pop(d)`` takes cell d back
    out.  For m dividing neither 4 nor 6 there is no sum and no cut.
    """

    def __init__(self, k: int, m: int, bordered: bool) -> None:
        if 4 % m == 0:
            units, self.cross = _I_POWERS[:: 4 // m], 0
        elif 6 % m == 0:
            units, self.cross = _ZETA6_POWERS[:: 6 // m], 1
        else:
            units, self.cross = (), 0
        self.xs = [x for x, _ in units]  # indexed by a log difference in (-m, m)
        self.ys = [y for _, y in units]
        self.k, self.half = k, k // 2 if units else 0
        self.bordered = bordered and bool(units)
        self.target = -1 if bordered else 0
        self.row = [0] * k
        self.px = [0] * (self.half + 1)  # px[s] + py[s]*(i or w): shift s's partial sum
        self.py = [0] * (self.half + 1)
        self.sx = self.sy = 0  # the bordered row sum

    def push(self, d: int, c: int) -> bool:
        self.row[d] = c
        k, cross, xs, ys = self.k, self.cross, self.xs, self.ys
        if self.bordered:
            x, y, r = self.sx + xs[c], self.sy + ys[c], k - 1 - d
            if x * x - cross * x * y + y * y > r * r:
                return False
        if not self._add(d, c, 1, self.half):
            return False
        if self.bordered:
            self.sx, self.sy = x, y
        return True

    def pop(self, d: int) -> None:
        c = self.row[d]
        self._add(d, c, -1, self.half)
        if self.bordered:
            self.sx -= self.xs[c]
            self.sy -= self.ys[c]

    def _add(self, d: int, c: int, sign: int, last: int) -> bool:
        """Add sign times cell d's due terms to shifts 1..last; when adding,
        check each shift, and at the first bound that fails take cell d back
        out of the shifts so far."""
        k, row, xs, ys, px, py, cross, t = (
            self.k, self.row, self.xs, self.ys, self.px, self.py, self.cross, self.target
        )
        for s in range(1, last + 1):
            x, y, r = px[s], py[s], k - 2  # r: the terms of shift s still open
            if d > s:  # the term x_{d-s} conj(x_d)
                e = row[d - s] - c
                x += sign * xs[e]
                y += sign * ys[e]
                r -= d - s
            if d + s > k:  # the term x_d conj(x_{d+s-k}), wrapping round
                e = c - row[d + s - k]
                x += sign * xs[e]
                y += sign * ys[e]
                r -= d + s - k
            px[s], py[s] = x, y
            if sign > 0:
                x -= t
                if x * x - cross * x * y + y * y > r * r:
                    self._add(d, c, -1, s)
                    return False
        return True


def _search(n: int, m: int, bordered: bool, budget: int) -> list[CoreRow]:
    """Rows (None, c1..c_{k-1}) whose (bordered) circulant is conference, sorted."""
    if n < 2 or m < 1:
        raise ValueError("need n >= 2 and m >= 1")
    k = n - 1 if bordered else n
    if k - 2 > budget:  # no path from c2 to c_{k-1} fits in the budget
        raise SearchBudgetExhausted(
            f"unknown: a row of {k} cells needs more nodes than the budget of {budget}"
        )
    matrix = bordered_matrix if bordered else circulant_matrix
    if k == 1:  # no cell to assign
        return [(None,)] if check_conference(matrix((None,), m)) else []
    partials = _Partials(k, m, bordered)
    found: list[CoreRow] = []
    if not partials.push(1, 0):
        return found
    exact, verdicts = partials.half > 0, {}  # with a cut, a full row that passed it is a hit
    row, nodes, d, c = partials.row, 0, 2, 0
    while d > 1:
        if d == k and (exact or _root_sums_vanish(row, m, bordered, verdicts)):
            # a full row that is a hit: expand it to its scalings, each re-verified
            for t in range(m):
                scaled = _scaled((None, *row[1:]), t, m)
                if check_conference(matrix(scaled, m)):
                    found.append(scaled)
                elif t == 0:
                    break  # no scaling of a non-conference row is conference
        elif d < k and c < m:
            nodes += 1
            if nodes > budget:
                raise SearchBudgetExhausted(f"unknown: the search spent its budget of {budget} nodes")
            if partials.push(d, c):
                d, c = d + 1, 0
            else:
                c += 1
            continue
        d -= 1  # a full row, or every value of cell d tried: back up to cell d - 1
        if d > 1:
            c = row[d] + 1
            partials.pop(d)
    return sorted(found)  # every row starts with None, so tuples compare from c1


def _root_sums_vanish(row: list[int], m: int, bordered: bool, verdicts: dict) -> bool:
    """The Gram identity of a full row (row[0] unused) by exact root-sum
    tests, memoised in ``verdicts``: the hit test where the search has no cut."""
    k = len(row)
    if bordered and not _vanishes(tuple(map(row[1:].count, range(m))), m, verdicts):
        return False
    for s in range(1, k // 2 + 1):
        counts = [0] * m
        counts[0] = int(bordered)  # the border column's 1
        for j in range(1, k):
            if j + s != k:
                counts[(row[j] - row[(j + s) % k]) % m] += 1
        if not _vanishes(tuple(counts), m, verdicts):
            return False
    return True


def search_circulant(n: int, m: int, budget: int = DEFAULT_BUDGET) -> list[CoreRow]:
    """All first rows (0, c1..c_{n-1}), ci in m-th roots, giving a conference
    circulant, sorted.  Raises SearchBudgetExhausted past ``budget`` nodes."""
    return _search(n, m, False, budget)


def search_bordered_circulant(n: int, m: int, budget: int = DEFAULT_BUDGET) -> list[CoreRow]:
    """All core rows (0, c1..c_{n-2}) whose bordered circulant is an n-by-n
    conference matrix, sorted.  Raises SearchBudgetExhausted past ``budget``
    nodes."""
    return _search(n, m, True, budget)


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
