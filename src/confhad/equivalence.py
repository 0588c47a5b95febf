"""Monomial equivalence of exact root-of-unity matrices.

Two matrices are monomially equivalent when B = D1 P1 A P2 D2 for permutation
matrices P and unit diagonal matrices D.  The quadruple-product multiset
(``fingerprint``) is invariant under that action and separates most pairs
cheaply; the rest go to one backtracking search for Hadamard and conference
inputs, ``_search``, whose docstring is its full account.  It either
produces a verified witness or exhausts the space.  Diagonals range over the
matrices' own root order, so "inequivalent by exhausted search" is relative
to that notion.  ``fingerprint`` is the one pass over a matrix's row pairs:
it builds their difference histograms, the row keys and the quadruple
counts for every caller, with or without zero cells.  Zero cells must form a
permutation pattern (one per row and per column, such as the zero diagonal).
"""

from __future__ import annotations

import sys
from array import array
from collections import Counter
from dataclasses import dataclass, field
from math import gcd, lcm
from typing import Iterable, Mapping, Optional, Sequence

from .matrices import ButsonMatrix, SymbolicMatrix, eval_exact
from .verify import _pair_hists, check_inverse_orthogonal

DEFAULT_BUDGET = 10**8


@dataclass(frozen=True, slots=True)
class Fingerprint:
    """Multiset of quadruple products M[i][j]M[k][l]/(M[i][l]M[k][j]).

    Computed over ordered row/column pairs so that it is exactly invariant
    under row/column permutations and unit diagonal scalings; values are logs
    base zeta_m with m the order of the group the quadruple values generate
    (not the matrix's root order, which diagonal scalings can change).
    ``zeros`` records how many quadruples were skipped for touching a zero
    cell (0 on a zero-free matrix).  ``row_keys`` (see ``_pair_counts``)
    come from the same pass for the search; equality does not compare them,
    so a pair they part still goes to the search and is decided there.
    """

    n: int
    m: int
    counts: tuple[tuple[int, int], ...]
    zeros: int = 0
    row_keys: tuple = field(default=(), compare=False, repr=False)

    def lines(self) -> list[str]:
        out = [f"n={self.n} order={self.m} skipped={self.zeros}"]
        out += [f"zeta{self.m}^{k}:{c}" for k, c in self.counts]
        return out


def _quadruple_counts(M: ButsonMatrix, pairs: Mapping[tuple[int, ...], int]) -> tuple[dict[int, int], int]:
    """Quadruple-value counts and the number of skipped (zero-touching) quadruples.

    For rows i, k the value at columns j, l is d[j] - d[l] with d = row_i - row_k,
    so the counts of a row pair are the cyclic autocorrelation of the count vector
    of d over the s columns where both rows are nonzero, less the s terms j = l.
    The pair (k, i) negates d, which leaves that autocorrelation unchanged,
    and pairs with equal vectors share one autocorrelation, weighted by
    their number: ``pairs`` maps each of M's ``_pair_hists`` to its count.

    All autocorrelations are one exact integer sum: a vector packed one
    count per item, times its reverse, holds at item k the linear
    correlation at lag k - (m - 1), and the lags fold mod m.  An item sums
    at most C(n, 2) * n^2 < n^4, so items of that many bits never carry.
    """
    n, m = M.n, M.m
    code = next(c for c in "BHILQ" if array(c).itemsize * 8 >= (n**4).bit_length())
    size, order = array(code).itemsize, sys.byteorder
    total = diagonal = skipped = 0
    for hist, w in pairs.items():
        s = sum(hist)
        skipped += 2 * w * (n * (n - 1) - s * (s - 1))
        diagonal += w * s
        packed = array(code, hist)
        forward = int.from_bytes(packed, order)
        packed.reverse()
        total += w * forward * int.from_bytes(packed, order)
    counts = [0] * m
    for k, c in enumerate(array(code, total.to_bytes((2 * m - 1) * size, order))):
        counts[(k - m + 1) % m] += 2 * c
    counts[0] -= 2 * diagonal
    return {v: c for v, c in enumerate(counts) if c}, skipped


def _pair_counts(M: ButsonMatrix) -> tuple[Counter[tuple[int, ...]], tuple[tuple, ...]]:
    """The ``Counter`` of M's ``_pair_hists`` and every row's key, from one pass.

    The key of row r is the sorted tuple, over rows u != r, of the sorted
    nonzero counts of the pair (r, u).  A row scaling turns a pair's vector,
    a lift spreads it over zeros, and column permutations and scalings leave
    it alone, so none changes the nonzero counts: a monomial map that carries
    B's row i onto A's row r gives them one key, at any orders, and the
    multiset of keys is an invariant.  Only the distinct vectors are held,
    each pair as the index of its vector.
    """
    n = M.n
    first: dict[tuple[int, ...], int] = {}
    ids = [first.setdefault(hist, len(first)) for hist in _pair_hists(M.logs, M.m)]
    weights = Counter(ids)
    pairs = Counter({hist: weights[k] for hist, k in first.items()})
    pair_keys = [tuple(sorted(filter(None, hist))) for hist in first]
    rows: list[list[tuple[int, ...]]] = [[] for _ in range(n)]
    ends = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for (i, j), k in zip(ends, ids):
        rows[i].append(pair_keys[k])
        rows[j].append(pair_keys[k])
    return pairs, tuple(tuple(sorted(row)) for row in rows)


def fingerprint(M: ButsonMatrix) -> Fingerprint:
    """Equivalence invariant of an exact matrix, with or without zero cells.

    Quadruples that touch a zero cell are skipped and counted in ``zeros``;
    the row keys of ``_pair_counts`` ride along for the search.
    """
    pairs, row_keys = _pair_counts(M)
    counts, skipped = _quadruple_counts(M, pairs)
    g = gcd(M.m, *counts)  # zeta_m^g generates the quadruple values
    return Fingerprint(M.n, M.m // g, tuple(sorted((v // g, c) for v, c in counts.items())), skipped, row_keys)


def conference_fingerprint(M: ButsonMatrix) -> Fingerprint:
    """``fingerprint``, under the name conference matrices were fingerprinted by."""
    return fingerprint(M)


@dataclass(frozen=True, slots=True)
class MonomialTransform:
    """B[i][j] = zeta^row_logs[i] * A[row_perm[i]][col_perm[j]] * zeta^col_logs[j]."""

    m: int
    row_perm: tuple[int, ...]
    col_perm: tuple[int, ...]
    row_logs: tuple[int, ...]
    col_logs: tuple[int, ...]

    def apply(self, A: ButsonMatrix) -> ButsonMatrix:
        if A.m != self.m:
            A = A.lift(lcm(A.m, self.m))
        step = A.m // self.m
        logs = []
        for i in range(A.n):
            src = A.logs[self.row_perm[i]]
            ri = self.row_logs[i] * step
            logs.append(
                [
                    None
                    if src[self.col_perm[j]] is None
                    else (ri + src[self.col_perm[j]] + self.col_logs[j] * step) % A.m
                    for j in range(A.n)
                ]
            )
        return ButsonMatrix(A.m, logs)

    def maps(self, A: ButsonMatrix, B: ButsonMatrix) -> bool:
        """Whether ``apply`` carries A onto B, over lcm(A.m, B.m, m).

        Each cell is compared in place, zero status first, then
        (row log + A cell + column log - B cell) with every term scaled to
        the common order, which must vanish modulo it; no lifted matrix is
        built.
        """
        if A.n != B.n:
            return False
        big = lcm(A.m, B.m, self.m)
        sa, sb, step = big // A.m, big // B.m, big // self.m
        la = A.logs
        cols = [(self.col_perm[j], self.col_logs[j] * step) for j in range(A.n)]
        for i, row in enumerate(B.logs):
            src, r = la[self.row_perm[i]], self.row_logs[i] * step
            for (k, c), y in zip(cols, row):
                x = src[k]
                if x is None or y is None:
                    if x is not y:
                        return False
                elif (r + x * sa + c - y * sb) % big:
                    return False
        return True


@dataclass(frozen=True, slots=True)
class EquivalenceVerdict:
    status: str  # "equivalent" | "inequivalent" | "unknown"
    witness: Optional[MonomialTransform] = None
    reason: str = ""
    nodes: int = 0

    @property
    def equivalent(self) -> bool:
        return self.status == "equivalent"

    @property
    def inequivalent(self) -> bool:
        return self.status == "inequivalent"


class _Budget:
    __slots__ = ("left", "used")

    def __init__(self, limit: int) -> None:
        self.left = limit
        self.used = 0

    def spend(self) -> bool:
        if self.left <= 0:
            return False
        self.left -= 1
        self.used += 1
        return True


class _OutOfBudget(Exception):
    pass


def _row_signature(row: Sequence[int]) -> tuple[int, ...]:
    return tuple(sorted(row))


def _bits(mask: int) -> list[int]:
    """The set bits of ``mask``, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _witness_from_maps(
    A: ButsonMatrix, B: ButsonMatrix, sigma: Sequence[int], tau: Sequence[int]
) -> Optional[MonomialTransform]:
    """Solve the diagonals for B[i][j] = rd[i]+A[sigma i][tau j]+cd[j], verify.

    A and B share their root order m.  Rows and columns linked by a nonzero
    cell of B form connected parts, and each part has its own gauge, rd = 0
    at its lowest row.  One walk from that row reaches every row and column
    of its part, and each reached value follows from the one cell it was
    reached by; when the equations are consistent that is their only
    solution in the gauge.  A column with no nonzero cell gets cd = 0.  The
    walk reads only the cells it moves along, so ``maps`` checks every cell,
    zero status included, and a wrong sigma or tau gives None.
    """
    n, m = A.n, A.m
    lb = B.logs
    rows = [A.logs[s] for s in sigma]  # row i of A under sigma
    rd: list[Optional[int]] = [None] * n
    cd: list[Optional[int]] = [None] * n
    for start in range(n):
        if rd[start] is not None:
            continue
        rd[start] = 0
        todo = [start]
        while todo:
            i = todo.pop()
            ri, row = rd[i], rows[i]
            for j, x in enumerate(lb[i]):
                if x is None or cd[j] is not None:
                    continue
                tj = tau[j]
                a = row[tj]
                if a is None:
                    return None
                cj = cd[j] = (x - a - ri) % m
                for k in range(n):
                    y = lb[k][j]
                    if y is None or rd[k] is not None:
                        continue
                    a = rows[k][tj]
                    if a is None:
                        return None
                    rd[k] = (y - a - cj) % m
                    todo.append(k)
    cd = [0 if v is None else v for v in cd]  # all-zero columns
    cand = MonomialTransform(m, tuple(sigma), tuple(tau), tuple(rd), tuple(cd))
    return cand if cand.maps(A, B) else None


_ZERO = -1  # dephased value of a quadruple that touches a zero cell


def _dephased(M: ButsonMatrix, r: int, c: int) -> list[list[int]]:
    """Logs of M[u][v]*M[r][c] / (M[u][c]*M[r][v]); _ZERO where any factor is zero."""
    m, la = M.m, M.logs
    head, anchor = la[r], la[r][c]
    out = []
    for row in la:
        x = row[c]
        if x is None or anchor is None:
            out.append([_ZERO] * len(row))
            continue
        shift = anchor - x
        out.append([_ZERO if a is None or b is None else (a + shift - b) % m for a, b in zip(row, head)])
    return out


def _diff_hist(row, head, m: int) -> tuple[int, ...]:
    """The histogram of (a - b) % m over the cells where both ``row`` and
    ``head`` are nonzero, as the sorted tuple of those values.  It keeps n
    values, not a vector of m counts, because the search runs at the lcm of
    two root orders, which two legal BH files can push past 10^6."""
    return tuple(sorted([(a - b) % m for a, b in zip(row, head) if a is not None and b is not None]))


def _row_shapes(
    M: ButsonMatrix, r: int, c: int, hists: Sequence[tuple[int, ...]], turned: dict
) -> list[tuple[int, ...]]:
    """Every row's values in M dephased about (r, c), as a sorted tuple.

    ``hists[u]`` is ``_diff_hist`` of row u against row r; turned by
    (M[r][c] - M[u][c]) % m it holds the row's values other than the
    sentinel, whose count is what is left of n.  A row with a zero in
    column c is all sentinels: ().  ``turned`` keeps every (histogram,
    turn) met, for the other anchors in row r.
    """
    m, la = M.m, M.logs
    anchor = la[r][c]
    out = []
    for hist, row in zip(hists, la):
        if row[c] is None:
            out.append(())
            continue
        turn = (anchor - row[c]) % m
        sig = turned.get((hist, turn))
        if sig is None:
            sig = turned[hist, turn] = tuple(sorted([(k + turn) % m for k in hist]))
        out.append(sig)
    return out


def _check_zero_pattern(M: ButsonMatrix) -> None:
    """ValueError unless the zero cells form a permutation pattern."""
    cols = [row.index(None) if row.count(None) == 1 else -1 for row in M.logs]
    if sorted(cols) != list(range(M.n)):
        raise ValueError("zero cells must form a permutation pattern")


def _col_shape(M: list[list[int]]) -> list[tuple[int, ...]]:
    return sorted(_row_signature(col) for col in zip(*M))


def _triples(M: list[list[int]], value: int) -> Counter[int]:
    """Counts of popcount(g_u ^ g_w ^ g_x) over unordered row triples of M,
    g_u masking row u's cells equal to ``value``.  On a +-1 matrix H dephased
    about (r, c), n - 2 * popcount is +-(sum over columns of H_u H_w H_x H_r):
    the row-quadruple profile of Cooper, Milas and Wallis through row r."""
    masks = [sum(1 << v for v, x in enumerate(row) if x == value) for row in M]
    pairs = [(gu ^ masks[w], w + 1) for u, gu in enumerate(masks) for w in range(u + 1, len(masks))]
    return Counter([(gp ^ gx).bit_count() for gp, x in pairs for gx in masks[x:]])


def _unsigned(triples: Counter[int], n: int) -> Counter[int]:
    """``_triples`` as counts of |n - 2 * popcount|.  Dephasing a +-1 matrix
    about (r, c) instead of (r, c') multiplies every row u by its sign in
    column c', which flips the sign of whole triples, so this does not
    depend on the anchor column."""
    out: Counter[int] = Counter()
    for p, k in triples.items():
        out[abs(n - 2 * p)] += k
    return out


class _Level:
    """B's side of search depth i: ``row``, the B row matched there, and its
    cells, set by the rows of depths 0..i-1.

    ``split`` lists (cell index, value index, size) of every part that
    ``row`` cuts a cell into, in the order of depth i+1's cells.  ``wide``
    indexes the cells of two or more columns; on them, ``cell_counts`` holds
    every row's counts per cell, sorted, ``want`` is ``row``'s profile and
    ``profiles`` those of all rows, sorted.
    """

    __slots__ = ("row", "cells", "split", "wide", "cell_counts", "want", "profiles")

    def __init__(self, row, cells, split=(), wide=(), cell_counts=(), want=(), profiles=()) -> None:
        self.row, self.cells, self.split, self.wide = row, cells, split, wide
        self.cell_counts, self.want, self.profiles = cell_counts, want, profiles


class _Target:
    """B's side of the search, shared by every anchor, branch and search
    against B: B dephased about (0, b0), and all its depths, built here and
    never changed after.  Each depth fixes the B row matched there (row 0 at
    depth 0, then the rarest by shape and profile), so the row order depends
    on B alone.

    Sets of columns are bitmasks.  A row's profile holds its count of each
    value in each cell, leaving out the last value of ``index`` (the counts
    in a cell sum to its size).  The counts are summed column by column for
    all rows at once: a packed column is one integer with row u's count of
    value x at byte (u * counted + x) * width, so the sum of a cell's packed
    columns holds every row's counts on that cell.
    """

    __slots__ = (
        "B", "n", "b0", "sigs", "row_shape", "col_shape", "triples", "unsigned", "index",
        "counted", "width", "levels",
    )

    def __init__(self, B: ButsonMatrix) -> None:
        n = B.n
        self.B, self.n = B, n
        self.b0 = b0 = next((j for j, x in enumerate(B.logs[0]) if x is not None), 0)
        lb = _dephased(B, 0, b0)
        self.sigs = [tuple(sorted(x for x in row if x != _ZERO)) for row in lb]
        self.row_shape, self.col_shape = sorted(self.sigs), _col_shape(lb)
        values = {x for row in lb for x in row}
        two_valued = B.m % 2 == 0 and values <= {0, B.m // 2}  # +-1 after dephasing, no zero
        self.triples = _triples(lb, B.m // 2) if two_valued else None
        self.unsigned = _unsigned(self.triples, n) if two_valued else None
        self.index = {x: k for k, x in enumerate(sorted(values))}
        self.counted = max(1, len(self.index) - 1)
        self.width = (n.bit_length() + 7) // 8
        masks, packed = self.encode(lb)
        self.levels = [_Level(0, ())]
        cells = (1 << b0, ((1 << n) - 1) ^ (1 << b0))
        free = list(range(1, n))  # ascending, so min() breaks ties to the lowest row
        while free:
            level = self._level(cells, free, masks, packed)
            self.levels.append(level)
            free.remove(level.row)
            row = masks[level.row]
            cells = tuple(cells[k] & row[x] for k, x, _ in level.split)
        self.levels.append(_Level(-1, cells))

    def encode(self, M: list[list[int]]) -> tuple[list[list[int]], list[int]]:
        """For a dephased matrix with B's values: per row, the mask of the
        columns holding each value, and per column, its packed counts."""
        n, index, counted, width = len(M), self.index, self.counted, self.width
        masks = []
        for row in M:
            mask = [0] * len(index)
            for v, x in enumerate(row):
                mask[index[x]] |= 1 << v
            masks.append(mask)
        packed = []
        for v in range(n):
            column = bytearray(n * counted * width)
            for u in range(n):
                x = index[M[u][v]]
                if x < counted:
                    column[(u * counted + x) * width] = 1
            packed.append(int.from_bytes(column, "little"))
        return masks, packed

    def counts(self, packed: list[int], cell: int) -> bytes:
        """Every row's counts on ``cell``."""
        total = 0
        while cell:
            low = cell & -cell
            total += packed[low.bit_length() - 1]
            cell ^= low
        return total.to_bytes(self.n * self.counted * self.width, "little")

    def profiles(self, counts: Sequence[bytes]) -> list[tuple[int, ...]]:
        """Every row's profile, from its counts on each cell."""
        size = self.counted * self.width
        return list(zip(*[on_cell[k::size] for on_cell in counts for k in range(size)]))

    def _level(self, cells: tuple[int, ...], free: list[int], masks: list[list[int]], packed: list[int]) -> _Level:
        """The depth with ``cells``, matching the row of ``free`` chosen by
        rarity (see ``_search``); ``masks`` and ``packed`` are B's."""
        wide = tuple(k for k, cell in enumerate(cells) if cell & (cell - 1))
        row = free[0]
        if wide:
            counts = [self.counts(packed, cells[k]) for k in wide]
            profiles = self.profiles(counts)
            seen = Counter((self.sigs[u], profiles[u]) for u in free)
            row = min(free, key=lambda u: seen[self.sigs[u], profiles[u]])
        split = tuple(
            (k, x, (cell & mask).bit_count())
            for k, cell in enumerate(cells)
            for x, mask in enumerate(masks[row])
            if cell & mask
        )
        if not wide:
            return _Level(row, cells, split)
        return _Level(row, cells, split, wide, tuple(map(sorted, counts)), profiles[row], tuple(sorted(profiles)))


class _Anchor:
    """A's side of one anchor (r, c): A dephased about it, and the rows
    mapped so far.  ``extend`` is the depth-first search below the anchor."""

    __slots__ = ("A", "target", "budget", "masks", "packed", "rows_with", "used", "sigma")

    def __init__(
        self, A: ButsonMatrix, target: _Target, budget: _Budget, G: list[list[int]], r: int, sigs: list[tuple]
    ) -> None:
        n = A.n
        self.A, self.target, self.budget = A, target, budget
        self.masks, self.packed = target.encode(G)
        self.rows_with: dict[tuple, list[int]] = {}  # row shape -> G-rows
        for u, sig in enumerate(sigs):
            self.rows_with.setdefault(sig, []).append(u)
        self.used = [False] * n
        self.used[r] = True
        self.sigma = [r] + [-1] * (n - 1)

    def extend(self, i: int, cells: list[int]) -> Optional[MonomialTransform]:
        """Map B's rows i.. given A's ``cells``, which pair with B's at depth i."""
        t = self.target
        level = t.levels[i]
        if i == t.n:
            tau = [0] * i
            for b_cell, a_cell in zip(level.cells, cells):
                for j, v in zip(_bits(b_cell), _bits(a_cell)):
                    tau[j] = v
            return _witness_from_maps(self.A, t.B, self.sigma, tau)
        used, masks = self.used, self.masks
        rows = self.rows_with[t.sigs[level.row]]  # present: the shapes matched
        if level.wide:
            # each mapped row has the profile of the B row it carries, so
            # all rows compare; each cell's counts first, as they are cheaper
            counts = []
            for k, want in zip(level.wide, level.cell_counts):
                on_cell = t.counts(self.packed, cells[k])
                if sorted(on_cell) != want:
                    return None
                counts.append(on_cell)
            profiles = t.profiles(counts)
            if tuple(sorted(profiles)) != level.profiles:
                return None
            rows = [u for u in rows if profiles[u] == level.want]
        rows = [u for u in rows if not used[u]]
        for u in rows:
            if not self.budget.spend():
                raise _OutOfBudget
            row = masks[u]
            parts = []
            for k, x, size in level.split:
                part = cells[k] & row[x]
                if part.bit_count() != size:
                    break
                parts.append(part)
            else:
                used[u] = True
                self.sigma[level.row] = u
                witness = self.extend(i + 1, parts)
                if witness is not None:
                    return witness
                used[u] = False
                self.sigma[level.row] = -1
        return None


def _search(
    A: ButsonMatrix, target: _Target, budget: _Budget, rows: Sequence[int]
) -> Optional[MonomialTransform]:
    """Map B's row 0 onto each row r in ``rows`` of A and its column b0 onto
    each column c.

    ``rows`` are the rows of A, ascending, whose key (``_pair_counts``) is
    that of B's row 0: a witness carries each row of B onto a row of A with
    its key, so no other row can take B's row 0 (``_search_verdict`` has
    already ended a search whose key multisets differ).

    B is dephased about (0, b0) and A about (r, c), which removes the
    diagonals.  A witness through that anchor carries one dephased matrix onto the other by a row and a column
    permutation, sentinels included, so an anchor is skipped before it costs
    a node where a quantity those permutations keep differs from B's.  The
    rows are compared first and without dephasing: when the loop reaches row
    r it takes the histogram of every row's differences to row r, and at
    (r, c) row u's sorted values are that histogram turned by A[r][c] -
    A[u][c].  Only an anchor whose rows pass is dephased and its columns
    compared.  When B's dephased matrix is +-1 (logs 0 and m/2), a third
    test compares ``_triples``, whose triples a row permutation reorders as a
    column permutation does each mask's bits.  A real Hadamard matrix passes
    the first two tests at every anchor, so without it a wrong anchor fails
    only depths down, after about n^2 nodes.  When the profiles differ even
    unsigned (``_unsigned``), which no anchor column changes, the rest of
    row r is skipped.  Skipped anchors hold no witness and the rest run in
    order, so status and witness never change.  On zero-free matrices a row
    the keys skip fails the row test at every column, so only the multiset
    test can save nodes there; with zero cells a key also counts the
    columns that the dephased rows hide behind sentinels.  B's rows are
    then matched in ``target``'s order, each onto A's unused rows with the
    same values.

    The columns are held as cells: a set of B's columns paired with the set
    of A's columns they may map to, first {b0} -> {c} and the rest -> the
    rest.  Mapping B's row i onto A's row u splits every cell by value, and
    two prunes, which refine rows and columns together after McKay-Piperno
    ("Practical graph isomorphism II", 2014), cut the subtrees that hold no
    witness:

    (a) every cell must split into parts of equal size on both sides, since
        the column map is a bijection of each cell that keeps values;
    (b) while a cell holds two or more columns, the unmapped B rows and the
        unused A rows must have equal multisets of profiles (a row's count
        of each value in each such cell), since the row map carries one
        onto the other; B's next row is tried only against A rows with its
        profile.

    B's row at each depth is the unmatched one whose pair (shape, profile)
    the fewest unmatched B rows share, ties to the lowest index, so the
    search branches over the smallest class of A rows (the target-cell
    choice of the same paper); while no cell is wide it is the lowest
    unmatched index.  Neither prune removes a witness under any fixed row
    order, so the order changes the node count and the witness found but
    never the status: every witness is verified at the leaf, and an
    exhausted search is still a proof.  B's order and its side of every
    depth depend on B alone and are built once in ``target``.

    A value that touches a zero cell is the sentinel ``_ZERO``.  Zero cells
    form a permutation pattern, so the columns of each dephased matrix are
    pairwise distinct by their sentinel cells alone: once the rows are
    matched the column map is forced, and at the leaf the k-th column of
    each B cell maps to the k-th of its A cell.  The cells the sentinels
    hide are checked only by the witness there, and a failing witness
    backtracks.
    """
    n, m, la = A.n, A.m, A.logs
    anchor_zero = target.B.logs[0][target.b0] is None
    full = (1 << n) - 1
    for r in rows:
        hists = [_diff_hist(row, la[r], m) for row in la]
        turned: dict = {}
        for c in range(n):
            # anchors agree in zero status; only the 1x1 zero matrix has a zero anchor
            if (la[r][c] is None) != anchor_zero:
                continue
            sigs = _row_shapes(A, r, c, hists, turned)
            if sorted(sigs) != target.row_shape:
                continue
            G = _dephased(A, r, c)
            if _col_shape(G) != target.col_shape:
                continue
            if target.triples is not None:
                triples = _triples(G, m // 2)
                if triples != target.triples:
                    if _unsigned(triples, n) != target.unsigned:
                        break
                    continue
            witness = _Anchor(A, target, budget, G, r, sigs).extend(1, [1 << c, full ^ (1 << c)])
            if witness is not None:
                return witness
    return None


def are_equivalent(
    a: ButsonMatrix, b: ButsonMatrix, budget: int = DEFAULT_BUDGET
) -> EquivalenceVerdict:
    """Decide monomial equivalence of two exact matrices.

    Sound both ways: "equivalent" always carries a verified witness, and
    "inequivalent" means differing zero cell counts, a fingerprint mismatch
    or a completed exhaustive search.  A spent node budget yields "unknown".
    """
    if a.n != b.n:
        raise ValueError("dimension mismatch")
    zeros = sum(row.count(None) for row in a.logs)
    if zeros != sum(row.count(None) for row in b.logs):
        return EquivalenceVerdict("inequivalent", None, "zero cell counts differ", 0)
    if zeros:
        _check_zero_pattern(a)
        _check_zero_pattern(b)
    fa, fb = fingerprint(a), fingerprint(b)
    if fa != fb:
        return EquivalenceVerdict("inequivalent", None, "fingerprint mismatch", 0)
    return _search_verdict(a, fa.row_keys, b, fb.row_keys, budget, {})


def _search_verdict(
    a: ButsonMatrix,
    a_keys: Sequence[tuple],
    b: ButsonMatrix,
    b_keys: Sequence[tuple],
    budget: int,
    targets: dict[int, _Target],
) -> EquivalenceVerdict:
    """Decide a against b (same size) by search alone.

    Zero cells, if any, must form permutation patterns.  ``a_keys`` and
    ``b_keys`` are the matrices' row keys (``_pair_counts``).  A witness
    carries each row onto a row with its key, so a pair whose key multisets
    differ is inequivalent by an exhausted search of 0 nodes, settled before
    any target is looked up or built.  Otherwise the verdict is
    "equivalent" with a witness verified on a and b, "inequivalent" by
    exhausted search, or "unknown".  It runs at lcm(a.m, b.m): a lift
    scales every log alike, unseen by a search that compares values only
    for equality and order, and leaves the keys alone.  ``targets`` keeps
    b's search side by that order for later calls against b.
    """
    if sorted(a_keys) != sorted(b_keys):
        return EquivalenceVerdict("inequivalent", None, "exhausted search", 0)
    m = lcm(a.m, b.m)
    target = targets.get(m)
    if target is None:
        target = targets[m] = _Target(b.lift(m))
    rows = [r for r, key in enumerate(a_keys) if key == b_keys[0]]
    tracker = _Budget(budget)
    try:
        witness = _search(a.lift(m), target, tracker, rows)
    except _OutOfBudget:
        return EquivalenceVerdict("unknown", None, "budget exhausted", tracker.used)
    if witness is not None:
        if not witness.maps(a, b):
            raise AssertionError("witness failed re-verification")
        return EquivalenceVerdict("equivalent", witness, "witness found", tracker.used)
    return EquivalenceVerdict("inequivalent", None, "exhausted search", tracker.used)


@dataclass(slots=True)
class EquivalenceClass:
    representative: ButsonMatrix
    assignments: list[Mapping[str, int]] = field(default_factory=list)
    undecided: bool = False

    @property
    def size(self) -> int:
        return len(self.assignments)


def _sorted_form(M: ButsonMatrix) -> tuple[tuple, list[int], list[int]]:
    """M dephased about (0, 0), rows sorted, then columns sorted.

    Returns the key (M.m with the form's columns) and the row and column
    orders that sort it: cell (i, j) of the form is cell (sigma[i], tau[j])
    of the dephased matrix.
    """
    D = _dephased(M, 0, 0)
    sigma = sorted(range(M.n), key=D.__getitem__)
    cols = list(zip(*[D[u] for u in sigma]))
    tau = sorted(range(M.n), key=cols.__getitem__)
    return (M.m, tuple(cols[v] for v in tau)), sigma, tau


def _certify(A: ButsonMatrix, a_form: tuple, B: ButsonMatrix, b_form: tuple) -> Optional[MonomialTransform]:
    """The witness carrying A onto B that their ``_sorted_form``s give, or None.

    Equal keys mean B[u][v] = rd[u] + A[row_map u][col_map v] + cd[v], where
    row_map takes B's row order onto A's and col_map its column order;
    ``_witness_from_maps`` solves the diagonals and checks every cell.
    """
    (_, sigma_a, tau_a), (_, sigma_b, tau_b) = a_form, b_form
    row_map = [a for _, a in sorted(zip(sigma_b, sigma_a))]
    col_map = [a for _, a in sorted(zip(tau_b, tau_a))]
    return _witness_from_maps(A, B, row_map, col_map)


def specialize_and_classify(
    matrix: SymbolicMatrix,
    assignments: Iterable[Mapping[str, int]],
    order: int,
    budget: int = DEFAULT_BUDGET,
) -> list[EquivalenceClass]:
    """Evaluate at unit assignments and classify the Hadamard matrices they give.

    Assignments give root-of-unity logs base zeta_order per symbol.
    ``check_inverse_orthogonal`` proves M * (1/M)^T == n*I exactly, in the
    free parameters, on a matrix without zero cells; a matrix that fails it
    raises ValueError.  At roots of unity 1/x is the conjugate of x, so every
    point is Hadamard and none is checked again.

    A point is first placed by its ``_sorted_form``: dephasing is a diagonal
    scaling and sorting permutes rows and columns, so points with one key
    are equivalent, and ``_certify`` turns their sort orders into a witness
    checked on every cell; the witness, not the key, is the proof.  A point
    whose key matches an earlier point of a class not flagged ``undecided``,
    by a witness that verifies, joins that class.

    Any other point is fingerprinted and searched (``_search``) against
    each class representative with its fingerprint; a representative's
    search side is built once and serves every later search against it.  A
    search may spend ``budget`` nodes; a point that no search placed and at
    least one left undecided joins a class flagged ``undecided`` whose form
    (recorded apart) certifies it, or else opens a fresh class so flagged,
    which may be equivalent to an earlier class.
    """
    result = check_inverse_orthogonal(matrix)
    if not result:
        raise ValueError(f"matrix is not inverse orthogonal: {result.describe()}")
    found: list[tuple[EquivalenceClass, Fingerprint, dict[int, _Target]]] = []
    forms: dict[tuple, tuple[EquivalenceClass, ButsonMatrix, tuple]] = {}
    loose: dict[tuple, tuple[EquivalenceClass, ButsonMatrix, tuple]] = {}  # forms of undecided classes
    for asg in assignments:
        M = eval_exact(matrix, asg, order)
        form = _sorted_form(M)
        seen = forms.get(form[0])
        if seen is not None and _certify(seen[1], seen[2], M, form) is not None:
            seen[0].assignments.append(dict(asg))
            continue
        fp = fingerprint(M)
        hit_budget = False
        for cls, cls_fp, targets in found:
            if cls_fp != fp:
                continue
            verdict = _search_verdict(M, fp.row_keys, cls.representative, cls_fp.row_keys, budget, targets)
            if verdict.equivalent:
                break
            if verdict.status == "unknown":
                hit_budget = True
        else:
            seen = loose.get(form[0]) if hit_budget else None
            if seen is not None and _certify(seen[1], seen[2], M, form) is not None:
                cls = seen[0]
            else:
                cls = EquivalenceClass(M, undecided=hit_budget)
                found.append((cls, fp, {}))
        cls.assignments.append(dict(asg))
        (loose if cls.undecided else forms).setdefault(form[0], (cls, M, form))
    return [cls for cls, _, _ in found]
