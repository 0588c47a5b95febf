"""Differential tests: the anchored search ``_search`` against the searches
it replaced, and its row order against a reference.

The oracles below are the former Hadamard search (B dephased about (0, 0), A
dephased about every cell, rows matched by value counts, columns by a system
of distinct representatives), the former conference search (columns
permuted to put the zeros on the diagonal, one permutation for rows and
columns, diagonals solved cell by cell with undo lists), the anchored search
as it was before anchors were rejected by shape, the same search with
anchors skipped by an independently written shape test, and the bitset
search that matched B's rows in index order.  On every pair all of them must
reach ``_search``'s status and every witness must map A onto B.  Over the
whole corpus ``_search`` may cost no more nodes than the index-order search.

``_search`` matches B's rows rarest profile first.  ``rarest_first_order``
writes that order from its rule, and ``refined_search`` (frozenset cells,
the same two prunes, anchors screened by ``row_key``, by ``same_shape``
and, on +-1 targets, by ``triple_profile``, leaving a row when even the
unsigned profiles differ) follows a given order: on every pair it must
take exactly ``_search``'s nodes to the same witness, and on catalog and
Paley targets the order ``_search`` builds must be the reference's.  The
anchor screen is also checked alone: the anchors whose row keys, turned
row histograms, then dephased columns, then row-triple profiles match B's
must be exactly those the reference keeps.  The triple test is checked for
soundness too: every anchor it rejects exhausts when searched without it,
and with it the search reaches the same status and witness in no more
nodes than without; its unsigned form must not depend on the anchor
column.

At the leaf, ``sweep_witness`` (the former ``_witness_from_maps``, which
swept every cell until no diagonal entry changed) and ``old_maps`` (apply
to the lifted A, compare with the lifted B) are the oracles: the one-pass
walk must return the same transform, or None where the sweep does, and
``maps`` must answer as the lifted comparison does.
"""

import random
from collections import Counter
from itertools import combinations, combinations_with_replacement
from math import lcm

import pytest

from confhad import catalog
from confhad.equivalence import (
    MonomialTransform,
    _Anchor,
    _bits,
    _Budget,
    _col_shape,
    _dephased,
    _diff_hist,
    _OutOfBudget,
    _pair_counts,
    _row_shapes,
    _row_signature,
    _search,
    _Target,
    _triples,
    _unsigned,
    _witness_from_maps,
)
from confhad.matrices import ButsonMatrix, SymbolicMatrix, bordered_circulant, double_orthogonal, to_butson
from confhad.search import bordered_matrix, search_bordered_circulant
from confhad.symbolic import Monomial

BUDGET = 10**6


def _sdr(cands):
    """System of distinct representatives by smallest-candidate-first search."""
    order = sorted(range(len(cands)), key=lambda j: len(cands[j]))
    pick = {}

    def go(t):
        if t == len(order):
            return True
        j = order[t]
        for v in sorted(cands[j]):
            if v not in pick.values():
                pick[j] = v
                if go(t + 1):
                    return True
                del pick[j]
        return False

    if not go(0):
        return None
    return [pick[j] for j in range(len(cands))]


def old_search_hadamard(A, B, budget):
    n, m = A.n, A.m
    la = A.logs
    b = B.logs
    lb = [[(row[j] + b[0][0] - row[0] - b[0][j]) % m for j in range(n)] for row in b]
    b_sigs = [_row_signature(row) for row in lb]

    for r in range(n):
        for c in range(n):
            anchor = la[r][c]
            G = [[(la[u][v] + anchor - la[u][c] - la[r][v]) % m for v in range(n)] for u in range(n)]
            g_sigs = [_row_signature(row) for row in G]
            positions = [{} for _ in range(n)]
            for u in range(n):
                by_val = {}
                for v, val in enumerate(G[u]):
                    by_val.setdefault(val, set()).add(v)
                positions[u] = {val: frozenset(vs) for val, vs in by_val.items()}

            all_cols = frozenset(range(n))
            init_cands = [frozenset([c])] + [all_cols - {c}] * (n - 1)
            used = [False] * n
            used[r] = True
            sigma = [r] + [-1] * (n - 1)

            def extend(i, cands):
                if i == n:
                    return _sdr(cands)
                target = b_sigs[i]
                row_b = lb[i]
                for u in range(n):
                    if used[u] or g_sigs[u] != target:
                        continue
                    if not budget.spend():
                        raise _OutOfBudget
                    new_cands = []
                    ok = True
                    pos_u = positions[u]
                    for j in range(n):
                        allowed = pos_u.get(row_b[j])
                        if allowed is None:
                            ok = False
                            break
                        nc = cands[j] & allowed
                        if not nc:
                            ok = False
                            break
                        new_cands.append(nc)
                    if not ok:
                        continue
                    used[u] = True
                    sigma[i] = u
                    tau = extend(i + 1, new_cands)
                    if tau is not None:
                        return tau
                    used[u] = False
                    sigma[i] = -1
                return None

            tau = extend(1, init_cands)
            if tau is not None:
                witness = _witness_from_maps(A, B, sigma, tau)
                if witness is not None:
                    return witness
    return None


def old_zero_columns(M):
    cols = tuple(row.index(None) if row.count(None) == 1 else -1 for row in M.logs)
    if sorted(cols) != list(range(M.n)):
        raise ValueError("zero cells must form a permutation pattern")
    return cols


def old_search_conference(A, B, za, zb, budget):
    n, m = A.n, A.m
    la = [[row[c] for c in za] for row in A.logs]
    lb = [[row[c] for c in zb] for row in B.logs]
    sigma = [-1] * n
    used = [False] * n
    e = [None] * n
    p = [None] * n
    state = {"e0": None}

    def undo_all(undo):
        for kind, idx in reversed(undo):
            if kind == "e":
                e[idx] = None
            elif kind == "p":
                p[idx] = None
            else:
                state["e0"] = None

    def equations(t):
        undo = []

        def set_e(j, val):
            if e[j] is None:
                e[j] = val
                undo.append(("e", j))
                return True
            return e[j] == val

        def set_p(i, val):
            if p[i] is None:
                p[i] = val
                undo.append(("p", i))
                return True
            return p[i] == val

        def set_e0(val):
            if state["e0"] is None:
                state["e0"] = val
                undo.append(("e0", None))
                return True
            return state["e0"] == val

        if t > 0:
            if not set_e(t, (lb[0][t] - la[sigma[0]][sigma[t]]) % m):
                undo_all(undo)
                return None
            if not set_p(t, (lb[t][0] - la[sigma[t]][sigma[0]]) % m):
                undo_all(undo)
                return None
        for s in range(1, t):
            for i, j in ((s, t), (t, s)):
                if i == j or i == 0 or j == 0:
                    continue
                delta = (lb[i][j] - la[sigma[i]][sigma[j]]) % m
                if not set_e0((p[i] + e[j] - delta) % m):
                    undo_all(undo)
                    return None
        return undo

    def extend(t):
        if t == n:
            return True
        for u in range(n):
            if used[u]:
                continue
            if not budget.spend():
                raise _OutOfBudget
            sigma[t] = u
            used[u] = True
            undo = equations(t)
            if undo is not None:
                if extend(t + 1):
                    return True
                undo_all(undo)
            used[u] = False
            sigma[t] = -1
        return False

    if extend(0):
        tau = [0] * n
        for j in range(n):
            tau[zb[j]] = za[sigma[j]]
        return _witness_from_maps(A, B, sigma, tau)
    return None


def old_search(A, B, budget):
    if A.has_zero():
        return old_search_conference(A, B, old_zero_columns(A), old_zero_columns(B), budget)
    return old_search_hadamard(A, B, budget)


_ZERO = -1


def parent_dephased(M, r, c):
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


def parent_signature(row):
    return tuple(sorted(Counter(row).items()))


def parent_search(A, B, budget, keep_anchor=lambda G, lb: True):
    """The anchored search before the shape test; ``keep_anchor`` may skip
    anchors before they cost a node."""
    n = A.n
    la, b_row0 = A.logs, B.logs[0]
    b0 = next((j for j, x in enumerate(b_row0) if x is not None), 0)
    lb = parent_dephased(B, 0, b0)
    b_sigs = [parent_signature(row) for row in lb]
    all_cols = frozenset(range(n))

    for r in range(n):
        for c in range(n):
            if (la[r][c] is None) != (b_row0[b0] is None):
                continue
            G = parent_dephased(A, r, c)
            if not keep_anchor(G, lb):
                continue
            g_sigs = [parent_signature(row) for row in G]
            positions = []
            for row in G:
                by_val = {}
                for v, val in enumerate(row):
                    by_val.setdefault(val, set()).add(v)
                positions.append({val: frozenset(vs) for val, vs in by_val.items()})

            init_cands = [all_cols - {c}] * n
            init_cands[b0] = frozenset([c])
            used = [False] * n
            used[r] = True
            sigma = [r] + [-1] * (n - 1)

            def extend(i, cands):
                if i == n:
                    tau = _sdr(cands)
                    return None if tau is None else _witness_from_maps(A, B, sigma, tau)
                target = b_sigs[i]
                row_b = lb[i]
                for u in range(n):
                    if used[u] or g_sigs[u] != target:
                        continue
                    if not budget.spend():
                        raise _OutOfBudget
                    new_cands = []
                    pos_u = positions[u]
                    for j in range(n):
                        allowed = pos_u.get(row_b[j])
                        if allowed is None:
                            break
                        nc = cands[j] & allowed
                        if not nc:
                            break
                        new_cands.append(nc)
                    else:
                        used[u] = True
                        sigma[i] = u
                        witness = extend(i + 1, new_cands)
                        if witness is not None:
                            return witness
                        used[u] = False
                        sigma[i] = -1
                return None

            witness = extend(1, init_cands)
            if witness is not None:
                return witness
    return None


def same_shape(G, lb):
    """Equal multisets of row value-multisets and of column value-multisets."""

    def shape(M):
        return (
            Counter(frozenset(Counter(row).items()) for row in M),
            Counter(frozenset(Counter(col).items()) for col in zip(*M)),
        )

    return shape(G) == shape(lb)


def shape_filtered_search(A, B, budget):
    return parent_search(A, B, budget, same_shape)


def is_plus_minus_one(lb, m):
    """Whether every value of the dephased matrix ``lb`` stands for 1 or -1
    (log 0 or m/2), so none is a zero's sentinel."""
    return all(x == 0 or 2 * x == m for row in lb for x in row)


def triple_profile(G):
    """For a dephased matrix of logs 0 (+1) and m/2 (-1): the multiset, over
    unordered triples of rows, of the column sum of the three rows' product."""
    signs = [[1 if x == 0 else -1 for x in row] for row in G]
    return Counter(sum(a * b * c for a, b, c in zip(*rows)) for rows in combinations(signs, 3))


def target_profile(lb, m):
    """``triple_profile`` of B's dephased matrix when it is +-1, else None."""
    return triple_profile(lb) if is_plus_minus_one(lb, m) else None


def unsigned_profile(profile):
    """A ``triple_profile`` with the sign of each sum dropped."""
    return Counter(abs(total) for total in profile.elements())


def row_key(M, r):
    """Row r's key from its definition: for each other row u, the counts of
    the values (M[r][v] - M[u][v]) % m over the columns v where both cells
    are nonzero, sorted; those tuples sorted."""
    m, la = M.m, M.logs
    return tuple(
        sorted(
            tuple(sorted(Counter((a - b) % m for a, b in zip(la[r], la[u]) if a is not None and b is not None).values()))
            for u in range(M.n)
            if u != r
        )
    )


def rarest_first_order(B):
    """B's rows in the order the search matches them, from the rule alone.

    Row 0 comes first.  Each later row is the unmatched row whose row
    signature and per-cell value counts (on the cells of two or more
    columns) the fewest unmatched rows share, the lowest index among equals;
    while no cell is wide, the lowest unmatched index.  A cell is a frozenset
    of B columns: first {b0} and the rest, then split by the values of each
    row taken."""
    n = B.n
    b0 = next((j for j, x in enumerate(B.logs[0]) if x is not None), 0)
    lb = parent_dephased(B, 0, b0)
    order, cells = [0], {frozenset([b0]), frozenset(range(n)) - {b0}}
    while len(order) < n:
        cells = {frozenset(j for j in cell if lb[order[-1]][j] == x) for cell in cells for x in {lb[order[-1]][j] for j in cell}}
        wide = [cell for cell in cells if len(cell) > 1]
        free = [u for u in range(n) if u not in order]

        def key(u):
            counts = frozenset((cell, frozenset(Counter(lb[u][j] for j in cell).items())) for cell in wide)
            return parent_signature(lb[u]), counts

        seen = Counter(map(key, free))
        order.append(min(free, key=lambda u: (seen[key(u)], u)) if wide else free[0])
    return order


def refined_search(A, B, budget, order):
    """The shape-filtered search, anchors also screened by their
    ``triple_profile`` when B's dephased matrix is +-1, with columns held as
    cells, B's rows matched in ``order`` (row 0 first), and two prunes:
    (a) every cell splits by value into parts of equal size on both sides;
    (b) while a cell holds two or more columns, the unmapped B rows and the
    unused A rows have equal multisets of profiles (value counts per such
    cell), and B's next row is tried only against A rows with its profile.
    Cells are pairs of frozensets (B columns, A columns).  No anchor is
    tried when the multisets of ``row_key``s differ, and only rows of A with
    the key of B's row 0 are anchored; a row is left at the first anchor
    whose unsigned profile differs from B's."""
    n = A.n
    la, b_row0 = A.logs, B.logs[0]
    b0 = next((j for j, x in enumerate(b_row0) if x is not None), 0)
    lb = parent_dephased(B, 0, b0)
    profile = target_profile(lb, B.m)
    all_cols = frozenset(range(n))
    a_keys, b_keys = [row_key(A, r) for r in range(n)], [row_key(B, u) for u in range(n)]
    if Counter(a_keys) != Counter(b_keys):
        return None

    def counts(row, cols):
        return frozenset(Counter(row[j] for j in cols).items())

    for r in range(n):
        if a_keys[r] != b_keys[0]:
            continue
        for c in range(n):
            if (la[r][c] is None) != (b_row0[b0] is None):
                continue
            G = parent_dephased(A, r, c)
            if not same_shape(G, lb):
                continue
            got = None if profile is None else triple_profile(G)
            if got != profile:
                if unsigned_profile(got) != unsigned_profile(profile):
                    break
                continue
            used = {r}
            sigma = [r] + [-1] * (n - 1)

            def extend(i, cells):
                # cells: B column frozenset -> A column frozenset
                if i == n:
                    cands = [None] * n
                    for b_cols, a_cols in cells.items():
                        for j in b_cols:
                            cands[j] = a_cols
                    tau = _sdr(cands)
                    return None if tau is None else _witness_from_maps(A, B, sigma, tau)
                w = order[i]
                free = [u for u in range(n) if u not in used]
                # a profile: the value counts in each cell of two or more
                # columns, keyed by the cell's B columns
                wide = [(b_cols, a_cols) for b_cols, a_cols in cells.items() if len(b_cols) >= 2]
                if wide:
                    b_profiles = {x: frozenset((b, counts(lb[x], b)) for b, _ in wide) for x in order[i:]}
                    a_profiles = {u: frozenset((b, counts(G[u], a)) for b, a in wide) for u in free}
                    if Counter(a_profiles.values()) != Counter(b_profiles.values()):
                        return None
                for u in free:
                    if parent_signature(G[u]) != parent_signature(lb[w]):
                        continue
                    if wide and a_profiles[u] != b_profiles[w]:
                        continue
                    if not budget.spend():
                        raise _OutOfBudget
                    parts = {}
                    for b_cols, a_cols in cells.items():
                        if counts(G[u], a_cols) != counts(lb[w], b_cols):
                            break
                        for x in {lb[w][j] for j in b_cols}:
                            parts[frozenset(j for j in b_cols if lb[w][j] == x)] = frozenset(
                                v for v in a_cols if G[u][v] == x
                            )
                    else:
                        used.add(u)
                        sigma[w] = u
                        witness = extend(i + 1, parts)
                        if witness is not None:
                            return witness
                        used.discard(u)
                        sigma[w] = -1
                return None

            witness = extend(1, {frozenset([b0]): frozenset([c]), all_cols - {b0}: all_cols - {c}})
            if witness is not None:
                return witness
    return None


def rarest_first_refined_search(A, B, budget):
    return refined_search(A, B, budget, rarest_first_order(B))


class IndexOrderLevel:
    """B's side of depth i of the index-order search: its cells, set by rows
    0..i-1, and how row i splits them and profiles the rows on them."""

    __slots__ = ("cells", "split", "wide", "cell_counts", "want", "profiles")

    def __init__(self, cells, split=(), wide=(), cell_counts=(), want=(), profiles=()):
        self.cells, self.split, self.wide = cells, split, wide
        self.cell_counts, self.want, self.profiles = cell_counts, want, profiles


class IndexOrderTarget:
    """B's side of the index-order search: B dephased about (0, b0), its
    rows and columns as value masks and packed count columns, and its depths,
    in which depth i matches B's row i."""

    def __init__(self, B):
        n = B.n
        self.B, self.n = B, n
        self.b0 = b0 = next((j for j, x in enumerate(B.logs[0]) if x is not None), 0)
        lb = _dephased(B, 0, b0)
        self.sigs = _row_shapes(B, 0, b0, [_diff_hist(row, B.logs[0], B.m) for row in B.logs], {})
        self.row_shape, self.col_shape = sorted(self.sigs), _col_shape(lb)
        self.index = {x: k for k, x in enumerate(sorted({x for row in lb for x in row}))}
        self.counted = max(1, len(self.index) - 1)
        self.width = (n.bit_length() + 7) // 8
        self.masks, self.packed = self.encode(lb)
        self.levels = [IndexOrderLevel(()), self._level(1, (1 << b0, ((1 << n) - 1) ^ (1 << b0)))]

    def encode(self, M):
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

    def counts(self, packed, cell):
        total = 0
        while cell:
            low = cell & -cell
            total += packed[low.bit_length() - 1]
            cell ^= low
        return total.to_bytes(self.n * self.counted * self.width, "little")

    def profiles(self, counts):
        size = self.counted * self.width
        return list(zip(*[on_cell[k::size] for on_cell in counts for k in range(size)]))

    def _level(self, i, cells):
        if i == self.n:
            return IndexOrderLevel(cells)
        row = self.masks[i]
        split = tuple(
            (k, x, (cell & mask).bit_count()) for k, cell in enumerate(cells) for x, mask in enumerate(row) if cell & mask
        )
        wide = tuple(k for k, cell in enumerate(cells) if cell & (cell - 1))
        if not wide:
            return IndexOrderLevel(cells, split)
        counts = [self.counts(self.packed, cells[k]) for k in wide]
        profiles = self.profiles(counts)
        return IndexOrderLevel(cells, split, wide, tuple(map(sorted, counts)), profiles[i], tuple(sorted(profiles)))

    def level(self, i):
        levels = self.levels
        while len(levels) <= i:
            last, prev_row = levels[-1], self.masks[len(levels) - 1]
            cells = tuple(last.cells[k] & prev_row[x] for k, x, _ in last.split)
            levels.append(self._level(len(levels), cells))
        return levels[i]


class IndexOrderAnchor:
    """A's side of one anchor (r, c) in the index-order search."""

    def __init__(self, A, target, budget, G, r, sigs):
        n = A.n
        self.A, self.target, self.budget = A, target, budget
        self.masks, self.packed = target.encode(G)
        self.rows_with = {}
        for u, sig in enumerate(sigs):
            self.rows_with.setdefault(sig, []).append(u)
        self.used = [False] * n
        self.used[r] = True
        self.sigma = [r] + [-1] * (n - 1)

    def extend(self, i, cells):
        t = self.target
        level = t.level(i)
        if i == t.n:
            tau = [0] * i
            for b_cell, a_cell in zip(level.cells, cells):
                for j, v in zip(_bits(b_cell), _bits(a_cell)):
                    tau[j] = v
            return _witness_from_maps(self.A, t.B, self.sigma, tau)
        used, masks = self.used, self.masks
        rows = self.rows_with[t.sigs[i]]
        if level.wide:
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
                self.sigma[i] = u
                witness = self.extend(i + 1, parts)
                if witness is not None:
                    return witness
                used[u] = False
                self.sigma[i] = -1
        return None


def index_order_search(A, B, budget):
    """The bitset search with B's rows matched in index order, 0, 1, 2, ...
    at depths 0, 1, 2, ...; otherwise the anchors, shape screens, cells and
    prunes of ``_search``."""
    n, m, la = A.n, A.m, A.logs
    target = IndexOrderTarget(B)
    anchor_zero = B.logs[0][target.b0] is None
    full = (1 << n) - 1
    for r in range(n):
        hists = [_diff_hist(row, la[r], m) for row in la]
        turned = {}
        for c in range(n):
            if (la[r][c] is None) != anchor_zero:
                continue
            sigs = _row_shapes(A, r, c, hists, turned)
            if sorted(sigs) != target.row_shape:
                continue
            G = _dephased(A, r, c)
            if _col_shape(G) != target.col_shape:
                continue
            witness = IndexOrderAnchor(A, target, budget, G, r, sigs).extend(1, [1 << c, full ^ (1 << c)])
            if witness is not None:
                return witness
    return None


def make_target(B):
    """``_Target`` of B, as ``_search_verdict`` builds it."""
    return _Target(B)


def current_search(A, B, budget, target=None):
    """``_search`` of A against B (or against ``target``) as
    ``_search_verdict`` runs it: no anchor when the row-key multisets
    differ, else the rows of A with the key of B's row 0."""
    a_keys, b_keys = _pair_counts(A)[1], _pair_counts(B)[1]
    if sorted(a_keys) != sorted(b_keys):
        return None
    rows = [r for r, key in enumerate(a_keys) if key == b_keys[0]]
    return _search(A, make_target(B) if target is None else target, budget, rows)


def witness_key(witness):
    if witness is None:
        return None
    return (witness.row_perm, witness.col_perm, witness.row_logs, witness.col_logs)


def run(search, A, B):
    budget = _Budget(BUDGET)
    try:
        witness = search(A, B, budget)
    except _OutOfBudget:
        return "unknown", None, budget.used
    return ("inequivalent" if witness is None else "equivalent"), witness, budget.used


ORACLES = (old_search, parent_search, shape_filtered_search, index_order_search)


def lifted(a, b):
    m = lcm(a.m, b.m)
    return a.lift(m), b.lift(m)


def assert_searches_agree(a, b, oracles=ORACLES):
    """Every oracle reaches ``_search``'s status, every witness maps A onto
    B, and the reference of the rarest-first order takes exactly
    ``_search``'s nodes to the same witness."""
    A, B = lifted(a, b)
    status, witness, nodes = run(current_search, A, B)
    for search in oracles:
        other = run(search, A, B)
        assert other[0] == status
        if other[1] is not None:
            assert other[1].maps(A, B)
    if witness is not None:
        assert witness.maps(A, B)
    reference = run(rarest_first_refined_search, A, B)
    assert (status, witness_key(witness), nodes) == (reference[0], witness_key(reference[1]), reference[2])
    return status


def butson(name):
    return to_butson(catalog.build_verified(name))


def image_and_map(M, rng):
    """A seeded monomial image of M over 1-3x its root order, with independent
    row and column permutations (which move a zero diagonal off the
    diagonal); also M lifted to that order and the transform that carries
    it onto the image."""
    big = M.m * rng.choice((1, 2, 3))
    n = M.n
    t = MonomialTransform(
        big,
        tuple(rng.sample(range(n), n)),
        tuple(rng.sample(range(n), n)),
        tuple(rng.randrange(big) for _ in range(n)),
        tuple(rng.randrange(big) for _ in range(n)),
    )
    A = M.lift(big)
    return A, t.apply(A), t


def image(M, rng):
    return image_and_map(M, rng)[1]


def paley_core(q, double=False):
    """The bordered Paley conference matrix of order q + 1, or its double."""
    squares = {k * k % q for k in range(1, q)}
    core = bordered_circulant([None] + [Monomial(0 if k in squares else 2) for k in range(1, q)])
    return to_butson(double_orthogonal(core) if double else core)


def gf9_paley_double():
    """The double of the Paley conference matrix of order 10, a +-1
    Hadamard matrix of order 20.  The core is indexed by GF(9) = F_3[i]/(i^2
    + 1) (pairs (a, b) for a + bi) and holds chi(y - x), chi the quadratic
    character."""
    field = [(a, b) for a in range(3) for b in range(3)]
    squares = {((a * a - b * b) % 3, 2 * a * b % 3) for a, b in field if (a, b) != (0, 0)}

    def cell(x, y):
        d = ((y[0] - x[0]) % 3, (y[1] - x[1]) % 3)
        return None if d == (0, 0) else Monomial(0 if d in squares else 2)

    rows = [[None] + [Monomial(0)] * 9]
    rows += [[Monomial(0)] + [cell(x, y) for y in field] for x in field]
    return to_butson(double_orthogonal(SymbolicMatrix(rows)))


def sylvester(k):
    """The Sylvester Hadamard matrix of order 2^k: cell (i, j) is
    (-1)^popcount(i & j)."""
    n = 1 << k
    return ButsonMatrix(2, [[bin(i & j).count("1") % 2 for j in range(n)] for i in range(n)])


def sign_image(M, rng):
    """A seeded image of the +-1 matrix M by permutations and sign changes."""
    n = M.n
    perms = [tuple(rng.sample(range(n), n)) for _ in range(2)]
    signs = [tuple(rng.randrange(2) for _ in range(n)) for _ in range(2)]
    return MonomialTransform(2, *perms, *signs).apply(M)


def random_matrix(n, m, zeros, rng):
    """Random logs, with zeros in a random permutation pattern if asked."""
    perm = rng.sample(range(n), n)
    return ButsonMatrix(m, [[None if zeros and j == perm[i] else rng.randrange(m) for j in range(n)] for i in range(n)])


def row_swapped(C, rng):
    rows = list(range(C.n))
    i, j = rng.sample(rows, 2)
    rows[i], rows[j] = j, i
    return ButsonMatrix(C.m, [C.logs[r] for r in rows])


# The corpus: each function returns its pairs, the same on every call.


def catalog_pairs(kind):
    return [(butson(kind + x), butson(kind + y)) for x, y in combinations_with_replacement("abcdefg", 2)]


def seeded_images():
    rng = random.Random(2903)
    pairs = []
    for M in (butson(kind + x) for kind in ("H12", "C6") for x in "abcdefg"):
        pairs += [(M, image(M, rng)) for _ in range(2)]
    return pairs


def whole_profile_images():
    # at some nodes of these searches every cell's counts agree as multisets
    # while the rows' profiles do not
    return [(M, image(M, random.Random(seed))) for M, seed in ((butson("H12f"), 2), (paley_core(13), 0))]


def row_swapped_cores():
    rng = random.Random(5)
    pairs = []
    for q in (5, 13):
        C = paley_core(q)
        for _ in range(3):
            swapped = row_swapped(C, rng)
            pairs += [(C, swapped), (swapped, C)]
    return pairs


def random_small_pairs():
    # arbitrary values: dephased columns can coincide except at the sentinel
    rng = random.Random(71)
    pairs = []
    for _ in range(150):
        n, m, zeros = rng.randint(1, 6), rng.randint(1, 4), rng.random() < 0.7
        A = random_matrix(n, m, zeros, rng)
        pairs.append((A, image(A, rng)))
        pairs.append((A, random_matrix(n, m, zeros, rng)))
    return pairs


def bordered_pairs():
    solutions = [bordered_matrix(row, 4) for row in search_bordered_circulant(6, 4)]
    return [(a, b) for a in solutions for b in solutions]


CORPUS = (
    lambda: catalog_pairs("H12"),
    lambda: catalog_pairs("C6"),
    seeded_images,
    whole_profile_images,
    row_swapped_cores,
    random_small_pairs,
    bordered_pairs,
)


@pytest.mark.parametrize("kind", ["H12", "C6"])
def test_catalog_pairs_past_the_fingerprint(kind):
    statuses = {assert_searches_agree(a, b) for a, b in catalog_pairs(kind)}
    assert statuses == {"equivalent", "inequivalent"}


def test_seeded_monomial_images():
    for a, b in seeded_images():
        assert assert_searches_agree(a, b) == "equivalent"


def test_images_where_only_whole_profiles_differ():
    for a, b in whole_profile_images():
        assert assert_searches_agree(a, b) == "equivalent"


def test_row_swapped_paley_cores():
    for a, b in row_swapped_cores():
        assert assert_searches_agree(a, b) == "equivalent"


def test_random_small_matrices():
    pairs = random_small_pairs()
    statuses = [assert_searches_agree(a, b) for a, b in pairs]
    assert set(statuses[::2]) == {"equivalent"}  # the images
    assert set(statuses) == {"equivalent", "inequivalent"}


def test_bordered_solutions():
    statuses = {assert_searches_agree(a, b) for a, b in bordered_pairs()}
    assert statuses == {"equivalent", "inequivalent"}


def test_corpus_costs_no_more_nodes_than_the_index_order():
    pairs = [lifted(a, b) for make in CORPUS for a, b in make()]
    nodes = [(run(current_search, A, B)[2], run(index_order_search, A, B)[2]) for A, B in pairs]
    rarest, index = map(sum, zip(*nodes))
    assert rarest <= index
    assert any(x != y for x, y in nodes)  # the order changes some searches


def test_doubled_paley_images_follow_the_reference_order():
    # order 28: the oracles without cells run out of nodes here
    H = paley_core(13, double=True)
    assert assert_searches_agree(H, image(H, random.Random(3601)), (index_order_search,)) == "equivalent"


def test_match_order_is_the_reference_order():
    targets = [butson(kind + x) for kind in ("H12", "C6") for x in "abcdefg"]
    targets += [paley_core(q) for q in (5, 13, 17)] + [paley_core(q, double=True) for q in (5, 13)]
    rng = random.Random(41)
    targets += [image(M, rng) for M in targets]
    reordered = 0
    for B in targets:
        t = make_target(B)
        order = [t.levels[i].row for i in range(B.n)]
        assert order[0] == 0 and sorted(order) == list(range(B.n))
        assert order == rarest_first_order(B)
        reordered += order != list(range(B.n))
    assert reordered > 0


def screened_anchors(A, B):
    """The anchors of A that ``_search`` dephases and searches below: row
    shapes by turned histograms first, then column shapes of the dephased
    matrix, then its row-triple profile if B's has one, and the row keys.
    Also counts the anchors only the column test rejects, those only the
    profile does, and those only the keys do."""
    target = make_target(B)
    keys, b_keys = _pair_counts(A)[1], _pair_counts(B)[1]
    keyed = sorted(keys) == sorted(b_keys)
    anchor_zero = B.logs[0][target.b0] is None
    kept, by_columns, by_triples, by_keys = [], 0, 0, 0
    for r in range(A.n):
        hists = [_diff_hist(row, A.logs[r], A.m) for row in A.logs]
        turned = {}
        for c in range(A.n):
            if (A.logs[r][c] is None) != anchor_zero:
                continue
            if sorted(_row_shapes(A, r, c, hists, turned)) != target.row_shape:
                continue
            G = _dephased(A, r, c)
            if _col_shape(G) != target.col_shape:
                by_columns += 1
                continue
            if target.triples is not None and _triples(G, A.m // 2) != target.triples:
                by_triples += 1
                continue
            if not keyed or keys[r] != b_keys[0]:
                by_keys += 1
                continue
            kept.append((r, c))
    return kept, by_columns, by_triples, by_keys


def oracle_anchors(A, B):
    """The anchors whose dephased matrix has B's shape by ``same_shape`` and,
    when B's dephased matrix is +-1, B's ``triple_profile``, in a row with
    the ``row_key`` of B's row 0, when A's and B's keys agree as multisets."""
    b0 = next((j for j, x in enumerate(B.logs[0]) if x is not None), 0)
    lb = parent_dephased(B, 0, b0)
    profile = target_profile(lb, B.m)
    a_keys, b_keys = [row_key(A, r) for r in range(A.n)], [row_key(B, u) for u in range(B.n)]
    if Counter(a_keys) != Counter(b_keys):
        return []

    def keep(G):
        return same_shape(G, lb) and (profile is None or triple_profile(G) == profile)

    return [
        (r, c)
        for r in range(A.n)
        for c in range(A.n)
        if a_keys[r] == b_keys[0]
        and (A.logs[r][c] is None) == (B.logs[0][b0] is None)
        and keep(parent_dephased(A, r, c))
    ]


def assert_screen_agrees(a, b):
    """Returns (anchors kept, anchors rejected by columns only, anchors
    rejected by the triple profile only, anchors rejected by the row keys
    only, anchors)."""
    m = lcm(a.m, b.m)
    A, B = a.lift(m), b.lift(m)
    kept, by_columns, by_triples, by_keys = screened_anchors(A, B)
    assert kept == oracle_anchors(A, B)
    return len(kept), by_columns, by_triples, by_keys, A.n * A.n


def test_anchor_screen_keeps_the_oracles_anchors():
    rng = random.Random(3307)
    catalog_pairs = combinations_with_replacement("abcdefg", 2)
    pairs = [(butson(k + x), butson(k + y)) for x, y in catalog_pairs for k in ("H12", "C6")]
    pairs += [(M, image(M, rng)) for M in (butson(k + x) for k in ("H12", "C6") for x in "abcdefg")]
    for q in (5, 13):
        C = paley_core(q)
        pairs += [(C, row_swapped(C, rng)), (row_swapped(C, rng), C), (C, image(C, rng))]
    H = paley_core(5, double=True)
    pairs += [(H, image(H, rng)), (sylvester(3), image(sylvester(3), rng))] + random_sign_pairs()
    for _ in range(150):
        n, m, zeros = rng.randint(1, 6), rng.randint(1, 4), rng.random() < 0.7
        A = random_matrix(n, m, zeros, rng)
        pairs += [(A, image(A, rng)), (A, random_matrix(n, m, zeros, rng))]
    kept, by_columns, by_triples, by_keys, anchors = map(sum, zip(*(assert_screen_agrees(a, b) for a, b in pairs)))
    assert 0 < kept < anchors and by_columns > 0 and by_triples > 0 and by_keys > 0  # every test rejects somewhere


# The row-triple profile test: sound, and equal to its definition.


def random_sign_pairs():
    """Seeded +-1 matrices against sign images and unrelated +-1 matrices."""
    rng = random.Random(4407)
    pairs = []
    for _ in range(40):
        A = random_matrix(rng.randint(4, 8), 2, False, rng)
        pairs += [(A, sign_image(A, rng)), (A, random_matrix(A.n, 2, False, rng))]
    return pairs


def plus_minus_one_pairs():
    """+-1 Hadamard targets against sign images and (for H12) the other real
    catalog entries, then ``random_sign_pairs``."""
    rng = random.Random(4411)
    hadamard = [butson("H12" + x) for x in "abc"]
    hadamard += [paley_core(5, double=True), gf9_paley_double(), paley_core(13, double=True)]
    hadamard += [sylvester(3), sylvester(4)]
    pairs = [(a, b) for a, b in combinations_with_replacement(hadamard[:3], 2)]
    pairs += [(M, sign_image(M, rng)) for M in hadamard]
    return pairs + random_sign_pairs()


def profile_rejected_anchors(A, target):
    """The anchors of A that pass the row and column shape tests but not the
    triple profile, each with its dephased matrix and row shapes."""
    for r in range(A.n):
        hists = [_diff_hist(row, A.logs[r], A.m) for row in A.logs]
        turned = {}
        for c in range(A.n):
            sigs = _row_shapes(A, r, c, hists, turned)
            if sorted(sigs) != target.row_shape:
                continue
            G = _dephased(A, r, c)
            if _col_shape(G) == target.col_shape and _triples(G, A.m // 2) != target.triples:
                yield r, c, G, sigs


def test_rejected_anchors_hold_no_witness():
    rejected = hadamard_rejected = 0
    for A, B in plus_minus_one_pairs():
        target = make_target(B)
        assert target.triples is not None
        full = (1 << A.n) - 1
        for r, c, G, sigs in profile_rejected_anchors(A, target):
            # the anchor searched alone, without the profile test
            below = _Anchor(A, target, _Budget(BUDGET), G, r, sigs)
            assert below.extend(1, [1 << c, full ^ (1 << c)]) is None
            rejected += 1
            hadamard_rejected += A.n in (20, 28)
    assert rejected > 0 and hadamard_rejected > 0


def test_triples_is_the_profile_and_ignores_permutations():
    rng = random.Random(4421)
    for A, _ in plus_minus_one_pairs():
        n = A.n
        for r, c in {(rng.randrange(n), rng.randrange(n)) for _ in range(3)}:
            G = parent_dephased(A, r, c)
            got = _triples(G, 1)
            assert Counter({n - 2 * k: count for k, count in got.items()}) == triple_profile(G)
            rows, cols = rng.sample(range(n), n), rng.sample(range(n), n)
            assert _triples([[G[u][v] for v in cols] for u in rows], 1) == got


def test_unsigned_profile_ignores_the_anchor_column():
    """``_unsigned`` drops the sign of ``triple_profile``'s sums, and on a
    +-1 matrix every anchor of a row gives it one value, so ``_search`` may
    leave a row at its first anchor whose unsigned profile differs."""
    rng = random.Random(4423)
    signed = set()
    for A, _ in plus_minus_one_pairs():
        n = A.n
        for r in rng.sample(range(n), 2):
            profiles = [_triples(parent_dephased(A, r, c), A.m // 2) for c in range(n)]
            unsigned = {frozenset(_unsigned(got, n).items()) for got in profiles}
            assert len(unsigned) == 1
            signed.add(len(set(frozenset(got.items()) for got in profiles)) > 1)
            c = rng.randrange(n)
            assert _unsigned(profiles[c], n) == unsigned_profile(triple_profile(parent_dephased(A, r, c)))
    assert True in signed  # the signed profile does move with the column


def screen_off_search(A, B, budget):
    target = make_target(B)
    target.triples = None
    return current_search(A, B, budget, target)


def test_profile_test_keeps_status_and_witness_and_saves_nodes():
    H = paley_core(13, double=True)
    pairs = [lifted(a, b) for make in CORPUS for a, b in make()]
    pairs.append(lifted(H, image(H, random.Random(3601))))
    saved = 0
    for A, B in pairs:
        on, off = run(current_search, A, B), run(screen_off_search, A, B)
        assert (on[0], witness_key(on[1])) == (off[0], witness_key(off[1]))
        assert on[2] <= off[2]
        saved += on[2] < off[2]
    assert saved > 0


# The leaf: ``_witness_from_maps`` and ``MonomialTransform.maps`` against the
# definitions they replaced.


def old_maps(t, A, B):
    """The former ``MonomialTransform.maps``: lift both, apply, compare."""
    big = lcm(A.m, B.m, t.m)
    return t.apply(A.lift(big)).logs == B.lift(big).logs


def sweep_witness(A, B, sigma, tau):
    """The former ``_witness_from_maps``: sweep all n^2 cells until no
    diagonal entry changes, one gauge per connected part, verified by
    ``old_maps``."""
    n, m = A.n, A.m
    la, lb = A.logs, B.logs
    for i in range(n):
        for j in range(n):
            if (lb[i][j] is None) != (la[sigma[i]][tau[j]] is None):
                return None
    rd = [None] * n
    cd = [None] * n
    for start in range(n):
        if rd[start] is not None:
            continue
        rd[start] = 0
        changed = True
        while changed:
            changed = False
            for i in range(n):
                for j in range(n):
                    x = lb[i][j]
                    if x is None:
                        continue
                    d = (x - la[sigma[i]][tau[j]]) % m
                    if rd[i] is not None and cd[j] is None:
                        cd[j] = (d - rd[i]) % m
                        changed = True
                    elif cd[j] is not None and rd[i] is None:
                        rd[i] = (d - cd[j]) % m
                        changed = True
    cd = [0 if v is None else v for v in cd]
    cand = MonomialTransform(m, tuple(sigma), tuple(tau), tuple(rd), tuple(cd))
    return cand if old_maps(cand, A, B) else None


def assert_witness_agrees(A, B, sigma, tau):
    """Returns whether a witness was found."""
    want = sweep_witness(A, B, sigma, tau)
    assert _witness_from_maps(A, B, sigma, tau) == want
    return want is not None


def wrong_maps(sigma, tau, rng):
    """Row and column maps near (sigma, tau): one transposition in either,
    both at random, and tau turned by one place, which moves every zero of a
    permutation pattern off its partner."""
    n = len(sigma)
    out = [(tuple(rng.sample(range(n), n)), tuple(rng.sample(range(n), n))), (sigma, tau[1:] + tau[:1])]
    if n > 1:
        for which in (0, 1):
            maps = [list(sigma), list(tau)]
            i, j = rng.sample(range(n), 2)
            maps[which][i], maps[which][j] = maps[which][j], maps[which][i]
            out.append(tuple(map(tuple, maps)))
    return out


def sparse_matrix(n, m, rng):
    """Random logs with about half the cells zero, so the nonzero cells may
    fall into several connected parts and some columns may hold none."""
    return ButsonMatrix(m, [[None if rng.random() < 0.5 else rng.randrange(m) for _ in range(n)] for _ in range(n)])


def parts_and_empty_columns(M):
    """The connected parts of M's nonzero cells (rows and columns linked by
    a cell) that hold a column, and whether some column holds no cell."""
    n = M.n
    owner = list(range(2 * n))  # rows 0..n-1, columns n..2n-1

    def find(u):
        while owner[u] != u:
            u = owner[u]
        return u

    for i in range(n):
        for j in range(n):
            if M.logs[i][j] is not None:
                owner[find(i)] = find(n + j)
    used = [any(row[j] is not None for row in M.logs) for j in range(n)]
    return len({find(n + j) for j in range(n) if used[j]}), not all(used)


def test_witness_matches_the_sweep_on_catalog_pairs():
    rng = random.Random(1607)
    found = wrong = 0
    for kind in ("H12", "C6"):
        for a, b in catalog_pairs(kind):
            A, B = lifted(a, b)
            witness = current_search(A, B, _Budget(BUDGET))
            if witness is not None:
                found += assert_witness_agrees(A, B, witness.row_perm, witness.col_perm)
                sigma, tau = witness.row_perm, witness.col_perm
            else:
                sigma = tau = tuple(range(A.n))
            for s, t in wrong_maps(sigma, tau, rng):
                wrong += not assert_witness_agrees(A, B, s, t)
    assert found > 0 and wrong > 0


def test_witness_matches_the_sweep_on_seeded_images():
    rng = random.Random(1609)
    sources = [butson(kind + x) for kind in ("H12", "C6") for x in "abcdefg"]
    sources += [paley_core(13), paley_core(5, double=True)]
    sources += [random_matrix(rng.randint(1, 7), rng.randint(1, 4), zeros, rng) for zeros in (False, True) * 20]
    sources += [sparse_matrix(rng.randint(2, 7), rng.randint(1, 4), rng) for _ in range(60)]
    wrong = zeros_moved = several_parts = empty_columns = 0
    for M in sources:
        A, B, t = image_and_map(M, rng)
        assert assert_witness_agrees(A, B, t.row_perm, t.col_perm)
        for sigma, tau in wrong_maps(t.row_perm, t.col_perm, rng):
            wrong += not assert_witness_agrees(A, B, sigma, tau)
            zeros_moved += any(
                (B.logs[i][j] is None) != (A.logs[sigma[i]][tau[j]] is None) for i in range(A.n) for j in range(A.n)
            )
        parts, empty = parts_and_empty_columns(B)
        several_parts += parts > 1
        empty_columns += empty
    assert wrong and zeros_moved and several_parts and empty_columns


def test_maps_matches_the_lifted_comparison():
    rng = random.Random(1613)
    true_images = perturbed = orders_differ = 0
    for _ in range(300):
        n, ma, mt = rng.randint(1, 6), rng.choice((1, 2, 3, 4, 6)), rng.choice((1, 2, 3, 4, 5, 6))
        A = sparse_matrix(n, ma, rng) if rng.random() < 0.5 else random_matrix(n, ma, rng.random() < 0.5, rng)
        t = MonomialTransform(
            mt,
            tuple(rng.sample(range(n), n)),
            tuple(rng.sample(range(n), n)),
            tuple(rng.randrange(-2 * mt, 3 * mt) for _ in range(n)),  # logs need not be reduced
            tuple(rng.randrange(-2 * mt, 3 * mt) for _ in range(n)),
        )
        image = t.apply(A)
        # B over an order that differs from A's and t's: a multiple of the
        # image's, or the smallest that holds it
        B = image.lift(image.m * rng.choice((2, 3))) if rng.random() < 0.7 else image.reduce_order()
        orders_differ += len({A.m, B.m, t.m}) == 3
        assert t.maps(A, B) == old_maps(t, A, B)
        true_images += t.maps(A, B)
        unrelated = random_matrix(n, B.m, False, rng)
        assert t.maps(A, unrelated) == old_maps(t, A, unrelated)
        # single-cell changes of the true image: the other zero status, or
        # another value
        for i in range(n):
            for j in range(n):
                x = B.logs[i][j]
                for y in {None, 0, 1 % B.m, B.m - 1, rng.randrange(B.m)} - {x}:
                    logs = [list(row) for row in B.logs]
                    logs[i][j] = y
                    C = ButsonMatrix(B.m, logs)
                    assert not t.maps(A, C) and not old_maps(t, A, C)
                    perturbed += 1
    assert true_images == 300 and perturbed > 0 and orders_differ > 100
