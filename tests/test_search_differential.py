"""Differential tests: the anchored search ``_search`` against the searches
it replaced.

The oracles below are the former Hadamard search (B dephased about (0, 0), A
dephased about every cell, rows matched by value counts, columns by a system
of distinct representatives), the former conference search (columns
permuted to put the zeros on the diagonal, one permutation for rows and
columns, diagonals solved cell by cell with undo lists), the anchored search
as it was before anchors were rejected by shape, the same search with
anchors skipped by an independently written shape test, and that one again
with columns held as cells and pruned by cell sizes and row profiles.  On
every pair all sides must reach the same status and every witness must map A
onto B.  A zero-free pair may cost no more nodes than the former Hadamard
search; every pair must give the anchored oracles' witness at no more nodes,
and exactly the refined oracle's node count.  The anchor screen is also
checked alone: the anchors whose turned row histograms and then dephased
columns match B's must be exactly those ``same_shape`` keeps.
"""

import random
from collections import Counter
from itertools import combinations_with_replacement
from math import lcm

import pytest

from confhad import catalog
from confhad.equivalence import (
    MonomialTransform,
    _Budget,
    _col_shape,
    _dephased,
    _OutOfBudget,
    _row_shapes,
    _row_signature,
    _search,
    _Target,
    _witness_from_maps,
)
from confhad.matrices import ButsonMatrix, bordered_circulant, to_butson
from confhad.search import bordered_matrix, search_bordered_circulant
from confhad.symbolic import Monomial
from confhad.verify import _diff_hist

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


def refined_search(A, B, budget):
    """The shape-filtered search with columns held as cells and two prunes:
    (a) every cell splits by value into parts of equal size on both sides;
    (b) while a cell holds two or more columns, the unmapped B rows and the
    unused A rows have equal multisets of profiles (value counts per such
    cell), and B's next row is tried only against A rows with its profile.
    Cells are pairs of frozensets (B columns, A columns)."""
    n = A.n
    la, b_row0 = A.logs, B.logs[0]
    b0 = next((j for j, x in enumerate(b_row0) if x is not None), 0)
    lb = parent_dephased(B, 0, b0)
    all_cols = frozenset(range(n))

    def counts(row, cols):
        return frozenset(Counter(row[j] for j in cols).items())

    for r in range(n):
        for c in range(n):
            if (la[r][c] is None) != (b_row0[b0] is None):
                continue
            G = parent_dephased(A, r, c)
            if not same_shape(G, lb):
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
                free = [u for u in range(n) if u not in used]
                # a profile: the value counts in each cell of two or more
                # columns, keyed by the cell's B columns
                wide = [(b_cols, a_cols) for b_cols, a_cols in cells.items() if len(b_cols) >= 2]
                if wide:
                    b_profiles = {w: frozenset((b, counts(lb[w], b)) for b, _ in wide) for w in range(i, n)}
                    a_profiles = {u: frozenset((b, counts(G[u], a)) for b, a in wide) for u in free}
                    if Counter(a_profiles.values()) != Counter(b_profiles.values()):
                        return None
                for u in free:
                    if parent_signature(G[u]) != parent_signature(lb[i]):
                        continue
                    if wide and a_profiles[u] != b_profiles[i]:
                        continue
                    if not budget.spend():
                        raise _OutOfBudget
                    parts = {}
                    for b_cols, a_cols in cells.items():
                        if counts(G[u], a_cols) != counts(lb[i], b_cols):
                            break
                        for x in {lb[i][j] for j in b_cols}:
                            parts[frozenset(j for j in b_cols if lb[i][j] == x)] = frozenset(
                                v for v in a_cols if G[u][v] == x
                            )
                    else:
                        used.add(u)
                        sigma[i] = u
                        witness = extend(i + 1, parts)
                        if witness is not None:
                            return witness
                        used.discard(u)
                        sigma[i] = -1
                return None

            witness = extend(1, {frozenset([b0]): frozenset([c]), all_cols - {b0}: all_cols - {c}})
            if witness is not None:
                return witness
    return None


def current_search(A, B, budget):
    return _search(A, _Target(B), budget)


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


def assert_searches_agree(a, b):
    m = lcm(a.m, b.m)
    A, B = a.lift(m), b.lift(m)
    new_status, new_witness, new_nodes = run(current_search, A, B)
    old_status, old_witness, old_nodes = run(old_search, A, B)
    assert new_status == old_status
    if not A.has_zero():
        assert new_nodes <= old_nodes
    for witness in (new_witness, old_witness):
        if witness is not None:
            assert witness.maps(A, B)
    parent_status, parent_witness, parent_nodes = run(parent_search, A, B)
    assert (new_status, witness_key(new_witness)) == (parent_status, witness_key(parent_witness))
    assert new_nodes <= parent_nodes
    shaped = run(shape_filtered_search, A, B)
    assert (new_status, witness_key(new_witness)) == (shaped[0], witness_key(shaped[1]))
    assert new_nodes <= shaped[2]
    refined = run(refined_search, A, B)
    assert (new_status, witness_key(new_witness), new_nodes) == (refined[0], witness_key(refined[1]), refined[2])
    return new_status


def butson(name):
    return to_butson(catalog.build_verified(name))


def image(M, rng):
    """A seeded monomial image over 1-3x the root order, with independent row
    and column permutations (which move a zero diagonal off the diagonal)."""
    big = M.m * rng.choice((1, 2, 3))
    n = M.n
    t = MonomialTransform(
        big,
        tuple(rng.sample(range(n), n)),
        tuple(rng.sample(range(n), n)),
        tuple(rng.randrange(big) for _ in range(n)),
        tuple(rng.randrange(big) for _ in range(n)),
    )
    return t.apply(M.lift(big))


def paley_core(q):
    squares = {k * k % q for k in range(1, q)}
    return to_butson(bordered_circulant([None] + [Monomial(0 if k in squares else 2) for k in range(1, q)]))


@pytest.mark.parametrize("kind", ["H12", "C6"])
def test_catalog_pairs_past_the_fingerprint(kind):
    statuses = set()
    for x, y in combinations_with_replacement("abcdefg", 2):
        statuses.add(assert_searches_agree(butson(kind + x), butson(kind + y)))
    assert statuses == {"equivalent", "inequivalent"}


def test_seeded_monomial_images():
    rng = random.Random(2903)
    for kind in ("H12", "C6"):
        for x in "abcdefg":
            M = butson(kind + x)
            for _ in range(2):
                assert assert_searches_agree(M, image(M, rng)) == "equivalent"


def test_images_where_only_whole_profiles_differ():
    # at some nodes of these searches every cell's counts agree as multisets
    # while the rows' profiles do not
    for M, seed in ((butson("H12f"), 2), (paley_core(13), 0)):
        assert assert_searches_agree(M, image(M, random.Random(seed))) == "equivalent"


def test_row_swapped_paley_cores():
    rng = random.Random(5)
    for q in (5, 13):
        C = paley_core(q)
        for _ in range(3):
            rows = list(range(C.n))
            i, j = rng.sample(rows, 2)
            rows[i], rows[j] = j, i
            swapped = ButsonMatrix(C.m, [C.logs[r] for r in rows])
            assert assert_searches_agree(C, swapped) == "equivalent"
            assert assert_searches_agree(swapped, C) == "equivalent"


def random_matrix(n, m, zeros, rng):
    """Random logs, with zeros in a random permutation pattern if asked."""
    perm = rng.sample(range(n), n)
    return ButsonMatrix(m, [[None if zeros and j == perm[i] else rng.randrange(m) for j in range(n)] for i in range(n)])


def test_random_small_matrices():
    # arbitrary values: dephased columns can coincide except at the sentinel
    rng = random.Random(71)
    statuses = set()
    for _ in range(150):
        n, m, zeros = rng.randint(1, 6), rng.randint(1, 4), rng.random() < 0.7
        A = random_matrix(n, m, zeros, rng)
        assert assert_searches_agree(A, image(A, rng)) == "equivalent"
        statuses.add(assert_searches_agree(A, random_matrix(n, m, zeros, rng)))
    assert statuses == {"equivalent", "inequivalent"}


def test_bordered_solutions():
    solutions = [bordered_matrix(row, 4) for row in search_bordered_circulant(6, 4)]
    statuses = [assert_searches_agree(a, b) for a in solutions for b in solutions]
    assert {"equivalent", "inequivalent"} == set(statuses)


def screened_anchors(A, B):
    """The anchors of A that ``_search`` dephases and searches below: row
    shapes by turned histograms first, then column shapes of the dephased
    matrix.  Also counts the anchors only the column test rejects."""
    target = _Target(B)
    anchor_zero = B.logs[0][target.b0] is None
    kept, by_columns = [], 0
    for r in range(A.n):
        hists = [_diff_hist(row, A.logs[r], A.m) for row in A.logs]
        turned = {}
        for c in range(A.n):
            if (A.logs[r][c] is None) != anchor_zero:
                continue
            if sorted(_row_shapes(A, r, c, hists, turned)) != target.row_shape:
                continue
            if _col_shape(_dephased(A, r, c)) != target.col_shape:
                by_columns += 1
                continue
            kept.append((r, c))
    return kept, by_columns


def oracle_anchors(A, B):
    """The anchors whose dephased matrix has B's shape by ``same_shape``."""
    b0 = next((j for j, x in enumerate(B.logs[0]) if x is not None), 0)
    lb = parent_dephased(B, 0, b0)
    return [
        (r, c)
        for r in range(A.n)
        for c in range(A.n)
        if (A.logs[r][c] is None) == (B.logs[0][b0] is None) and same_shape(parent_dephased(A, r, c), lb)
    ]


def assert_screen_agrees(a, b):
    """Returns (anchors kept, anchors rejected by columns only, anchors)."""
    m = lcm(a.m, b.m)
    A, B = a.lift(m), b.lift(m)
    kept, by_columns = screened_anchors(A, B)
    assert kept == oracle_anchors(A, B)
    return len(kept), by_columns, A.n * A.n


def row_swapped(C, rng):
    rows = list(range(C.n))
    i, j = rng.sample(rows, 2)
    rows[i], rows[j] = j, i
    return ButsonMatrix(C.m, [C.logs[r] for r in rows])


def test_anchor_screen_keeps_the_oracles_anchors():
    rng = random.Random(3307)
    catalog_pairs = combinations_with_replacement("abcdefg", 2)
    pairs = [(butson(k + x), butson(k + y)) for x, y in catalog_pairs for k in ("H12", "C6")]
    pairs += [(M, image(M, rng)) for M in (butson(k + x) for k in ("H12", "C6") for x in "abcdefg")]
    for q in (5, 13):
        C = paley_core(q)
        pairs += [(C, row_swapped(C, rng)), (row_swapped(C, rng), C), (C, image(C, rng))]
    for _ in range(150):
        n, m, zeros = rng.randint(1, 6), rng.randint(1, 4), rng.random() < 0.7
        A = random_matrix(n, m, zeros, rng)
        pairs += [(A, image(A, rng)), (A, random_matrix(n, m, zeros, rng))]
    kept, by_columns, anchors = map(sum, zip(*(assert_screen_agrees(a, b) for a, b in pairs)))
    assert 0 < kept < anchors and by_columns > 0  # both tests reject somewhere
