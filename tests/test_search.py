import random
import time
import tracemalloc

import numpy as np
import pytest

from confhad.matrices import to_butson
from confhad import catalog
from confhad.search import (
    SearchBudgetExhausted,
    bordered_matrix,
    circulant_matrix,
    search_bordered_circulant,
    search_circulant,
    symmetry_reduce,
)
from confhad.verify import check_conference

PALEY = (None, 0, 1, 1, 0)  # (0, 1, -1, -1, 1) in log form, m = 2
SKEW_F = (None, 0, 1, 3, 2)  # (0, 1, i, -i, -1), m = 4
SKEW_G = (None, 0, 3, 1, 2)  # (0, 1, -i, i, -1), m = 4


def test_bordered_6_2_contains_paley():
    rows = search_bordered_circulant(6, 2)
    assert PALEY in rows
    assert len(rows) == 2  # regression: the core and its negation


def test_bordered_6_4_contains_both_skew_cores():
    rows = search_bordered_circulant(6, 4)
    assert SKEW_F in rows and SKEW_G in rows
    assert len(rows) == 12  # regression: three orbits of four scalings


def test_bordered_6_1_empty():
    assert search_bordered_circulant(6, 1) == []


def test_found_rows_match_catalog_cores():
    assert bordered_matrix(PALEY, 2) == to_butson(catalog.build("C6c"))
    assert bordered_matrix(SKEW_F, 4) == to_butson(catalog.build("C6f"))
    assert bordered_matrix(SKEW_G, 4) == to_butson(catalog.build("C6g"))


def test_circulant_tiny():
    assert search_circulant(2, 1) == [(None, 0)]
    assert check_conference(circulant_matrix((None, 0), 1))
    for search in (search_circulant, search_bordered_circulant):
        with pytest.raises(ValueError, match="need n >= 2"):
            search(1, 2)


def test_circulant_4_2_and_6_2_empty():
    # regression values from the exhaustive runs over 8 and 32 candidates
    assert search_circulant(4, 2) == []
    assert search_circulant(6, 2) == []


def test_determinism_and_exhaustive_soundness():
    first = search_bordered_circulant(6, 4)
    second = search_bordered_circulant(6, 4)
    assert first == second == sorted(first, key=lambda r: tuple(-1 if c is None else c for c in r))
    for row in first:
        assert check_conference(bordered_matrix(row, 4))
    # audit a sample of rejected candidates numerically
    rng = random.Random(2024)
    found = set(first)
    rejected_checked = 0
    while rejected_checked < 25:
        row = (None,) + tuple(rng.randrange(4) for _ in range(4))
        if row in found:
            continue
        M = bordered_matrix(row, 4)
        assert not check_conference(M)
        arr = np.array(M.to_complex().rows)
        gram = arr @ arr.conj().T
        assert np.max(np.abs(gram - 5 * np.eye(6))) > 1e-9
        rejected_checked += 1


def test_symmetry_soundness():
    rows = set(search_bordered_circulant(6, 4))
    for row in rows:
        for t in range(4):
            scaled = tuple(None if c is None else (c + t) % 4 for c in row)
            assert scaled in rows
        reversed_row = tuple(row[(-i) % 5] for i in range(5))
        assert reversed_row in rows


def test_symmetry_reduce_collapses_orbits():
    rows = search_bordered_circulant(6, 2)
    assert symmetry_reduce(rows, 2) == [PALEY]
    reps4 = symmetry_reduce(search_bordered_circulant(6, 4), 4)
    assert len(reps4) == 3
    # the two skew cores sit in distinct orbits
    orbits_of = {}
    for rep in reps4:
        orbit = set()
        for base in (rep, tuple(rep[(-i) % 5] for i in range(5))):
            for t in range(4):
                orbit.add(tuple(None if c is None else (c + t) % 4 for c in base))
        for member in orbit:
            orbits_of[member] = rep
    assert orbits_of[SKEW_F] != orbits_of[SKEW_G]


def test_symmetry_reduce_empty():
    assert symmetry_reduce([], 4) == []


def test_solution_classes_under_matrix_equivalence():
    # core scaling is a symmetry of the search set, not of matrix equivalence:
    # the 12 bordered (6,4) solutions split into 3 monomial classes (frozen)
    from confhad.equivalence import are_equivalent

    reps = []
    for row in search_bordered_circulant(6, 4):
        M = bordered_matrix(row, 4)
        for _, rep in reps:
            if are_equivalent(M, rep).equivalent:
                break
        else:
            reps.append((row, M))
    assert [row for row, _ in reps] == [
        (None, 0, 1, 3, 2),
        (None, 0, 2, 2, 0),
        (None, 0, 3, 1, 2),
    ]
    # (None,1,3,3,1) is (None,0,2,2,0) with its core times i: scale the core
    # rows by -i and the border column by i (the fingerprints used to differ
    # only in the stored root order)
    a, b = bordered_matrix((None, 1, 3, 3, 1), 4), bordered_matrix((None, 0, 2, 2, 0), 4)
    verdict = are_equivalent(a, b)
    assert verdict.equivalent
    w = verdict.witness
    assert w.m == 4
    for i in range(6):
        for j in range(6):
            x, y = a.logs[w.row_perm[i]][w.col_perm[j]], b.logs[i][j]
            assert (x is None) == (y is None)
            if x is not None:
                assert (x + w.row_logs[i] + w.col_logs[j] - y) % 4 == 0


def paley_row(q):
    """The Paley core of order q + 1 (q = 1 mod 4) as a search row, logs base -1."""
    squares = {x * x % q for x in range(1, q)}
    return (None, *(0 if x in squares else 1 for x in range(1, q)))


def test_bordered_orders_14_and_18():
    # (14,4) has 4^11 candidate rows, past the 10^6 the enumeration took
    rows = search_bordered_circulant(14, 4)
    assert len(rows) == 12 and all(check_conference(bordered_matrix(row, 4)) for row in rows)
    # the real Paley core, and a complex orbit with its conjugate (logs 1 and 3 swapped)
    paley13 = tuple(None if c is None else 2 * c for c in paley_row(13))  # logs base i
    assert symmetry_reduce(rows, 4) == [
        (None, 0, 1, 0, 2, 1, 1, 3, 3, 0, 2, 3, 2),
        paley13,
        (None, 0, 3, 0, 2, 3, 3, 1, 1, 0, 2, 1, 2),
    ]
    rows = search_bordered_circulant(14, 3)
    assert len(rows) == 6 and all(check_conference(bordered_matrix(row, 3)) for row in rows)
    paley17 = paley_row(17)
    assert search_bordered_circulant(18, 2) == [paley17, tuple(None if c is None else 1 - c for c in paley17)]


def test_search_budget():
    nodes = 48  # the cell values the bordered (6,4) search tries
    assert len(search_bordered_circulant(6, 4, nodes)) == 12
    for search, n, budget in (
        (search_bordered_circulant, 6, nodes - 1),
        (search_bordered_circulant, 14, 1000),
        (search_circulant, 6, 10),
    ):
        with pytest.raises(SearchBudgetExhausted, match="unknown"):
            search(n, 4, budget)
    # a row longer than the budget is refused before anything n-sized is built
    tracemalloc.start()
    try:
        t0 = time.monotonic()
        for search in (search_circulant, search_bordered_circulant):
            for m in (4, 1):  # order 1 has one candidate row, but an n-by-n one
                with pytest.raises(SearchBudgetExhausted, match="unknown"):
                    search(10**9, m)
        assert time.monotonic() - t0 < 1
        assert tracemalloc.get_traced_memory()[1] < 10**5
    finally:
        tracemalloc.stop()
