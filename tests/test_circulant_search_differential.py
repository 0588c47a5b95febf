"""The filtered circulant searches against the brute-force product loop they
replaced, which checks every candidate row with the full conference predicate.

Cases are every (n, m, kind) with m <= 6 whose candidate space, counted as
the search's cap counts it (m^free, order 1 as 2), has at most 8,192 rows:
both catalog searches, n = 2 (a bordered row has no free cell, a circulant
row one), m = 1, and odd m, where -1 is not an m-th root.  The search
re-verifies every hit, so a filter that is too loose could not show in its
output; the filter is therefore also compared with the oracle row by row.
"""

from functools import lru_cache
from itertools import product

from confhad.search import (
    _shift_filter,
    bordered_matrix,
    circulant_matrix,
    search_bordered_circulant,
    search_circulant,
)
from confhad.verify import check_conference

CASES = [
    (n, m, bordered)
    for m in range(1, 7)
    for bordered in (False, True)
    for n in range(2, 16)
    if max(m, 2) ** (n - 1 - bordered) <= 8192
]


def _candidates(n, m, bordered):
    free = n - 2 if bordered else n - 1
    return [(None, *tail) for tail in product(range(m), repeat=free)]


@lru_cache(maxsize=None)
def brute_force(n, m, bordered):
    """The old search: every row whose matrix passes check_conference, in
    product (that is, sorted) order."""
    matrix = bordered_matrix if bordered else circulant_matrix
    return tuple(row for row in _candidates(n, m, bordered) if check_conference(matrix(row, m)))


def test_cases_cover_the_edges():
    assert len(CASES) == 106
    assert {(n, m, b) for n, m, b in CASES} >= {(6, 6, False), (8, 4, True), (6, 4, True)}
    assert all((2, m, b) in CASES for m in range(1, 7) for b in (False, True))
    odd_hits = [case for case in CASES if case[1] in (3, 5) and case[0] > 2 and brute_force(*case)]
    assert odd_hits  # odd m is exercised by a nonempty search, not only empty ones


def test_search_matches_brute_force():
    wrong = []
    for n, m, bordered in CASES:
        search = search_bordered_circulant if bordered else search_circulant
        if tuple(search(n, m)) != brute_force(n, m, bordered):
            wrong.append((n, m, bordered))
    assert wrong == []


def test_filters_are_exact():
    for n, m, bordered in CASES:
        hits = set(brute_force(n, m, bordered))
        passes = _shift_filter(n - 1 if bordered else n, m, bordered)
        candidates = _candidates(n, m, bordered)
        wrong = [row for row in candidates if passes(row) != (row in hits)]
        assert wrong == [], (n, m, bordered)
        # the rows with c1 = 0 that pass, expanded by scaling, are all the hits
        expanded = {
            tuple(None if c is None else (c + t) % m for c in row)
            for row in candidates
            if (len(row) == 1 or row[1] == 0) and passes(row)
            for t in range(m)
        }
        assert expanded == hits, (n, m, bordered)


def test_order_two_rows():
    for m in range(1, 7):
        assert search_bordered_circulant(2, m) == [(None,)]
        assert search_circulant(2, m) == [(None, t) for t in range(m)]
