"""The depth-first circulant searches against the brute-force product loop
they replaced, which checks every candidate row with the full conference
predicate.

Cases are every (n, m, kind) with m <= 6 whose candidate space (m^free rows,
order 1 counted as 2) has at most 8,192 rows: both catalog searches, n = 2
(a bordered row has no free cell, a circulant row one), m = 1, odd m, where
-1 is not an m-th root, and m = 5, where the search makes no cut.  The search
re-verifies every hit, so a cut that is too loose could not show in its
output; the cut is therefore also held to the oracle's hits prefix by prefix.
"""

from functools import lru_cache
from itertools import product

from confhad.search import (
    _Partials,
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


def test_cut_keeps_every_hit():
    # the cut is exact: every hit passes it at every depth of its own prefix,
    # and for m | 4 or m | 6 a full row with c1 = 0 (the search's rows)
    # passes it exactly when it is a hit
    for n, m, bordered in CASES:
        k = n - 1 if bordered else n
        hits = set(brute_force(n, m, bordered))
        rows = [row for row in _candidates(n, m, bordered) if row[1:2] == (0,)] if 12 % m == 0 else []
        for row in hits.union(rows):
            partials = _Partials(k, m, bordered)
            passes = all(partials.push(d, row[d]) for d in range(1, k))
            assert passes == (row in hits), (n, m, bordered, row)


def test_order_two_rows():
    for m in range(1, 7):
        assert search_bordered_circulant(2, m) == [(None,)]
        assert search_circulant(2, m) == [(None, t) for t in range(m)]
