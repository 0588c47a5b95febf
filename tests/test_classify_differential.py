"""specialize_and_classify against its search-only loop.

The oracle below is the classification loop without sorted-form
certificates: every Hadamard point is fingerprinted and searched against
the representatives of the classes with its fingerprint.  On seeded samples
of O12a-O12h at orders 2, 3 and 4 the certified loop must give the same
classes whenever no search runs out of budget, and under small budgets it
may only place more points in decided classes, never fewer.
"""

from collections import Counter
from functools import lru_cache
import random

import pytest

from confhad import catalog, equivalence
from confhad.equivalence import (
    DEFAULT_BUDGET,
    EquivalenceClass,
    MonomialTransform,
    _certify,
    _fingerprint,
    _search_verdict,
    _sorted_form,
    specialize_and_classify,
)
from confhad.matrices import ButsonMatrix, eval_exact
from confhad.verify import _check_hadamard_butson, _pair_hists

NAMES = [n for n in catalog.names() if n.startswith("O12")]
ORDERS = (2, 3, 4)
POINTS = 16


def oracle(matrix, assignments, order, budget):
    """Fingerprint buckets refined by search alone."""
    found = []
    for asg in assignments:
        M = eval_exact(matrix, asg, order)
        hists = Counter(_pair_hists(M.logs, M.m))
        if not _check_hadamard_butson(M, hists):
            continue
        fp = _fingerprint(M, hists, skip_zeros=False)
        hit_budget = False
        for cls, cls_fp, targets in found:
            if cls_fp != fp:
                continue
            verdict = _search_verdict(M, cls.representative, budget, targets)
            if verdict.equivalent:
                cls.assignments.append(dict(asg))
                break
            if verdict.status == "unknown":
                hit_budget = True
        else:
            found.append((EquivalenceClass(M, [dict(asg)], undecided=hit_budget), fp, {}))
    return [cls for cls, _, _ in found]


def sample(name, order):
    matrix = catalog.build_verified(name)
    symbols = sorted(matrix.symbols())
    rng = random.Random(f"{name}/{order}")
    return matrix, [{s: rng.randrange(order) for s in symbols} for _ in range(POINTS)]


def summary(classes):
    return [
        (c.representative.m, c.representative.logs, c.assignments, c.undecided) for c in classes
    ]


@lru_cache(maxsize=None)
def oracle_summary(name, order, budget):
    matrix, points = sample(name, order)
    return summary(oracle(matrix, points, order, budget))


def members(assignments):
    return Counter(tuple(sorted(a.items())) for a in assignments)


CASES = [(name, order) for name in NAMES for order in ORDERS]


@pytest.mark.parametrize("budget", [DEFAULT_BUDGET, 300])
@pytest.mark.parametrize("name,order", CASES)
def test_same_classes_as_the_search_only_loop(name, order, budget):
    matrix, points = sample(name, order)
    got = summary(specialize_and_classify(matrix, points, order, budget))
    assert got == oracle_summary(name, order, budget)


@pytest.mark.parametrize("budget", [5, 30])
@pytest.mark.parametrize("name,order", CASES)
def test_small_budgets_only_place_more_points(name, order, budget):
    matrix, points = sample(name, order)
    got = summary(specialize_and_classify(matrix, points, order, budget))
    want = oracle_summary(name, order, budget)
    decided = {
        (m, str(logs)): members(asg) for m, logs, asg, undecided in got if not undecided
    }
    for m, logs, asg, undecided in want:
        if not undecided:
            # the same representative, decided, with a superset of members
            assert not members(asg) - decided[m, str(logs)]
    loose = lambda classes: sum((members(a) for _, _, a, u in classes if u), Counter())
    assert not loose(got) - loose(want)


@pytest.mark.parametrize("name,order", CASES)
def test_the_witness_not_the_key_places_a_point(name, order, monkeypatch):
    """Every point's form collides with every earlier one; only those whose
    ``maps``-checked witness holds may skip the search, so the classes stay
    the oracle's."""
    matrix, points = sample(name, order)
    monkeypatch.setattr(
        equivalence, "_sorted_form", lambda M: ((), list(range(M.n)), list(range(M.n)))
    )
    got = summary(specialize_and_classify(matrix, points, order))
    assert got == oracle_summary(name, order, DEFAULT_BUDGET)


@pytest.mark.parametrize("name", NAMES)
def test_certificates_place_the_sign_points(name, monkeypatch):
    """Sign points differ mostly by row and column negations, which leave
    the form about (0, 0) alone, so nearly all skip the search."""
    matrix = catalog.build_verified(name)
    symbols = sorted(matrix.symbols())
    points = [{s: (bits >> k) & 1 for k, s in enumerate(symbols)} for bits in range(2 ** len(symbols))]
    searches = []
    search = equivalence._search_verdict
    monkeypatch.setattr(
        equivalence, "_search_verdict", lambda *args: searches.append(1) or search(*args)
    )
    classes = specialize_and_classify(matrix, points, 2)
    assert [c.size for c in classes] == [len(points)]
    assert len(searches) <= 3


def test_equal_forms_give_a_verified_witness():
    """Images of random matrices under diagonals and permutations fixing
    row and column 0: a row permutation alone keeps the form, and whenever
    the forms agree ``_certify`` returns a witness that ``maps``."""
    rng = random.Random(18)
    certified = moved = 0
    for _ in range(600):
        n, m = rng.randint(2, 6), rng.randint(1, 4)
        A = ButsonMatrix(m, [[rng.randrange(m) for _ in range(n)] for _ in range(n)])
        rows = (0, *rng.sample(range(1, n), n - 1))
        cols = (0, *rng.sample(range(1, n), n - 1))
        diagonals = [tuple(rng.randrange(m) for _ in range(n)) for _ in range(2)]
        for col_perm in (tuple(range(n)), cols):
            B = MonomialTransform(m, rows, col_perm, *diagonals).apply(A)
            a_form, b_form = _sorted_form(A), _sorted_form(B)
            if col_perm == tuple(range(n)):
                assert a_form[0] == b_form[0]
            if a_form[0] != b_form[0]:
                continue
            witness = _certify(A, a_form, B, b_form)
            assert witness is not None and witness.maps(A, B)
            certified += 1
            perm = witness.col_perm
            moved += any(perm[perm[j]] != j for j in range(n))  # not an involution
    assert certified > 600 and moved > 20
