"""specialize_and_classify against its search-only loop.

The oracle below is the classification loop without sorted-form
certificates: every Hadamard point is fingerprinted and searched against
the representatives of the classes with its fingerprint.  On seeded samples
of O12a-O12h at orders 2, 3 and 4 the certified loop must give the same
classes whenever no search runs out of budget, and under small budgets it
may only place more points in decided classes, never fewer.  The oracle
drops points that fail ``check_hadamard``; the classifier keeps every point,
because a unimodular point of an inverse orthogonal matrix is Hadamard, so
equal classes also show that it kept no point the oracle dropped.
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
    _search_verdict,
    _sorted_form,
    fingerprint,
    specialize_and_classify,
)
from confhad.matrices import ButsonMatrix, eval_exact
from confhad.verify import check_hadamard, check_inverse_orthogonal

NAMES = [n for n in catalog.names() if n.startswith("O12")]
ORDERS = (2, 3, 4)
POINTS = 16
THEOREM_POINTS = 64  # per family and order


def oracle(matrix, assignments, order, budget):
    """Fingerprint buckets refined by search alone."""
    found = []
    for asg in assignments:
        M = eval_exact(matrix, asg, order)
        if not check_hadamard(M):
            continue
        fp = fingerprint(M)
        hit_budget = False
        for cls, cls_fp, targets in found:
            if cls_fp != fp:
                continue
            verdict = _search_verdict(M, fp.row_keys, cls.representative, cls_fp.row_keys, budget, targets)
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


@pytest.mark.parametrize("name,order", CASES)
def test_a_certified_point_that_is_not_hadamard_is_dropped(name, order, monkeypatch):
    """One point is evaluated with one cell moved, so it is not Hadamard.
    Its form collides with every earlier one, but no monomial image of a
    recorded Hadamard point matches it cell by cell: it must reach the
    search, which finds it equivalent to no Hadamard point, so it is dropped
    from every class of them and stands alone, and every other point is
    classified as before."""
    matrix, points = sample(name, order)
    chosen = POINTS // 2
    calls = []
    evaluate = equivalence.eval_exact

    def corrupt_one(*args):
        M = evaluate(*args)
        calls.append(1)
        if len(calls) - 1 != chosen:
            return M
        logs = [list(row) for row in M.logs]
        logs[3][5] += 1
        return ButsonMatrix(M.m, logs)

    monkeypatch.setattr(equivalence, "eval_exact", corrupt_one)
    monkeypatch.setattr(
        equivalence, "_sorted_form", lambda M: ((), list(range(M.n)), list(range(M.n)))
    )
    got = summary(specialize_and_classify(matrix, points, order))
    alone = [c for c in got if not check_hadamard(ButsonMatrix(*c[:2]))]
    assert len(alone) == 1 and alone[0][2:] == ([points[chosen]], False)
    rest = points[:chosen] + points[chosen + 1 :]
    assert [c for c in got if c is not alone[0]] == summary(oracle(matrix, rest, order, DEFAULT_BUDGET))


@pytest.mark.parametrize("name,order", CASES)
def test_every_classified_point_is_hadamard(name, order):
    """Certified points skip the Gram check; re-evaluated apart from the
    classifier, each member of each class passes ``check_hadamard``."""
    matrix, points = sample(name, order)
    classes = specialize_and_classify(matrix, points, order)
    assert sum(c.size for c in classes) == POINTS
    for cls in classes:
        for asg in cls.assignments:
            assert check_hadamard(eval_exact(matrix, asg, order))


@pytest.mark.parametrize("name", NAMES)
def test_every_root_of_unity_point_is_hadamard(name):
    """The fact ``specialize_and_classify`` rests on instead of a check per
    point: once ``check_inverse_orthogonal`` passes, every point of the
    family at roots of unity is Hadamard."""
    matrix = catalog.build_verified(name)
    assert check_inverse_orthogonal(matrix)
    symbols = sorted(matrix.symbols())
    rng = random.Random(f"theorem/{name}")
    for order in (1, 2, 3, 4, 6, 12):
        for _ in range(THEOREM_POINTS):
            point = {s: rng.randrange(order) for s in symbols}
            assert check_hadamard(eval_exact(matrix, point, order)), (order, point)


def sign_points(matrix):
    symbols = sorted(matrix.symbols())
    return [{s: (bits >> k) & 1 for k, s in enumerate(symbols)} for bits in range(2 ** len(symbols))]


@pytest.mark.parametrize("name", NAMES)
def test_certificates_place_the_sign_points(name, monkeypatch):
    """Sign points differ mostly by row and column negations, which leave
    the form about (0, 0) alone, so nearly all skip the search."""
    matrix = catalog.build_verified(name)
    points = sign_points(matrix)
    searches = []
    search = equivalence._search_verdict
    monkeypatch.setattr(
        equivalence, "_search_verdict", lambda *args: searches.append(1) or search(*args)
    )
    classes = specialize_and_classify(matrix, points, 2)
    assert [c.size for c in classes] == [len(points)]
    assert len(searches) <= 3


@pytest.mark.parametrize("name", NAMES)
def test_certified_sign_points_build_no_histograms(name, monkeypatch):
    """Only a point that no certificate places builds its row-pair
    histograms for the Gram check and the fingerprint."""
    matrix = catalog.build_verified(name)
    points = sign_points(matrix)
    builds = []
    pair_hists = equivalence._pair_hists
    monkeypatch.setattr(
        equivalence, "_pair_hists", lambda *args: builds.append(1) or pair_hists(*args)
    )
    classes = specialize_and_classify(matrix, points, 2)
    assert [c.size for c in classes] == [len(points)]
    assert len(builds) <= 4


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


def oracle_row_keys(M):
    """Each row's key from its definition: over the other rows, the sorted
    counts of the differences of the two rows' nonzero cells, sorted."""
    return Counter(
        tuple(
            sorted(
                tuple(sorted(Counter((a - b) % M.m for a, b in zip(row, other) if None not in (a, b)).values()))
                for u, other in enumerate(M.logs)
                if u != r
            )
        )
        for r, row in enumerate(M.logs)
    )


@pytest.mark.parametrize("name", ["O12d", "O12h"])
def test_searches_with_differing_row_keys_try_no_anchor(name, monkeypatch):
    """A pair whose two matrices' row-key multisets differ is settled by the
    key comparison: inequivalent by an exhausted search of 0 nodes, with no
    ``_Target`` built and no ``_search`` run.  The classes stay the
    search-only oracle's."""
    matrix, points = sample(name, 4)
    want = oracle_summary(name, 4, DEFAULT_BUDGET)
    verdict_of, make_target, search = equivalence._search_verdict, equivalence._Target, equivalence._search
    calls, parted = [], []

    def watched(a, a_keys, b, b_keys, budget, targets):
        before = len(calls)
        verdict = verdict_of(a, a_keys, b, b_keys, budget, targets)
        if oracle_row_keys(a) != oracle_row_keys(b):
            parted.append((verdict.status, verdict.reason, verdict.nodes, len(calls) - before))
        return verdict

    monkeypatch.setattr(equivalence, "_Target", lambda *args: calls.append("target") or make_target(*args))
    monkeypatch.setattr(equivalence, "_search", lambda *args: calls.append("search") or search(*args))
    monkeypatch.setattr(equivalence, "_search_verdict", watched)
    got = summary(specialize_and_classify(matrix, points, 4))
    assert parted and set(parted) == {("inequivalent", "exhausted search", 0, 0)}
    assert "search" in calls  # the other pairs still search
    assert got == want
