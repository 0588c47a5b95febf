"""Differential tests: the histogram kernel behind ``fingerprint`` against the
straightforward O(n^4) loop it replaced.

The oracle below visits every ordered row pair i != k and column pair j != l,
counts the quadruple value M[i][j] + M[k][l] - M[i][l] - M[k][j] (logs), and
skips (with ``skip_zeros``) the quadruples that touch a zero cell.  The
kernel must return the same counts and the same number of skipped
quadruples, and ``fingerprint`` must report that number, whatever the zero
pattern.  The kernel reads the multiset from ``_pair_counts``, which also
gives ``fingerprint`` its row keys; on the points of the families
``specialize_and_classify`` classifies that multiset must be the
``Counter`` of ``_pair_hists``.
"""

import random
from collections import Counter

from confhad import catalog
from confhad.equivalence import (
    MonomialTransform,
    _diff_hist,
    _pair_counts,
    _quadruple_counts,
    fingerprint,
)
from confhad.matrices import (
    ButsonMatrix,
    bordered_circulant,
    double_orthogonal,
    eval_exact,
    to_butson,
)
from confhad.symbolic import Monomial
from confhad.verify import _pair_hists


def old_quadruple_counts(M, skip_zeros):
    n, m, logs = M.n, M.m, M.logs
    counts = Counter()
    skipped = 0
    for i in range(n):
        row_i = logs[i]
        for k in range(n):
            if k == i:
                continue
            row_k = logs[k]
            for j in range(n):
                aij = row_i[j]
                akj = row_k[j]
                for l in range(n):
                    if l == j:
                        continue
                    ail = row_i[l]
                    akl = row_k[l]
                    if aij is None or akl is None or ail is None or akj is None:
                        if not skip_zeros:
                            raise ValueError("zero cell in Hadamard fingerprint")
                        skipped += 1
                        continue
                    counts[(aij + akl - ail - akj) % m] += 1
    return dict(counts), skipped


def kernel(M):
    return _quadruple_counts(M, Counter(_pair_hists(M.logs, M.m)))


def assert_kernel_agrees(M):
    """Returns whether some quadruple touches a zero cell."""
    want = old_quadruple_counts(M, skip_zeros=True)
    assert kernel(M) == want and fingerprint(M).zeros == want[1]
    return want[1] > 0


def assert_shared_multiset_agrees(M):
    """``fingerprint`` reads ``_pair_counts``: the ``Counter`` of
    ``_pair_hists``, in the same key order, and the row keys it carries."""
    shared, row_keys = _pair_counts(M)
    streamed = Counter(_pair_hists(M.logs, M.m))
    assert shared == streamed and list(shared) == list(streamed)
    assert fingerprint(M).row_keys == row_keys


def catalog_butson():
    """Every catalog entry with a Butson form: printed, verified and derived."""
    out = []
    for name in catalog.names():
        if catalog.kind(name) in ("exponent", "family"):
            continue
        candidates = [catalog.build(name), catalog.build_verified(name)]
        if catalog.recipe_text(name) is not None:
            candidates.append(catalog.derive(name))
        out += [to_butson(c) for c in candidates if c.is_constant]
    return out


def image(M, rng):
    """A seeded monomial image over a multiple of the matrix's root order;
    independent row and column permutations move a zero diagonal off it."""
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


def legendre(a, q):
    return 1 if pow(a % q, (q - 1) // 2, q) == 1 else -1


def paley_core(q):
    row = [None] + [Monomial(0 if legendre(k, q) == 1 else 2) for k in range(1, q)]
    return bordered_circulant(row)


def test_kernel_matches_old_loop_on_catalog():
    raised = [assert_kernel_agrees(M) for M in catalog_butson()]
    assert True in raised and False in raised


def test_kernel_matches_old_loop_on_images():
    rng = random.Random(4127)
    for M in catalog_butson():
        for _ in range(2):
            assert_kernel_agrees(image(M, rng))


def test_kernel_matches_old_loop_on_order4_points():
    rng = random.Random(912)
    for name in ("O12a", "O12d", "O12h"):  # the families classify12 classifies
        matrix = catalog.build_verified(name)
        symbols = sorted(matrix.symbols())
        for _ in range(4):
            point = {s: rng.randrange(4) for s in symbols}
            assert_kernel_agrees(eval_exact(matrix, point, 4))
        for order, count in ((2, 8), (4, 24)):
            for _ in range(count):
                point = {s: rng.randrange(order) for s in symbols}
                assert_shared_multiset_agrees(eval_exact(matrix, point, order))


def test_kernel_matches_old_loop_on_paley():
    for q in (5, 13, 17, 29):
        core = paley_core(q)
        assert assert_kernel_agrees(to_butson(core))
        if 2 * core.n <= 30:
            assert not assert_kernel_agrees(to_butson(double_orthogonal(core)))


def test_kernel_matches_old_loop_on_scattered_zeros():
    # zero sets that are no permutation pattern: rows with several zeros or none
    rng = random.Random(58)
    for n in (1, 2, 3, 5, 8):
        for m in (1, 2, 3, 4, 6):
            logs = [[None if rng.random() < 0.2 else rng.randrange(m) for _ in range(n)] for _ in range(n)]
            assert_kernel_agrees(ButsonMatrix(m, logs))


def test_kernel_matches_old_loop_at_large_orders():
    # far more values than cells: the lags of the packed product fold mod m
    rng = random.Random(1021)
    for m in (97, 1021):
        for n in (1, 2, 5, 9):
            logs = [[rng.randrange(m) for _ in range(n)] for _ in range(n)]
            assert not assert_kernel_agrees(ButsonMatrix(m, logs))
            for i, j in enumerate(rng.sample(range(n), n)):  # a permutation pattern of zeros
                logs[i][j] = None
            assert assert_kernel_agrees(ButsonMatrix(m, logs)) == (n > 1)


def test_zero_cell_in_a_histogram_shared_by_several_pairs():
    # row 0's zero gives the pairs (0, 1), (0, 2), (0, 3) one histogram of
    # three values, the only one short of n
    M = ButsonMatrix(2, [[None, 0, 1, 1], [0, 1, 1, 1], [0, 0, 0, 1], [1, 0, 1, 0]])
    assert len({_diff_hist(M.logs[0], M.logs[k], M.m) for k in (1, 2, 3)}) == 1
    assert assert_kernel_agrees(M)
