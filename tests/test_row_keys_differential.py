"""Differential tests: the row keys of ``_pair_counts`` against their
definition.

The key of row r is, over the other rows u, the sorted counts of the values
(M[r][v] - M[u][v]) % m over the columns v where both cells are nonzero,
and those tuples sorted.  ``oracle_row_keys`` writes that out.  The keys
must equal it on catalog, Paley and seeded random matrices, with and
without zero cells and at large orders, and the ``Counter`` that comes with
them must be the one ``_pair_hists`` streams.  They must not change under
seeded monomial images (a row's key goes with the row), under lifts, or
under a 4th-root diagonal scaling of a +-1 matrix.  ``has_witness`` tries
every row and column permutation and every row diagonal: no pair whose key
multisets differ may have a witness, and ``_search_verdict`` must end such
a pair without a node.
"""

import random
from collections import Counter
from itertools import permutations, product
from math import lcm

from confhad.equivalence import MonomialTransform, _pair_counts, _search_verdict
from confhad.matrices import ButsonMatrix, bordered_circulant, double_orthogonal, to_butson
from confhad.symbolic import Monomial
from confhad.verify import _pair_hists

from helpers import butson


def oracle_row_keys(M):
    m, la = M.m, M.logs
    keys = []
    for r in range(M.n):
        pair_keys = []
        for u in range(M.n):
            if u == r:
                continue
            diffs = [(a - b) % m for a, b in zip(la[r], la[u]) if a is not None and b is not None]
            pair_keys.append(tuple(sorted(diffs.count(x) for x in set(diffs))))
        keys.append(tuple(sorted(pair_keys)))
    return keys


def assert_keys_agree(M):
    pairs, keys = _pair_counts(M)
    assert list(keys) == oracle_row_keys(M)
    streamed = Counter(_pair_hists(M.logs, M.m))
    assert pairs == streamed and list(pairs) == list(streamed)
    return keys


def paley_core(q, double=False):
    squares = {k * k % q for k in range(1, q)}
    core = bordered_circulant([None] + [Monomial(0 if k in squares else 2) for k in range(1, q)])
    return to_butson(double_orthogonal(core) if double else core)


def random_matrix(n, m, zeros, rng):
    """Random logs with no zero cell, zeros in a permutation pattern, or
    zeros anywhere."""
    perm = rng.sample(range(n), n)
    logs = [[rng.randrange(m) for _ in range(n)] for _ in range(n)]
    for i in range(n):
        if zeros == "permutation":
            logs[i][perm[i]] = None
        elif zeros == "arbitrary":
            logs[i] = [None if rng.random() < 0.3 else a for a in logs[i]]
    return ButsonMatrix(m, logs)


def random_transform(n, m, rng):
    return MonomialTransform(
        m,
        tuple(rng.sample(range(n), n)),
        tuple(rng.sample(range(n), n)),
        tuple(rng.randrange(m) for _ in range(n)),
        tuple(rng.randrange(m) for _ in range(n)),
    )


def test_keys_match_the_definition_on_catalog_and_paley():
    sources = [butson(kind + x) for kind in ("H12", "C6") for x in "abcdefg"]
    sources += [paley_core(q) for q in (5, 13, 17)] + [paley_core(q, double=True) for q in (5, 13)]
    for M in sources:
        keys = assert_keys_agree(M)
        assert len(set(keys)) == 1  # each of these gives every row one key


def test_keys_match_the_definition_on_random_matrices():
    rng = random.Random(2207)
    for m in (1, 2, 3, 4, 6, 12, 1021):
        for n in (1, 2, 3, 5, 9):
            for zeros in ("none", "permutation", "arbitrary"):
                assert_keys_agree(random_matrix(n, m, zeros, rng))


def test_keys_follow_their_rows_under_monomial_images():
    rng = random.Random(2209)
    sources = [butson(kind + x) for kind in ("H12", "C6") for x in "adf"]
    sources += [paley_core(13), paley_core(5, double=True)]
    sources += [random_matrix(rng.randint(2, 7), rng.randint(1, 6), zeros, rng) for zeros in ("none", "permutation") * 20]
    for M in sources:
        keys = _pair_counts(M)[1]
        big = M.m * rng.choice((1, 2, 3))
        t = random_transform(M.n, big, rng)
        image_keys = _pair_counts(t.apply(M))[1]
        assert [keys[t.row_perm[i]] for i in range(M.n)] == list(image_keys)


def test_keys_do_not_change_under_lifts():
    rng = random.Random(2213)
    sources = [butson("H12d"), butson("C6f"), paley_core(13)]
    sources += [random_matrix(rng.randint(2, 7), m, "permutation", rng) for m in (2, 3, 4, 5)]
    for M in sources:
        keys = _pair_counts(M)[1]
        for factor in (2, 3, 7, 1019):  # 7 and 1019 are coprime to every order above
            assert _pair_counts(M.lift(M.m * factor))[1] == keys


def test_plus_minus_one_and_its_fourth_root_scaling_share_keys():
    rng = random.Random(2221)
    for H in (butson("H12a"), paley_core(5, double=True), random_matrix(6, 2, "none", rng)):
        assert H.m == 2
        same = tuple(range(H.n))
        rows, cols = (tuple(rng.randrange(4) for _ in same) for _ in range(2))
        image = MonomialTransform(4, same, same, rows, cols).apply(H)
        assert image.m == 4 and image != H.lift(4)
        assert _pair_counts(image)[1] == _pair_counts(H)[1]


def has_witness(A, B):
    """Whether B = D1 P1 A P2 D2 for some permutations and diagonals over
    lcm(A.m, B.m): every row and column permutation, every row diagonal with
    its first entry 0 (a witness stays one when both diagonals are shifted
    by opposite amounts), and then each column's diagonal entry must be one
    value over the column's nonzero cells."""
    m = lcm(A.m, B.m)
    A, B = A.lift(m), B.lift(m)
    n, la, lb = A.n, A.logs, B.logs
    for sigma in permutations(range(n)):
        for tau in permutations(range(n)):
            if any((lb[i][j] is None) != (la[sigma[i]][tau[j]] is None) for i in range(n) for j in range(n)):
                continue
            for rest in product(range(m), repeat=n - 1):
                rd = (0,) + rest
                if all(
                    len({(lb[i][j] - la[sigma[i]][tau[j]] - rd[i]) % m for i in range(n) if lb[i][j] is not None}) <= 1
                    for j in range(n)
                ):
                    return True
    return False


def test_pairs_with_differing_key_multisets_have_no_witness():
    rng = random.Random(2237)
    parted = images = 0
    for _ in range(300):
        n = rng.randint(2, 4)
        m = rng.randint(1, 4) if n < 4 else rng.randint(1, 3)
        zeros = rng.choice(("none", "permutation"))
        A = random_matrix(n, m, zeros, rng)
        for B in (random_matrix(n, m, zeros, rng), random_transform(n, m, rng).apply(A)):
            a_keys, b_keys = _pair_counts(A)[1], _pair_counts(B)[1]
            if sorted(a_keys) == sorted(b_keys):
                images += has_witness(A, B)
                continue
            assert not has_witness(A, B)
            verdict = _search_verdict(A, a_keys, B, b_keys, 10**6, {})
            assert (verdict.status, verdict.reason, verdict.nodes) == ("inequivalent", "exhausted search", 0)
            parted += 1
    five = 0
    for _ in range(3):
        A, B = random_matrix(5, 2, "none", rng), random_matrix(5, 2, "none", rng)
        if sorted(_pair_counts(A)[1]) != sorted(_pair_counts(B)[1]):
            assert not has_witness(A, B)
            five += 1
    assert parted > 50 and five > 0 and images >= 300
