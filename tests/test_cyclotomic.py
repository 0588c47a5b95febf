import cmath
from functools import lru_cache
from math import gcd
import random
import tracemalloc

import pytest

from confhad.cyclotomic import cyclotomic_polynomial, root_sum_is_zero
from confhad.matrices import ButsonMatrix

from helpers import to_complex

KNOWN_POLYS = {
    1: (-1, 1),
    2: (1, 1),
    3: (1, 1, 1),
    4: (1, 0, 1),
    6: (1, -1, 1),
    12: (1, 0, -1, 0, 1),
}


@pytest.mark.parametrize("m,coeffs", sorted(KNOWN_POLYS.items()))
def test_cyclotomic_polynomials_match_tables(m, coeffs):
    assert cyclotomic_polynomial(m) == coeffs


def test_euler_phi():
    # the m-th cyclotomic polynomial has degree phi(m)
    degrees = [len(cyclotomic_polynomial(m)) - 1 for m in (1, 2, 3, 4, 6, 8, 12)]
    assert degrees == [1, 1, 2, 2, 2, 4, 4]


def test_fourth_root_arithmetic():
    # i*i == -1, so i^2 + 1 vanishes while i + 1 does not
    assert root_sum_is_zero([1, 0, 1, 0], 4)
    assert not root_sum_is_zero([1, 1, 0, 0], 4)


def test_second_order_cancellation():
    assert root_sum_is_zero([1, 1], 2)
    assert not root_sum_is_zero([2, 0], 2)


def test_vanishing_sums():
    assert root_sum_is_zero([1, 1, 1], 3)
    assert root_sum_is_zero([1, 1, 1, 1], 4)
    assert not root_sum_is_zero([2, 1, 1], 3)
    # zeta12^4 - zeta12^2 + 1 = 0 (the minimal polynomial relation)
    counts = [0] * 12
    counts[4], counts[2], counts[0] = 1, -1, 1
    assert root_sum_is_zero(counts, 12)


def test_lift_preserves_value():
    z = ButsonMatrix(3, [[1]])
    lifted = z.lift(12)
    assert lifted == ButsonMatrix(12, [[4]])
    assert abs(to_complex(lifted).rows[0][0] - to_complex(z).rows[0][0]) < 1e-12
    with pytest.raises(ValueError):
        z.lift(8)


def test_minimal_root_order():
    assert ButsonMatrix(4, [[0, 2], [2, None]]).reduce_order() == ButsonMatrix(2, [[0, 1], [1, None]])
    assert ButsonMatrix(4, [[0, 1], [1, None]]).reduce_order().m == 4
    assert ButsonMatrix(12, [[None]]).reduce_order() == ButsonMatrix(1, [[None]])
    assert ButsonMatrix(12, [[4, 8], [8, 4]]).reduce_order() == ButsonMatrix(3, [[1, 2], [2, 1]])


def _minimal_root_order(logs, m):
    """The order loop ``reduce_order`` replaced, kept as its oracle."""
    g = m
    for k in logs:
        g = gcd(g, k % m)
        if g == 1:
            return m
    return m // g


def test_reduce_order_matches_the_order_loop():
    rng = random.Random(20240809)
    for m in range(1, 1025):  # every prime and prime power up to 1024 among them
        divisors = [d for d in range(1, m + 1) if m % d == 0]
        # all-zero, all-ones and already minimal, then seeded cells on a divisor's multiples
        cases = [[[None] * 2] * 2, [[0] * 3] * 3, [[1, None], [0, m - 1]]]
        for _ in range(3):
            d, n = rng.choice(divisors), rng.randint(1, 4)
            cells = [None if rng.random() < 0.2 else d * rng.randrange(m // d) for _ in range(n * n)]
            cases.append([cells[i : i + n] for i in range(0, n * n, n)])
        for logs in cases:
            M = ButsonMatrix(m, logs)
            small = _minimal_root_order([c for row in M.logs for c in row if c is not None], m)
            step = m // small
            R = M.reduce_order()
            assert R.m == small, (m, logs)
            assert R.logs == tuple(tuple(None if c is None else c // step for c in row) for row in M.logs)
            assert (R is M) == (small == m)


def test_equality_agrees_with_floats():
    rng = random.Random(20240809)
    seen = set()
    for m in (1, 2, 3, 4, 6, 12):
        z = cmath.exp(2j * cmath.pi / m)
        # zeta^r times the sum of the d-th roots vanishes for each divisor d > 1
        cosets = [
            [int(k % (m // d) == r) for k in range(m)]
            for d in range(2, m + 1)
            if m % d == 0
            for r in range(m // d)
        ]
        for _ in range(60):
            counts = [0] * m
            for coset in rng.sample(cosets, min(len(cosets), rng.randint(0, 3))):
                scale = rng.choice((-2, -1, 1, 2))
                counts = [c + scale * x for c, x in zip(counts, coset)]
            if rng.random() < 0.5:
                counts[rng.randrange(m)] += rng.choice((-1, 1))
            exact = root_sum_is_zero(counts, m)
            floats = abs(sum(c * z**k for k, c in enumerate(counts))) < 1e-9
            assert exact == floats, (m, counts)
            seen.add(exact)
    assert seen == {True, False}


# The zero test as it was before one division did it: Phi_m by exact
# division, then an m x phi(m) table of the power-basis coordinates of
# zeta_m^k, summed with the counts.


def old_divexact(num, den):
    num = list(num)
    dd = len(den) - 1
    out = [0] * (len(num) - dd)
    for k in range(len(out) - 1, -1, -1):
        c = out[k] = num[k + dd]
        if c:
            for j, y in enumerate(den):
                num[k + j] -= c * y
    assert not any(num)
    return out


@lru_cache(maxsize=None)
def old_cyclotomic_polynomial(m):
    if m == 1:
        return (-1, 1)
    poly = [-1] + [0] * (m - 1) + [1]
    for d in range(1, m):
        if m % d == 0:
            poly = old_divexact(poly, old_cyclotomic_polynomial(d))
    return tuple(poly)


@lru_cache(maxsize=None)
def old_tables(m):
    phi_poly = old_cyclotomic_polynomial(m)
    phi = len(phi_poly) - 1
    top = [-c for c in phi_poly[:phi]]
    rows, cur = [], [1] + [0] * (phi - 1)
    for _ in range(m):
        rows.append(tuple(cur))
        lead = cur[phi - 1]
        cur = [0] + cur[: phi - 1]
        if lead:
            cur = [x + lead * y for x, y in zip(cur, top)]
    return phi, rows


def old_root_sum_is_zero(counts, m):
    phi, rows = old_tables(m)
    acc = [0] * phi
    for k, c in enumerate(counts):
        if c:
            acc = [a + c * x for a, x in zip(acc, rows[k])]
    return not any(acc)


def test_one_division_matches_the_table_of_powers():
    rng = random.Random(4099)
    for m in range(1, 129):
        assert cyclotomic_polynomial(m) == old_cyclotomic_polynomial(m)
        # zeta^r times the sum of the d-th roots vanishes for each divisor d > 1
        cosets = [
            [int(k % (m // d) == r) for k in range(m)]
            for d in range(2, m + 1)
            if m % d == 0
            for r in range(m // d)
        ]
        seen = set()
        for _ in range(40):
            counts = [0] * m
            for coset in rng.sample(cosets, min(len(cosets), rng.randint(0, 4))):
                scale = rng.choice((-2, -1, 1, 2))
                counts = [c + scale * x for c, x in zip(counts, coset)]
            for _ in range(rng.choice((0, 0, 1, 2))):
                counts[rng.randrange(m)] += rng.choice((-1, 1))
            want = old_root_sum_is_zero(counts, m)
            assert root_sum_is_zero(counts, m) == want, (m, counts)
            while counts and not counts[-1]:  # shorter than phi(m) is allowed too
                counts.pop()
            assert root_sum_is_zero(counts, m) == want
            seen.add(want)
        if len(cosets) > 1:  # m composite
            assert seen == {True, False}, m


def test_zero_test_at_a_high_order_keeps_little_memory():
    cyclotomic_polynomial.cache_clear()
    counts = [1] * 1021
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        assert root_sum_is_zero(counts, 1021)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained < 1 << 20
