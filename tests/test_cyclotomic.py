import cmath
import random

import pytest

from confhad.cyclotomic import (
    cyclotomic_polynomial,
    minimal_root_order,
    root_sum_is_zero,
)
from confhad.matrices import ButsonMatrix

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
    assert abs(lifted.to_complex().rows[0][0] - z.to_complex().rows[0][0]) < 1e-12
    with pytest.raises(ValueError):
        z.lift(8)


def test_minimal_root_order():
    assert minimal_root_order([0, 2], 4) == 2
    assert minimal_root_order([0, 1], 4) == 4
    assert minimal_root_order([], 12) == 1
    assert minimal_root_order([4, 8], 12) == 3


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
