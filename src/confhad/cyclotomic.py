"""Exact zero tests for sums of roots of unity.

The m-th cyclotomic polynomial Phi_m is monic, has integer coefficients and is
the minimal polynomial of zeta_m over Q.  So sum_k counts[k] * zeta_m^k is zero
exactly when Phi_m divides sum_k counts[k] * x^k in Z[x]; one exact division by
a monic integer polynomial both builds Phi_m and decides the sum.  This is what
makes conference/Hadamard checks exact rather than floating-point.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd
from typing import Iterable, Sequence


def _divmod_monic(num: Sequence[int], den: Sequence[int]) -> tuple[list[int], list[int]]:
    """Quotient and remainder of integer polynomials (ascending), den monic."""
    rem = list(num)
    dd = len(den) - 1
    terms = [(j, y) for j, y in enumerate(den[:dd]) if y]
    quo = [0] * max(len(rem) - dd, 0)
    for k in range(len(quo) - 1, -1, -1):
        c = quo[k] = rem[k + dd]
        if c:
            for j, y in terms:
                rem[k + j] -= c * y
    return quo, rem[:dd]


@lru_cache(maxsize=None)
def cyclotomic_polynomial(m: int) -> tuple[int, ...]:
    """Ascending coefficients of the m-th cyclotomic polynomial (monic)."""
    if m < 1:
        raise ValueError("order must be positive")
    poly = [-1] + [0] * (m - 1) + [1]  # x^m - 1
    for d in range(1, m):
        if m % d == 0:
            poly, rem = _divmod_monic(poly, cyclotomic_polynomial(d))
            if any(rem):
                raise ArithmeticError("inexact polynomial division")
    return tuple(poly)


def root_sum_is_zero(counts: Sequence[int], m: int) -> bool:
    """Exact test for sum_k counts[k] * zeta_m^k == 0."""
    return not any(_divmod_monic(counts, cyclotomic_polynomial(m))[1])


def minimal_root_order(logs: Iterable[int], m: int) -> int:
    """Smallest m' | m with every zeta_m^k, k in logs, a power of zeta_m'."""
    g = m
    for k in logs:
        g = gcd(g, k % m)
        if g == 1:
            return m
    return m // g
