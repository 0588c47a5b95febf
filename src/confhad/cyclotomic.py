"""Exact zero tests for sums of roots of unity.

A sum sum_k counts[k] * zeta_m^k is reduced to integer coordinates in the
power basis 1, z, ..., z^(phi-1) modulo the m-th cyclotomic polynomial; the
sum is zero exactly when its reduced vector vanishes.  This is what makes
conference/Hadamard checks exact rather than floating-point.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd
from typing import Iterable, Sequence


def _poly_divexact(num: Sequence[int], den: Sequence[int]) -> list[int]:
    """Exact division of integer polynomials, denominator monic."""
    num = list(num)
    dd = len(den) - 1
    out = [0] * (len(num) - dd)
    for k in range(len(out) - 1, -1, -1):
        c = num[k + dd]
        out[k] = c
        if c:
            for j, y in enumerate(den):
                num[k + j] -= c * y
    if any(num):
        raise ArithmeticError("inexact polynomial division")
    return out


@lru_cache(maxsize=None)
def cyclotomic_polynomial(m: int) -> tuple[int, ...]:
    """Ascending coefficients of the m-th cyclotomic polynomial (monic)."""
    if m < 1:
        raise ValueError("order must be positive")
    if m == 1:
        return (-1, 1)
    poly = [-1] + [0] * (m - 1) + [1]  # x^m - 1
    for d in range(1, m):
        if m % d == 0:
            poly = _poly_divexact(poly, cyclotomic_polynomial(d))
    return tuple(poly)


@lru_cache(maxsize=None)
def _tables(m: int) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """phi(m) and the reduced power-basis coordinates of zeta_m^k, k < m."""
    phi_poly = cyclotomic_polynomial(m)
    phi = len(phi_poly) - 1
    # x^phi == -(phi_poly without its leading 1)
    top = [-c for c in phi_poly[:phi]]
    rows: list[tuple[int, ...]] = []
    cur = [0] * phi
    cur[0] = 1
    for _ in range(m):
        rows.append(tuple(cur))
        lead = cur[phi - 1]
        nxt = [0] * phi
        for j in range(phi - 1):
            nxt[j + 1] = cur[j]
        if lead:
            for j in range(phi):
                nxt[j] += lead * top[j]
        cur = nxt
    return phi, tuple(rows)


def root_sum_is_zero(counts: Sequence[int], m: int) -> bool:
    """Exact test for sum_k counts[k] * zeta_m^k == 0."""
    phi, rows = _tables(m)
    acc = [0] * phi
    for k, c in enumerate(counts):
        if not c:
            continue
        row = rows[k]
        for t in range(phi):
            acc[t] += c * row[t]
    return not any(acc)


def minimal_root_order(logs: Iterable[int], m: int) -> int:
    """Smallest m' | m with every zeta_m^k, k in logs, a power of zeta_m'."""
    g = m
    for k in logs:
        g = gcd(g, k % m)
        if g == 1:
            return m
    return m // g
