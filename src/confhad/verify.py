"""Exact and numeric verification predicates.

One exact Gram kernel per representation checks every row pair i < j.  The
symbolic kernel codes each nonzero cell as one integer: its i-power plus 8
times its exponent vector packed in base B = 4E + 1, E the largest |exponent|
in the matrix.  Each exponent of a quotient of two cells lies in [-2E, 2E],
fewer than B values, so the difference of two codes names the quotient's
i-power and parameter part uniquely.  The sum of a row pair vanishes for all
values of the free parameters exactly when each parameter part's 4th-root
counts cancel, c0 = c2 and c1 = c3; on the codes that is a multiset compare
in integer arithmetic.  The Butson kernel counts a row pair's differences by
popcounts of per-row value bitmasks and tests their sum over m-th roots exactly,
modulo the cyclotomic polynomial.  A symbolic matrix without symbols has
codes that are logs base i, and goes through those counts at m = 4 with the
symbolic kernel's witness.  The zero-free identities (inverse orthogonal,
Butson Hadamard) fail on the first zero cell with one wording, ``zero cell
[not unimodular]``.  Zero cells are found by identity: ``None in row`` would
call ``Monomial.__eq__`` on every cell.  Floating checks are smoke tests
only; a symbolic failure is authoritative even if sampled floats look fine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Optional, Union

from .cyclotomic import root_sum_is_zero
from .matrices import ButsonMatrix, ComplexMatrix, SymbolicMatrix

DEFAULT_TOL = 1e-10


@dataclass(frozen=True, slots=True)
class VerificationResult:
    """Outcome of a predicate; carries a witness exactly when it failed."""

    passed: bool
    witness: Optional[tuple[int, int, object]] = None
    message: str = ""

    def __post_init__(self) -> None:
        if self.passed and self.witness is not None:
            raise ValueError("witness present on a passing result")
        if not self.passed and self.witness is None:
            raise ValueError("failing result needs a witness")

    def __bool__(self) -> bool:
        return self.passed

    def describe(self) -> str:
        if self.passed:
            return "pass"
        i, j, detail = self.witness
        text = f"fail at ({i},{j}): {detail}"
        return f"{text} [{self.message}]" if self.message else text


_PASS = VerificationResult(True)


def _fail(i: int, j: int, detail: object, message: str = "") -> VerificationResult:
    return VerificationResult(False, (i, j, detail), message)


def _laurent_str(row_i, row_j) -> str:
    """A failure witness for the pair (row_i, row_j): the terms of
    sum_k row_i[k]/row_j[k] grouped by parameter part, each nonzero group as
    its coefficient (c0 - c2) + (c1 - c3)i times that part, sorted by it."""
    groups: dict = {}
    for x, y in zip(row_i, row_j):
        if x is not None and y is not None:
            counts = groups.setdefault((x * y.reciprocal()).exps, [0, 0, 0, 0])
            counts[(x.ipow - y.ipow) % 4] += 1
    parts = []
    for exps, c in sorted(groups.items()):
        re, im = c[0] - c[2], c[1] - c[3]
        if im == 0:
            coef = str(re)
        elif re == 0:
            coef = {1: "i", -1: "-i"}.get(im, f"{im}i")
        else:
            sign = "+" if im > 0 else "-"
            coef = f"({re}{sign}{'' if abs(im) == 1 else abs(im)}i)"
        if re or im:
            mono = "*".join(s if e == 1 else f"{s}^{e}" for s, e in exps)
            parts.append(f"{coef}*{mono}" if mono else coef)
    return " + ".join(parts)


def _cell_codes(rows) -> tuple[list[list[Optional[int]]], bool]:
    """Each nonzero cell x as the integer x.ipow + 8 * sum_s e_s * B^k(s),
    k(s) the rank of symbol s among the sorted symbols and B = 4E + 1 for E
    the largest |exponent| in ``rows``; zero cells stay None.  The exponents
    of a quotient of two cells are digits in [-2E, 2E], and a base-B number
    with digits in that range has one such representation, so the difference
    of two packed parameter parts decodes to the quotient's exponent vector.
    Also whether any cell has a symbol: when none has, the codes are the
    cells' logs base i."""
    parts = {x.exps for row in rows for x in row if x is not None}
    base = 4 * max((abs(e) for exps in parts for _, e in exps), default=0) + 1
    symbols = sorted({s for exps in parts for s, _ in exps})
    place = {s: 8 * base**k for k, s in enumerate(symbols)}
    packed = {exps: sum([e * place[s] for s, e in exps]) for exps in parts}
    codes = [[None if x is None else x.ipow + packed[x.exps] for x in row] for row in rows]
    return codes, bool(symbols)


def _gram_symbolic(rows) -> VerificationResult:
    """sum_k row_i[k]/row_j[k] == 0 identically for every row pair i < j.

    Columns where either cell is zero are skipped.  Row i's cell codes
    (``_cell_codes``) are shifted by +4, so for a term x/y the difference
    a - b is 8 times the quotient's packed parameter part plus
    x.ipow - y.ipow + 4, which lies in 1..7 and stays inside its block of 8.
    ``(a - b) & -5`` clears the 4 bit, which folds i^k and i^(k+4) together:
    the result is 8 * part + (quotient i-power), one integer per quotient.
    The sum vanishes exactly when each parameter part's 4th-root counts have
    c0 = c2 and c1 = c3, that is when the multiset q of those integers is
    closed under ``^ 2``, which multiplies a term by -1.  A failing pair's
    witness is built from its Monomial quotients by ``_laurent_str``.  Pairs
    j < i need no check: the automorphism x -> 1/x, i -> -i carries the
    (i,j) sum onto the (j,i) sum, and a diagonal sum just counts ones.

    A matrix without symbols has one parameter part, and its codes are logs
    base i: its pairs are read from ``_pair_hists`` at m = 4 instead, as
    counts c0..c3 of the quotients' i-powers.
    """
    codes, symbolic = _cell_codes(rows)
    n = len(rows)
    if not symbolic:
        pairs = ((i, j) for i in range(n) for j in range(i + 1, n))
        for (i, j), c in zip(pairs, _pair_hists(codes, 4)):
            if c[0] != c[2] or c[1] != c[3]:
                return _fail(i, j, _laurent_str(rows[i], rows[j]), "off-diagonal sum != 0")
        return _PASS
    for i in range(n):
        row_i = [None if a is None else a + 4 for a in codes[i]]
        for j in range(i + 1, n):
            q = sorted(
                [(a - b) & -5 for a, b in zip(row_i, codes[j]) if a is not None and b is not None]
            )
            if q != sorted([d ^ 2 for d in q]):
                return _fail(i, j, _laurent_str(rows[i], rows[j]), "off-diagonal sum != 0")
    return _PASS


def _vanishes(counts: tuple[int, ...], m: int, verdicts: dict[tuple[int, ...], bool]) -> bool:
    """Whether the m-th roots counted by ``counts`` sum to zero, memoised in ``verdicts``."""
    ok = verdicts.get(counts)
    if ok is None:
        ok = verdicts[counts] = root_sum_is_zero(counts, m)
    return ok


def _pair_hists(logs, m: int) -> Iterator[tuple[int, ...]]:
    """For every row pair i < j, in that order, the counts of (a - b) % m
    over the columns where both rows are nonzero, as a tuple of m ints.

    Each row is built once as one column bitmask per value it holds, and a
    pair costs one popcount per pair of values the two rows hold, or one
    step per column where that is fewer.  The Butson Gram kernel reads the
    vectors in order, the fingerprint's autocorrelation their multiset."""
    masks = []
    for row in logs:
        by_value: dict[int, int] = {}
        for x, a in enumerate(row):
            if a is not None:
                by_value[a] = by_value.get(a, 0) | 1 << x
        masks.append(list(by_value.items()))
    n = len(masks)
    for i in range(n):
        row_i = masks[i]
        for j in range(i + 1, n):
            counts = [0] * m
            if len(row_i) * len(masks[j]) <= n:
                for b, mask_b in masks[j]:
                    for a, mask_a in row_i:
                        counts[(a - b) % m] += (mask_a & mask_b).bit_count()
            else:
                for a, b in zip(logs[i], logs[j]):
                    if a is not None and b is not None:
                        counts[(a - b) % m] += 1
            yield tuple(counts)


def _gram_butson(logs, m: int) -> VerificationResult:
    """sum_k zeta_m^(logs[i][k] - logs[j][k]) == 0 for every row pair i < j,
    skipping columns where either cell is zero.

    The pairs are read from ``_pair_hists`` in order, and pairs with equal
    count vectors share one exact test, so the witness is the first failing
    pair's.
    """
    verdicts: dict[tuple[int, ...], bool] = {}
    n = len(logs)
    pairs = ((i, j) for i in range(n) for j in range(i + 1, n))
    for (i, j), hist in zip(pairs, _pair_hists(logs, m)):
        if not _vanishes(hist, m, verdicts):
            # the witness shows at most 16 root counts, then how many more
            counts = list(hist)
            detail = counts if m <= 16 else f"{counts[:16]} (+{m - 16} more)"
            return _fail(i, j, detail, "off-diagonal root sum != 0")
    return _PASS


def _nonzero(rows) -> VerificationResult:
    """A failure at the first zero cell, row by row; else a pass."""
    for i, row in enumerate(rows):
        for j, cell in enumerate(row):
            if cell is None:
                return _fail(i, j, "zero cell", "not unimodular")
    return _PASS


def check_inverse_orthogonal(matrix: SymbolicMatrix) -> VerificationResult:
    """No zero cell, and A * (1/a_ji) == n*I identically in the free parameters."""
    return _nonzero(matrix.rows) and _gram_symbolic(matrix.rows)


def check_conference(matrix: Union[SymbolicMatrix, ButsonMatrix]) -> VerificationResult:
    """Zero diagonal, unimodular elsewhere, C * C^H == (n-1)*I exactly."""
    if isinstance(matrix, SymbolicMatrix):
        rows = matrix.rows
    elif isinstance(matrix, ButsonMatrix):
        rows = matrix.logs
    else:
        raise TypeError(f"cannot conference-check {type(matrix).__name__}")
    for i, row in enumerate(rows):
        if [j for j, cell in enumerate(row) if cell is None] == [i]:
            continue
        for j, cell in enumerate(row):
            if i == j and cell is not None:
                return _fail(i, j, "nonzero diagonal cell", "structure")
            if i != j and cell is None:
                return _fail(i, j, "zero off-diagonal cell", "structure")
    if isinstance(matrix, SymbolicMatrix):
        return _gram_symbolic(rows)
    return _gram_butson(rows, matrix.m)


def _check_hadamard_complex(matrix: ComplexMatrix, tol: float) -> VerificationResult:
    # The one numpy use: the CLI prints residuals of this BLAS Gram product,
    # and a plain Python sum differs in last digits and at times in the cell.
    import numpy as np

    arr = np.array(matrix.rows, dtype=complex)
    n = matrix.n
    bad = np.argwhere(~np.isfinite(arr))
    if len(bad):
        i, j = int(bad[0][0]), int(bad[0][1])
        return _fail(i, j, complex(arr[i, j]), "not finite")
    mods = np.abs(np.abs(arr) - 1.0)
    worst = np.unravel_index(int(np.argmax(mods)), mods.shape)
    if mods[worst] > tol:
        return _fail(int(worst[0]), int(worst[1]), float(mods[worst]), "not unimodular")
    gram = arr @ arr.conj().T
    resid = np.abs(gram - n * np.eye(n))
    worst = np.unravel_index(int(np.argmax(resid)), resid.shape)
    if resid[worst] > tol:
        return _fail(int(worst[0]), int(worst[1]), float(resid[worst]), "gram residual")
    return _PASS


def check_hadamard(
    matrix: Union[ButsonMatrix, ComplexMatrix], tol: float = DEFAULT_TOL
) -> VerificationResult:
    """All cells unimodular and M * M^H == n*I (exact for Butson input)."""
    if isinstance(matrix, ButsonMatrix):
        return _nonzero(matrix.logs) and _gram_butson(matrix.logs, matrix.m)
    if isinstance(matrix, ComplexMatrix):
        if not 0 < tol < math.inf:
            raise ValueError("tolerance must be finite and positive")
        return _check_hadamard_complex(matrix, tol)
    raise TypeError(f"cannot hadamard-check {type(matrix).__name__}")

