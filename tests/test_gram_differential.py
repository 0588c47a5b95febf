"""Differential tests: the Gram kernels of ``confhad.verify`` against the
straightforward loops they replaced.

The oracles below sum over every ordered row pair, skip exactly the columns
the old code skipped (the two diagonal columns of a conference matrix), and
accumulate symbolic products as exact Gaussian-integer coefficients per
parameter part.  The kernels must agree with them on pass/fail and on the
witness ``(i, j, str(detail), message)``.
"""

import random
from itertools import product

from confhad import catalog
from confhad.cyclotomic import root_sum_is_zero
from confhad.equivalence import MonomialTransform
from confhad.matrices import ButsonMatrix, SymbolicMatrix, to_butson
from confhad.search import bordered_matrix, circulant_matrix
from confhad.symbolic import Monomial
from confhad.verify import check_conference, check_hadamard, check_inverse_orthogonal

GAUSSIAN_UNITS = ((1, 0), (0, 1), (-1, 0), (0, -1))  # i^0 .. i^3


def _gaussian_str(re, im):
    if im == 0:
        return str(re)
    if re == 0:
        return {1: "i", -1: "-i"}.get(im, f"{im}i")
    mag = "i" if abs(im) == 1 else f"{abs(im)}i"
    return f"({re}{'+' if im > 0 else '-'}{mag})"


def _poly_str(acc):
    parts = []
    for key, (re, im) in sorted(acc.items()):
        mono = "*".join(s if e == 1 else f"{s}^{e}" for s, e in key)
        coef = _gaussian_str(re, im)
        parts.append(f"{coef}*{mono}" if mono else coef)
    return " + ".join(parts) or "0"


def _structure(cells, conference):
    n = len(cells)
    for i in range(n):
        for j in range(n):
            zero = cells[i][j] is None
            if conference and i == j and not zero:
                return (i, j, "nonzero diagonal cell", "structure")
            if conference and i != j and zero:
                return (i, j, "zero off-diagonal cell", "structure")
            if not conference and zero:
                return (i, j, "zero cell", "not unimodular")
    return None


def old_symbolic(matrix, conference):
    """Ordered-pair Monomial-product accumulation; first failing witness."""
    rows, n = matrix.rows, matrix.n
    if conference and _structure(rows, True):
        return _structure(rows, True)
    target = n - 1 if conference else n
    for i in range(n):
        for j in range(n):
            acc = {}
            for k in range(n):
                if conference and k in (i, j):
                    continue
                prod = rows[i][k] * rows[j][k].reciprocal()
                re, im = acc.get(prod.exps, (0, 0))
                dre, dim = GAUSSIAN_UNITS[prod.ipow]
                acc[prod.exps] = (re + dre, im + dim)
            acc = {key: c for key, c in acc.items() if c != (0, 0)}
            if i == j and acc != {(): (target, 0)}:
                return (i, j, _poly_str(acc), f"diagonal sum != {target}")
            if i != j and acc:
                return (i, j, _poly_str(acc), "off-diagonal sum != 0")
    return None


def old_butson(matrix, conference):
    """Root-count loop over pairs i < j with the old skip rule."""
    n, m, logs = matrix.n, matrix.m, matrix.logs
    bad = _structure(logs, conference)
    if bad:
        return bad
    for i in range(n):
        for j in range(i + 1, n):
            counts = [0] * m
            for k in range(n):
                if conference and k in (i, j):
                    continue
                counts[(logs[i][k] - logs[j][k]) % m] += 1
            if not root_sum_is_zero(counts, m):
                return (i, j, str(counts), "off-diagonal root sum != 0")
    return None


def outcome(result):
    if result.passed:
        return None
    i, j, detail = result.witness
    return (i, j, str(detail), result.message)


def zero_free(matrix):
    cells = matrix.rows if isinstance(matrix, SymbolicMatrix) else matrix.logs
    return all(c is not None for row in cells for c in row)


def assert_symbolic_agrees(matrix):
    """Returns the outcomes, so callers can check both verdicts occurred."""
    seen = [outcome(check_conference(matrix))]
    assert seen[0] == old_symbolic(matrix, True)
    if zero_free(matrix):
        seen.append(outcome(check_inverse_orthogonal(matrix)))
        assert seen[-1] == old_symbolic(matrix, False)
    return seen


def assert_butson_agrees(matrix):
    seen = [outcome(check_conference(matrix))]
    assert seen[0] == old_butson(matrix, True)
    seen.append(outcome(check_hadamard(matrix)))
    assert seen[-1] == old_butson(matrix, False)
    return seen


def catalog_matrices():
    """Every SYM catalog entry: printed, verified and derived."""
    out = []
    for name in catalog.names():
        if catalog.kind(name) in ("exponent", "family"):
            continue
        out += [catalog.build(name), catalog.build_verified(name)]
        if catalog.recipe_text(name) is not None:
            out.append(catalog.derive(name))
    return out


UNITS = [Monomial(k) for k in range(4)] + [
    Monomial(k, ((s, e),)) for k in range(4) for s in "abz" for e in (1, -1, 2)
]


def symbolic_image(matrix, rng, corrupt):
    """D1 P M Q D2 with unit-monomial diagonals; P == Q on about half the
    draws, so a zero diagonal stays on the diagonal.  Optionally one nonzero
    cell is multiplied by a unit other than 1."""
    n = matrix.n
    p = rng.sample(range(n), n)
    q = p if rng.random() < 0.5 else rng.sample(range(n), n)
    dr = [rng.choice(UNITS) for _ in range(n)]
    dc = [rng.choice(UNITS) for _ in range(n)]
    rows = [
        [
            None if matrix.rows[p[i]][q[j]] is None else dr[i] * matrix.rows[p[i]][q[j]] * dc[j]
            for j in range(n)
        ]
        for i in range(n)
    ]
    if corrupt:
        i, j = rng.randrange(n), rng.randrange(n)
        if rows[i][j] is not None:
            rows[i][j] = rows[i][j] * rng.choice(UNITS[1:])
    return SymbolicMatrix(rows)


def butson_image(matrix, rng, corrupt):
    """A seeded monomial image over a multiple of the matrix's root order."""
    big = matrix.m * rng.choice((1, 2, 3))
    n = matrix.n
    p = tuple(rng.sample(range(n), n))
    q = p if rng.random() < 0.5 else tuple(rng.sample(range(n), n))
    row_logs = tuple(rng.randrange(big) for _ in range(n))
    col_logs = tuple(rng.randrange(big) for _ in range(n))
    t = MonomialTransform(big, p, q, row_logs, col_logs)
    image = t.apply(matrix.lift(big))
    logs = [list(row) for row in image.logs]
    if corrupt:
        i, j = rng.randrange(n), rng.randrange(n)
        if logs[i][j] is not None:
            logs[i][j] += rng.randrange(1, big)
    return ButsonMatrix(big, logs)


def test_symbolic_kernel_matches_old_loop_on_catalog():
    seen = set()
    for matrix in catalog_matrices():
        seen.update(assert_symbolic_agrees(matrix))
    messages = {None if s is None else s[3] for s in seen}
    assert {None, "structure", "off-diagonal sum != 0"} <= messages


def test_symbolic_kernel_matches_old_loop_on_images():
    rng = random.Random(20240809)
    seen = set()
    for matrix in catalog_matrices():
        for draw in range(4):
            image = symbolic_image(matrix, rng, corrupt=draw >= 2)
            seen.update(assert_symbolic_agrees(image))
    details = [s[2] for s in seen if s is not None and s[3] == "off-diagonal sum != 0"]
    assert None in seen
    assert any("*" in d for d in details)  # failures with a parameter part
    assert any(" + " in d for d in details)  # failures across several groups


def test_butson_kernel_matches_old_loop():
    rng = random.Random(7)
    seen = set()
    for matrix in catalog_matrices():
        if not matrix.is_constant:
            continue
        B = to_butson(matrix)
        seen.update(assert_butson_agrees(B))
        for draw in range(4):
            seen.update(assert_butson_agrees(butson_image(B, rng, corrupt=draw >= 2)))
    messages = {None if s is None else s[3] for s in seen}
    assert messages == {None, "structure", "not unimodular", "off-diagonal root sum != 0"}


def test_butson_kernel_matches_old_loop_on_search_candidates():
    seen = set()
    for n, m in ((6, 4), (5, 3)):
        for tail in product(range(m), repeat=n - 2):
            seen.update(assert_butson_agrees(bordered_matrix((None, *tail), m)))
        for tail in product(range(m), repeat=n - 1):
            seen.update(assert_butson_agrees(circulant_matrix((None, *tail), m)))
    assert None in seen
