"""Differential tests: the Gram kernels of ``confhad.verify`` against the
straightforward loops they replaced.

The oracles below sum over every ordered row pair, skip exactly the columns
the old code skipped (the two diagonal columns of a conference matrix), and
accumulate symbolic products as exact Gaussian-integer coefficients per
parameter part.  The kernels must agree with them on pass/fail and on the
witness ``(i, j, str(detail), message)``.
"""

import random
from collections import Counter
from itertools import islice, product

from confhad import catalog
from confhad.cyclotomic import root_sum_is_zero
from confhad.equivalence import MonomialTransform
from confhad.matrices import (
    ButsonMatrix,
    SymbolicMatrix,
    bordered_circulant,
    double_orthogonal,
    to_butson,
)
from confhad.search import bordered_matrix, circulant_matrix
from confhad.symbolic import Monomial
from confhad.verify import (
    _pair_hists,
    check_conference,
    check_hadamard,
    check_inverse_orthogonal,
)

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
    # Sylvester 8 with row 6's cells in columns 0 and 4 swapped: rows 0-3
    # agree on those columns, so every pair before (4, 6) keeps the one
    # vanishing histogram (4, 4) and (4, 6) is the first to fail
    logs = [[bin(r & c).count("1") % 2 for c in range(8)] for r in range(8)]
    logs[6][0], logs[6][4] = logs[6][4], logs[6][0]
    for m in (2, 4):
        late = ButsonMatrix(2, logs).lift(m)
        assert len(set(islice(_pair_hists(late.logs, m), 23))) == 1  # the pairs before (4, 6)
        _, hadamard = assert_butson_agrees(late)
        assert hadamard[:2] == (4, 6)


def oracle_pair_hists(logs, m):
    """For each row pair i < j, the counts of (a - b) % m over the columns
    where both cells are nonzero."""
    n = len(logs)
    diffs = [
        [(a - b) % m for a, b in zip(logs[i], logs[j]) if a is not None and b is not None]
        for i in range(n)
        for j in range(i + 1, n)
    ]
    return [tuple(d.count(k) for k in range(m)) for d in diffs]


def assert_pair_hists_agree(M):
    want = oracle_pair_hists(M.logs, M.m)
    assert list(_pair_hists(M.logs, M.m)) == want
    # the Gram witness names the first failing pair: keys in first-pair order
    shared = Counter(_pair_hists(M.logs, M.m))
    assert list(shared) == list(dict.fromkeys(want)) and shared == Counter(want)


def gf9_paley_core():
    """The symmetric conference matrix of order 10 over GF(9) = Z_3[i],
    i^2 = -1: border ones, cell (x, y) the quadratic character of x - y."""
    field = [(a, b) for a in range(3) for b in range(3)]
    squares = {((a * a - b * b) % 3, 2 * a * b % 3) for a, b in field if (a, b) != (0, 0)}
    cell = {d: Monomial(0 if d in squares else 2) for d in field}
    rows = [[None] + [Monomial(0)] * 9]
    for x in field:
        diffs = [((x[0] - y[0]) % 3, (x[1] - y[1]) % 3) for y in field]
        rows.append([Monomial(0)] + [None if d == (0, 0) else cell[d] for d in diffs])
    return SymbolicMatrix(rows)


def test_pair_hists_match_oracle_on_catalog_and_paley_doubles():
    for matrix in catalog_matrices():
        if matrix.is_constant:
            assert_pair_hists_agree(to_butson(matrix))
    doubles = [double_orthogonal(symbolic_paley_core(q)) for q in (5, 13)]
    doubles.append(double_orthogonal(gf9_paley_core()))
    for double in doubles:
        B = to_butson(double)
        assert check_hadamard(B)
        assert_pair_hists_agree(B)
    assert sorted(double.n for double in doubles) == [12, 20, 28]


def test_pair_hists_match_oracle_on_random_matrices():
    rng = random.Random(2110)
    for m in (1, 2, 3, 4, 6, 12, 1021):
        for n in (1, 2, 5, 9):
            perm = rng.sample(range(n), n)
            for zeros in ("none", "permutation", "arbitrary"):
                logs = [[rng.randrange(m) for _ in range(n)] for _ in range(n)]
                for i in range(n):
                    if zeros == "permutation":
                        logs[i][perm[i]] = None
                    elif zeros == "arbitrary":
                        logs[i] = [None if rng.random() < 0.3 else a for a in logs[i]]
                assert_pair_hists_agree(ButsonMatrix(m, logs))


def test_butson_kernel_matches_old_loop_on_search_candidates():
    seen = set()
    for n, m in ((6, 4), (5, 3)):
        for tail in product(range(m), repeat=n - 2):
            seen.update(assert_butson_agrees(bordered_matrix((None, *tail), m)))
        for tail in product(range(m), repeat=n - 1):
            seen.update(assert_butson_agrees(circulant_matrix((None, *tail), m)))
    assert None in seen


# Laurent matrices: five or more symbols, exponents up to +-40, mixed i-powers.
# None of these symbols occurs in the catalog.
LAURENT_SYMBOLS = "hjkmnrsu"


def pick_symbols(rng):
    return sorted(rng.sample(LAURENT_SYMBOLS, rng.randint(5, len(LAURENT_SYMBOLS))))


def random_monomial(rng, symbols, E):
    return Monomial(rng.randrange(4), [(s, rng.randint(-E, E)) for s in symbols])


def laurent_image(matrix, rng, E):
    """D1 M D2 with Laurent-monomial diagonals of random i-powers; each
    symbol's exponent sits on the rows, on the columns, or on both, so that
    every cell exponent stays within +-E.  Row-only symbols take both +E and
    -E, so row pairs differ by exactly +-2E, and E is the image's largest
    |exponent| when M's own exponents are within +-E.  The row pair sums are
    those of M times a monomial, so M's verdict carries over."""
    n = matrix.n
    symbols = pick_symbols(rng)
    row_exps = [[] for _ in range(n)]
    col_exps = [[] for _ in range(n)]
    for k, s in enumerate(symbols):
        mode = "rows" if k == 0 else rng.choice(("rows", "cols", "both"))
        for i in range(n):
            if mode == "rows":
                row_exps[i].append((s, rng.choice((-E, E, rng.randint(-E, E)))))
            elif mode == "both":
                row_exps[i].append((s, rng.randint(-(E // 2), E // 2)))
            if mode == "cols":
                col_exps[i].append((s, rng.randint(-E, E)))
            elif mode == "both":
                col_exps[i].append((s, rng.randint(-(E - E // 2), E - E // 2)))
        if mode == "rows":  # both extremes occur
            i, j = rng.sample(range(n), 2)
            row_exps[i][-1], row_exps[j][-1] = (s, E), (s, -E)
    dr = [Monomial(rng.randrange(4), exps) for exps in row_exps]
    dc = [Monomial(rng.randrange(4), exps) for exps in col_exps]
    return SymbolicMatrix(
        [
            [None if x is None else dr[i] * x * dc[j] for j, x in enumerate(row)]
            for i, row in enumerate(matrix.rows)
        ]
    )


def random_laurent_matrix(rng, n, E, zero_diagonal, symbols):
    return SymbolicMatrix(
        [
            [None if zero_diagonal and i == j else random_monomial(rng, symbols, E) for j in range(n)]
            for i in range(n)
        ]
    )


def near_miss_matrix(rng, E, zero_diagonal, pairs):
    """A random Laurent matrix whose rows 0 and 1 are rebuilt column pair by
    column pair so that their sum is a sum of t - t', t' being t with the
    digit 2E of one symbol replaced by -2E and the next symbol's exponent
    raised by one.  The sum is not zero, but in base 4E (instead of
    4E + 1) t and t' would pack alike and cancel."""
    offset = 2 if zero_diagonal else 0
    n = offset + 2 * pairs
    symbols = pick_symbols(rng)
    rows = [list(row) for row in random_laurent_matrix(rng, n, E, zero_diagonal, symbols).rows]

    def cells(quotient):
        """Cells x, y within +-E with x / y == quotient (exponent dict)."""
        x, y = [], []
        for s in symbols:
            d = quotient.get(s, 0)
            ys = rng.randint(max(-E, -E - d), min(E, E - d))
            x.append((s, ys + d))
            y.append((s, ys))
        ipow = rng.randrange(4)
        return Monomial(ipow + quotient["ipow"], x), Monomial(ipow, y)

    for p in range(pairs):
        r = rng.randrange(len(symbols) - 1)
        t = {s: rng.randint(-2 * E, 2 * E) for s in symbols}
        t[symbols[r]] = 2 * E
        t[symbols[r + 1]] = rng.randint(-2 * E, 2 * E - 1)
        t["ipow"] = rng.randrange(4)
        t2 = dict(t)
        t2[symbols[r]] = -2 * E
        t2[symbols[r + 1]] += 1
        t2["ipow"] += 2  # -t'
        for col, quotient in enumerate((t, t2), offset + 2 * p):
            rows[0][col], rows[1][col] = cells(quotient)
    return SymbolicMatrix(rows)


def test_symbolic_kernel_matches_old_loop_on_random_laurent_matrices():
    rng = random.Random(20261018)
    seen = set()
    for draw in range(40):
        E = rng.choice((1, 2, 7, 40))
        n = rng.randint(2, 7)
        M = random_laurent_matrix(rng, n, E, draw % 2 == 0, pick_symbols(rng))
        seen.update(assert_symbolic_agrees(M))
    assert any(s is not None and s[3] == "off-diagonal sum != 0" for s in seen)


def test_symbolic_kernel_matches_old_loop_on_near_misses():
    rng = random.Random(2027)
    seen = []
    for draw in range(40):
        E = rng.choice((1, 3, 40))
        M = near_miss_matrix(rng, E, draw % 2 == 0, rng.randint(1, 3))
        seen.append(assert_symbolic_agrees(M)[-1])
    # every near miss fails at its first pair, never later
    assert all(s[:2] == (0, 1) and s[3] == "off-diagonal sum != 0" for s in seen)


def test_symbolic_kernel_matches_old_loop_on_laurent_images():
    rng = random.Random(1118)
    seen = set()
    for matrix in catalog_matrices():
        for E in (1, 40):
            seen.update(assert_symbolic_agrees(laurent_image(matrix, rng, E)))
    messages = {None if s is None else s[3] for s in seen}
    assert {None, "structure", "off-diagonal sum != 0"} <= messages


def test_symbolic_kernel_matches_old_loop_on_o12_substitutions():
    """Unit-monomial values for the free parameters keep an identity that
    holds for all values, so the verified families still pass."""
    rng = random.Random(612)
    seen = []
    for name in catalog.names():
        if catalog.kind(name) != "orthogonal":
            continue
        for matrix in (catalog.build(name), catalog.build_verified(name)):
            for E in (1, 13, 40):
                symbols = rng.sample(LAURENT_SYMBOLS, 5)
                mapping = {s: random_monomial(rng, symbols, E) for s in matrix.symbols()}
                image = SymbolicMatrix(
                    [[x.substitute(mapping) for x in row] for row in matrix.rows]
                )
                verdict = assert_symbolic_agrees(image)[-1]
                if matrix == catalog.build_verified(name):
                    assert verdict is None
                seen.append(verdict)
    assert None in seen and any(s is not None for s in seen)


def symbolic_paley_core(q):
    squares = {k * k % q for k in range(1, q)}
    return bordered_circulant([None] + [Monomial(0 if k in squares else 2) for k in range(1, q)])


def test_symbolic_kernel_matches_old_loop_on_paley_doubles():
    rng = random.Random(2836)
    for q in (13, 17):
        core = symbolic_paley_core(q)
        double = double_orthogonal(core)
        assert double.n == 2 * (q + 1)
        assert assert_symbolic_agrees(core) == [None]
        assert assert_symbolic_agrees(double)[-1] is None
        assert assert_symbolic_agrees(laurent_image(double, rng, 40))[-1] is None
        assert assert_symbolic_agrees(laurent_image(core, rng, 40)) == [None]
        broken = [list(row) for row in double.rows]
        i, j = rng.randrange(double.n), rng.randrange(double.n)
        broken[i][j] = -broken[i][j]
        assert assert_symbolic_agrees(SymbolicMatrix(broken))[-1] is not None


def constant_matrices():
    """Matrices without symbols, which the symbolic kernel reads through
    ``_pair_hists`` at m = 4: Paley cores and doubles, and the printed H12s."""
    out = {}
    for q in (5, 13, 17, 29):
        core = symbolic_paley_core(q)
        out[f"core{q}"], out[f"double{q}"] = core, double_orthogonal(core)
    for name in catalog.names():
        if name.startswith("H12") and catalog.kind(name) == "hadamard":
            out[name] = catalog.build(name)
    return out


def test_constant_matrices_take_the_pair_count_path_and_agree():
    matrices = constant_matrices()
    assert sorted(k for k in matrices if k.startswith("H12")) == [f"H12{c}" for c in "abcdefg"]
    failing = set()
    for name, matrix in matrices.items():
        assert matrix.is_constant
        if assert_symbolic_agrees(matrix)[-1] is not None:
            failing.add(name)
    assert failing == {"H12b", "H12d"}


def test_constant_matrices_agree_under_one_cell_perturbations():
    rng = random.Random(4096)
    seen = set()
    for matrix in constant_matrices().values():
        for _ in range(3):
            rows = [list(row) for row in matrix.rows]
            i, j = rng.randrange(matrix.n), rng.randrange(matrix.n)
            if rows[i][j] is not None:
                rows[i][j] = rows[i][j] * Monomial(rng.randrange(1, 4))
            seen.update(assert_symbolic_agrees(SymbolicMatrix(rows)))
    details = [s[2] for s in seen if s is not None and s[3] == "off-diagonal sum != 0"]
    assert None in seen and details and all("*" not in d for d in details)
