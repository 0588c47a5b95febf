"""Monomial equivalence of exact root-of-unity matrices.

Two matrices are monomially equivalent when B = D1 P1 A P2 D2 for permutation
matrices P and unit diagonal matrices D.  The quadruple-product multiset
(``fingerprint``) is invariant under that action and separates most pairs
cheaply; the rest go to a backtracking search that either produces a verified
witness or exhausts the space.  Diagonals range over the matrices' own root
order, so "inequivalent by exhausted search" is relative to that notion.

One search serves Hadamard and conference inputs.  It dephases B about one
cell and A about every cell in turn, which removes the diagonals, skips every
anchor whose dephased matrix has other sorted row or column signatures than
B's (no witness passes through it), and then matches rows.  A quadruple
that touches a zero cell has no value; it gets the sentinel ``_ZERO``, and
the cells it hides are checked by the witness at the leaf, where a failure
backtracks.  Zero cells must form a permutation pattern (one per row and per
column, such as the zero diagonal).  That makes the columns of each dephased
matrix pairwise distinct by their sentinel cells alone, so once the rows are
matched the column map is forced.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from math import gcd, lcm
from typing import Iterable, Mapping, Optional, Sequence

from .matrices import ButsonMatrix, SymbolicMatrix, eval_exact
from .verify import check_hadamard, check_inverse_orthogonal

DEFAULT_BUDGET = 10**8


@dataclass(frozen=True, slots=True)
class Fingerprint:
    """Multiset of quadruple products M[i][j]M[k][l]/(M[i][l]M[k][j]).

    Computed over ordered row/column pairs so that it is exactly invariant
    under row/column permutations and unit diagonal scalings; values are logs
    base zeta_m with m the order of the group the quadruple values generate
    (not the matrix's root order, which diagonal scalings can change).
    ``zeros`` records how many quadruples were skipped for touching a zero
    cell (conference mode).
    """

    n: int
    m: int
    counts: tuple[tuple[int, int], ...]
    zeros: int = 0

    def lines(self) -> list[str]:
        out = [f"n={self.n} order={self.m} skipped={self.zeros}"]
        out += [f"zeta{self.m}^{k}:{c}" for k, c in self.counts]
        return out


def _quadruple_counts(M: ButsonMatrix, skip_zeros: bool) -> tuple[dict[int, int], int]:
    """Quadruple-value counts and the number of skipped (zero-touching) quadruples.

    For rows i, k the value at columns j, l is d[j] - d[l] with d = row_i - row_k,
    so the counts of a row pair are the cyclic autocorrelation of the histogram
    of d over the s columns where both rows are nonzero, less the s terms j = l.
    The pair (k, i) negates d, which leaves that autocorrelation unchanged.
    """
    n, m, logs = M.n, M.m, M.logs
    counts: Counter[int] = Counter()
    skipped = 0
    for i in range(n):
        row_i = logs[i]
        for k in range(i + 1, n):
            hist = Counter(
                (a - b) % m for a, b in zip(row_i, logs[k]) if a is not None and b is not None
            )
            s = sum(hist.values())
            if s < n and not skip_zeros:
                raise ValueError("zero cell in Hadamard fingerprint")
            skipped += 2 * (n * (n - 1) - s * (s - 1))
            items = hist.items()
            for a, ca in items:
                for b, cb in items:
                    counts[(a - b) % m] += 2 * ca * cb
            counts[0] -= 2 * s
    return {v: c for v, c in counts.items() if c}, skipped


def _fingerprint(M: ButsonMatrix, skip_zeros: bool) -> Fingerprint:
    counts, skipped = _quadruple_counts(M, skip_zeros)
    g = gcd(M.m, *counts)  # zeta_m^g generates the quadruple values
    return Fingerprint(M.n, M.m // g, tuple(sorted((v // g, c) for v, c in counts.items())), skipped)


def fingerprint(M: ButsonMatrix) -> Fingerprint:
    """Equivalence invariant for zero-free exact matrices."""
    return _fingerprint(M, skip_zeros=False)


def conference_fingerprint(M: ButsonMatrix) -> Fingerprint:
    """Fingerprint variant that skips quadruples touching zero cells."""
    return _fingerprint(M, skip_zeros=True)


@dataclass(frozen=True, slots=True)
class MonomialTransform:
    """B[i][j] = zeta^row_logs[i] * A[row_perm[i]][col_perm[j]] * zeta^col_logs[j]."""

    m: int
    row_perm: tuple[int, ...]
    col_perm: tuple[int, ...]
    row_logs: tuple[int, ...]
    col_logs: tuple[int, ...]

    def apply(self, A: ButsonMatrix) -> ButsonMatrix:
        if A.m != self.m:
            A = A.lift(lcm(A.m, self.m))
        step = A.m // self.m
        logs = []
        for i in range(A.n):
            src = A.logs[self.row_perm[i]]
            ri = self.row_logs[i] * step
            logs.append(
                [
                    None
                    if src[self.col_perm[j]] is None
                    else (ri + src[self.col_perm[j]] + self.col_logs[j] * step) % A.m
                    for j in range(A.n)
                ]
            )
        return ButsonMatrix(A.m, logs)

    def maps(self, A: ButsonMatrix, B: ButsonMatrix) -> bool:
        big = lcm(A.m, B.m, self.m)
        return self.apply(A.lift(big)).logs == B.lift(big).logs


@dataclass(frozen=True, slots=True)
class EquivalenceVerdict:
    status: str  # "equivalent" | "inequivalent" | "unknown"
    witness: Optional[MonomialTransform] = None
    reason: str = ""
    nodes: int = 0

    @property
    def equivalent(self) -> bool:
        return self.status == "equivalent"

    @property
    def inequivalent(self) -> bool:
        return self.status == "inequivalent"


class _Budget:
    __slots__ = ("left", "used")

    def __init__(self, limit: int) -> None:
        self.left = limit
        self.used = 0

    def spend(self) -> bool:
        if self.left <= 0:
            return False
        self.left -= 1
        self.used += 1
        return True


class _OutOfBudget(Exception):
    pass


def _row_signature(row: Sequence[int]) -> tuple[int, ...]:
    return tuple(sorted(row))


def _sdr(cands: list[frozenset[int]]) -> Optional[list[int]]:
    """System of distinct representatives by smallest-candidate-first search."""
    order = sorted(range(len(cands)), key=lambda j: len(cands[j]))
    pick: dict[int, int] = {}

    def go(t: int) -> bool:
        if t == len(order):
            return True
        j = order[t]
        for v in sorted(cands[j]):
            if v not in pick.values():
                pick[j] = v
                if go(t + 1):
                    return True
                del pick[j]
        return False

    if not go(0):
        return None
    return [pick[j] for j in range(len(cands))]


def _witness_from_maps(
    A: ButsonMatrix, B: ButsonMatrix, sigma: Sequence[int], tau: Sequence[int]
) -> Optional[MonomialTransform]:
    """Solve the diagonals for B[i][j] = rd[i]+A[sigma i][tau j]+cd[j], verify."""
    n, m = A.n, A.m
    la, lb = A.logs, B.logs
    for i in range(n):
        for j in range(n):
            if (lb[i][j] is None) != (la[sigma[i]][tau[j]] is None):
                return None
    # propagate rd/cd over the nonzero cells; each connected part of them has
    # its own gauge, fixed by rd = 0 at its first row
    rd: list[Optional[int]] = [None] * n
    cd: list[Optional[int]] = [None] * n
    for start in range(n):
        if rd[start] is not None:
            continue
        rd[start] = 0
        changed = True
        while changed:
            changed = False
            for i in range(n):
                for j in range(n):
                    x = lb[i][j]
                    if x is None:
                        continue
                    d = (x - la[sigma[i]][tau[j]]) % m
                    if rd[i] is not None and cd[j] is None:
                        cd[j] = (d - rd[i]) % m
                        changed = True
                    elif cd[j] is not None and rd[i] is None:
                        rd[i] = (d - cd[j]) % m
                        changed = True
    cd = [0 if v is None else v for v in cd]  # all-zero columns
    cand = MonomialTransform(m, tuple(sigma), tuple(tau), tuple(rd), tuple(cd))
    return cand if cand.maps(A, B) else None


_ZERO = -1  # dephased value of a quadruple that touches a zero cell


def _dephased(M: ButsonMatrix, r: int, c: int) -> list[list[int]]:
    """Logs of M[u][v]*M[r][c] / (M[u][c]*M[r][v]); _ZERO where any factor is zero."""
    m, la = M.m, M.logs
    head, anchor = la[r], la[r][c]
    out = []
    for row in la:
        x = row[c]
        if x is None or anchor is None:
            out.append([_ZERO] * len(row))
            continue
        shift = anchor - x
        if None in row or None in head:
            out.append(
                [_ZERO if a is None or b is None else (a + shift - b) % m for a, b in zip(row, head)]
            )
        else:
            out.append([(a + shift - b) % m for a, b in zip(row, head)])
    return out


def _check_zero_pattern(M: ButsonMatrix) -> None:
    """ValueError unless the zero cells form a permutation pattern."""
    cols = [row.index(None) if row.count(None) == 1 else -1 for row in M.logs]
    if sorted(cols) != list(range(M.n)):
        raise ValueError("zero cells must form a permutation pattern")


def _col_shape(M: list[list[int]]) -> list[tuple[int, ...]]:
    return sorted(_row_signature(col) for col in zip(*M))


def _search(A: ButsonMatrix, B: ButsonMatrix, budget: _Budget) -> Optional[MonomialTransform]:
    """Map B's row 0 onto each row r of A and its column b0 onto each column c.

    B is dephased about (0, b0) and A about (r, c).  A witness through that
    anchor carries one dephased matrix onto the other by a row and a column
    permutation, sentinels included, so an anchor whose sorted row or column
    signatures differ from B's is skipped before it costs a node.  Otherwise
    rows are assigned in order among A's rows with the same value counts,
    each narrowing the columns every column of B may map to.  Values that
    touch a zero are checked only by the witness at the leaf.
    """
    n = A.n
    la, b_row0 = A.logs, B.logs[0]
    b0 = next((j for j, x in enumerate(b_row0) if x is not None), 0)
    lb = _dephased(B, 0, b0)
    b_sigs = [_row_signature(row) for row in lb]
    b_rows, b_cols = sorted(b_sigs), _col_shape(lb)
    all_cols = frozenset(range(n))

    for r in range(n):
        for c in range(n):
            # anchors agree in zero status; only the 1x1 zero matrix has a zero anchor
            if (la[r][c] is None) != (b_row0[b0] is None):
                continue
            G = _dephased(A, r, c)
            g_sigs = [_row_signature(row) for row in G]
            if sorted(g_sigs) != b_rows or _col_shape(G) != b_cols:
                continue
            rows_with: dict[tuple[int, ...], list[int]] = {}  # signature -> G-rows
            for u, sig in enumerate(g_sigs):
                rows_with.setdefault(sig, []).append(u)
            positions = []  # per G-row: value -> frozenset of columns
            for row in G:
                by_val: dict[int, set[int]] = {}
                for v, val in enumerate(row):
                    by_val.setdefault(val, set()).add(v)
                positions.append({val: frozenset(vs) for val, vs in by_val.items()})

            init_cands = [all_cols - {c}] * n
            init_cands[b0] = frozenset([c])
            used = [False] * n
            used[r] = True
            sigma = [r] + [-1] * (n - 1)

            def extend(i: int, cands: list[frozenset[int]]) -> Optional[MonomialTransform]:
                if i == n:
                    tau = _sdr(cands)
                    return None if tau is None else _witness_from_maps(A, B, sigma, tau)
                row_b = lb[i]
                for u in rows_with[b_sigs[i]]:  # present: the shapes matched
                    if used[u]:
                        continue
                    if not budget.spend():
                        raise _OutOfBudget
                    new_cands = []
                    pos_u = positions[u]
                    for j in range(n):
                        allowed = pos_u.get(row_b[j])
                        if allowed is None:
                            break
                        nc = cands[j] & allowed
                        if not nc:
                            break
                        new_cands.append(nc)
                    else:
                        used[u] = True
                        sigma[i] = u
                        witness = extend(i + 1, new_cands)
                        if witness is not None:
                            return witness
                        used[u] = False
                        sigma[i] = -1
                return None

            witness = extend(1, init_cands)
            if witness is not None:
                return witness
    return None


def are_equivalent(
    a: ButsonMatrix, b: ButsonMatrix, budget: int = DEFAULT_BUDGET
) -> EquivalenceVerdict:
    """Decide monomial equivalence of two exact matrices.

    Sound both ways: "equivalent" always carries a verified witness, and
    "inequivalent" means either a fingerprint mismatch or a completed
    exhaustive search.  A spent node budget yields "unknown".
    """
    if a.n != b.n:
        raise ValueError("dimension mismatch")
    zeros = len(a.zero_positions())
    if zeros != len(b.zero_positions()):
        return EquivalenceVerdict("inequivalent", None, "zero cell counts differ", 0)
    if zeros:
        _check_zero_pattern(a)
        _check_zero_pattern(b)
        fa, fb = conference_fingerprint(a), conference_fingerprint(b)
    else:
        fa, fb = fingerprint(a), fingerprint(b)
    if fa != fb:
        return EquivalenceVerdict("inequivalent", None, "fingerprint mismatch", 0)
    return _search_verdict(a, b, budget)


def _search_verdict(a: ButsonMatrix, b: ButsonMatrix, budget: int) -> EquivalenceVerdict:
    """Decide a against b (same size) by search alone.

    Zero cells, if any, must form permutation patterns.  No invariant is
    consulted, so the verdict is "equivalent" with a witness verified on a
    and b, "inequivalent" by exhausted search, or "unknown".
    """
    a0, b0 = a.reduce_order(), b.reduce_order()
    m = lcm(a0.m, b0.m)
    A, B = a0.lift(m), b0.lift(m)
    tracker = _Budget(budget)
    try:
        witness = _search(A, B, tracker)
    except _OutOfBudget:
        return EquivalenceVerdict("unknown", None, "budget exhausted", tracker.used)
    if witness is not None:
        if not witness.maps(a, b):
            raise AssertionError("witness failed re-verification")
        return EquivalenceVerdict("equivalent", witness, "witness found", tracker.used)
    return EquivalenceVerdict("inequivalent", None, "exhausted search", tracker.used)


@dataclass(slots=True)
class EquivalenceClass:
    representative: ButsonMatrix
    assignments: list[Mapping[str, int]] = field(default_factory=list)
    undecided: bool = False

    @property
    def size(self) -> int:
        return len(self.assignments)


def specialize_and_classify(
    matrix: SymbolicMatrix,
    assignments: Iterable[Mapping[str, int]],
    order: int,
    budget: int = DEFAULT_BUDGET,
) -> list[EquivalenceClass]:
    """Evaluate at unit assignments, keep exact Hadamard results, classify.

    Assignments give root-of-unity logs base zeta_order per symbol.  Matrices
    are bucketed by fingerprint, each computed once, then refined by the
    equivalence search; an exhausted budget opens a fresh class flagged
    ``undecided``.
    """
    result = check_inverse_orthogonal(matrix)
    if not result:
        raise ValueError(f"matrix is not inverse orthogonal: {result.describe()}")
    classes: list[EquivalenceClass] = []
    fingerprints: list[Fingerprint] = []
    for asg in assignments:
        M = eval_exact(matrix, asg, order)
        if not check_hadamard(M):
            continue
        fp = fingerprint(M)
        placed = False
        hit_budget = False
        for cls, cls_fp in zip(classes, fingerprints):
            if cls_fp != fp:
                continue
            verdict = _search_verdict(M, cls.representative, budget)
            if verdict.equivalent:
                cls.assignments.append(dict(asg))
                placed = True
                break
            if verdict.status == "unknown":
                hit_budget = True
        if not placed:
            classes.append(EquivalenceClass(M, [dict(asg)], undecided=hit_budget))
            fingerprints.append(fp)
    return classes
