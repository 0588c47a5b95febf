"""Acceptance criteria, one test per criterion.

Each test prints a single ``[PASS]``/``[FAIL]`` summary line (visible with
``pytest -s``).  Tolerances and budgets are pinned here, not configurable.

Criterion 6 checks the evidence for and against nonequivalence among the
printed displays: the verdict matrix of H12a-H12g with re-verified witnesses
and fingerprint mismatches between its three classes, the C6a/C6b pair as an
explicit row-and-column swap, and C6f/C6g as inequivalent by exhausted
search.  It first asked for distinct fingerprints of H12a-H12c and for C6a
and C6b to be told apart, which cannot hold: the three real sign matrices lie
in the single class of 12x12 real Hadamard matrices, and C6b is C6a with rows
and columns 4,5 swapped.  The verdict matrix is frozen in ``VERDICT_CLASSES``.
"""

import random
import time
from itertools import permutations

import numpy as np
import pytest

from confhad import catalog
from confhad.equivalence import (
    MonomialTransform,
    are_equivalent,
    conference_fingerprint,
    fingerprint,
    specialize_and_classify,
)
from confhad.formats import emit_matrix, parse_matrix
from confhad.matrices import (
    double_orthogonal,
    eval_exponent_form,
    scale_columns,
    to_butson,
)
from confhad.search import search_bordered_circulant
from confhad.symbolic import Monomial
from confhad.verify import (
    check_conference,
    check_hadamard,
    check_inverse_orthogonal,
)

SEED = 20240809


def max_gram_residual(matrix):
    """max |(M M^H - n I)_{ij}| of a float matrix."""
    arr = np.array(matrix.rows)
    return float(np.max(np.abs(arr @ arr.conj().T - matrix.n * np.eye(matrix.n))))

# frozen regression artifact: equivalence classes of the printed sign matrices
VERDICT_CLASSES = {"a": 0, "b": 0, "c": 0, "d": 1, "e": 1, "f": 2, "g": 2}

# frozen regression artifacts from the first exhaustive runs
SEARCH_COUNTS = {(6, 1): 0, (6, 2): 2, (6, 4): 12}
SPECIALIZE_CLASS_SIZES = [64]


def report(line: str) -> None:
    print(line)


def test_c01_symbolic_family_verification():
    flagged = []
    for x in "abcdefgh":
        t0 = time.monotonic()
        assert check_inverse_orthogonal(catalog.derive(f"O12{x}")), f"derived O12{x}"
        assert time.monotonic() - t0 < 1.0, f"O12{x} check exceeded 1 s"
        rep = catalog.reconcile(f"O12{x}")
        if rep.printed:
            continue
        # flagged entries must carry a cell-level witness and a verified form
        assert rep.printed.witness is not None
        assert rep.verified and rep.repairs
        flagged.append(f"O12{x}")
    assert set(flagged) <= {"O12d", "O12h"}
    report(
        "[PASS] criterion 1: derived O12a-O12h verify symbolically in < 1 s each; "
        f"printed flags: {', '.join(flagged)} (witnessed and repaired)"
    )


def test_c02_conference_verification():
    pq = catalog.build_verified("C6pq")
    assert check_conference(pq), "two-parameter family, p and q free"
    # the verbatim print needs the row-1 override and is flagged, not hidden
    printed_pq = catalog.reconcile("C6pq")
    assert not printed_pq.printed and printed_pq.verified

    names = [f"C6{x}" for x in "abcdefg"]
    for name in names:
        assert check_conference(catalog.build(name)), name

    # diagonal inner products equal n - 1 = 5 exactly
    for name in names + ["C6pq"]:
        M = catalog.build_verified(name)
        for i in range(6):
            total = sum(
                1
                for k in range(6)
                if k != i and M[i][k] * M[i][k].reciprocal() == Monomial()
            )
            assert total == 5
    report(
        "[PASS] criterion 2: conference identity exact for the p,q family "
        "(verified form; verbatim print flagged) and C6a-C6g; diagonal sums = 5"
    )


def test_c03_doubling_soundness():
    rng = random.Random(SEED)
    sources = [f"C6{x}" for x in "abcdefg"]
    t0 = time.monotonic()
    checked = 0
    for name in sources:
        C = catalog.build(name)
        for _ in range(100):
            diag = [
                Monomial(
                    rng.randrange(4),
                    ((rng.choice("abcdef"), rng.choice((-2, -1, 1, 2))),),
                )
                for _ in range(6)
            ]
            doubled = double_orthogonal(scale_columns(C, diag))
            result = check_inverse_orthogonal(doubled)
            assert result, f"{name} scaling #{checked}: {result.describe()}"
            checked += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0, f"doubling property run took {elapsed:.1f} s"
    report(
        f"[PASS] criterion 3: {checked} random column scalings doubled and "
        f"verified with diagonal 12 in {elapsed:.1f} s"
    )


def test_c04_exact_hadamard_checks():
    flagged = []
    for x in "abcdefg":
        name = f"H12{x}"
        printed = to_butson(catalog.build(name))
        expected_order = 2 if x in "abc" else 4
        result = check_hadamard(printed)
        if result:
            assert printed.m <= expected_order
            continue
        rep = catalog.reconcile(name)
        assert rep.printed.witness is not None, f"{name} flag lacks a witness cell"
        verified = to_butson(catalog.build_verified(name))
        assert verified.m <= expected_order
        assert check_hadamard(verified), f"{name} verified form must pass exactly"
        flagged.append(name)
    assert flagged == ["H12b", "H12d"]
    report(
        "[PASS] criterion 4: H12a/c real and H12e-g fourth-root prints pass "
        "exactly; H12b and H12d flagged with first failing cell and verified "
        "overrides pass"
    )


def test_c05_continuous_family_numeric():
    rng = random.Random(SEED)
    r6 = catalog.build_verified("R12_6")
    r7 = catalog.build_verified("R12_7")
    worst = 0.0
    for x in "abcdefg":
        base = catalog.build_verified(f"H12{x}")
        for _ in range(100):
            phases = {s: rng.uniform(-3.2, 3.2) for s in "abcdef"}
            resid = max_gram_residual(eval_exponent_form(base, r6, phases))
            worst = max(worst, resid)
            assert resid < 1e-10
    base = catalog.build_verified("H12a")
    for _ in range(100):
        phases = {s: rng.uniform(-3.2, 3.2) for s in "abcdefg"}
        resid = max_gram_residual(eval_exponent_form(base, r7, phases))
        worst = max(worst, resid)
        assert resid < 1e-10
    # g = 0 collapses the seven-phase pattern onto the six-phase one
    for _ in range(10):
        phases = {s: rng.uniform(-3.2, 3.2) for s in "abcdef"}
        lhs = eval_exponent_form(base, r7, dict(phases, g=0.0))
        rhs = eval_exponent_form(base, r6, phases)
        assert np.max(np.abs(np.array(lhs.rows) - np.array(rhs.rows))) < 1e-12
    report(
        f"[PASS] criterion 5: 800 seeded family points all Hadamard "
        f"(worst residual {worst:.2e} < 1e-10); g=0 matches the six-phase "
        "pattern to 1e-12"
    )


def _conference_transforms(A, B):
    """Brute force: every monomial transform of A onto B with zero diagonals.

    Zeros must land on zeros, so rows and columns share one permutation.  With
    the first row scaling fixed at 0, the off-diagonal cells determine all the
    other scalings; ``maps`` then checks every cell.
    """
    n, m = A.n, A.m
    for s in permutations(range(n)):
        d = [
            [None if i == j else (v - A.logs[s[i]][s[j]]) % m for j, v in enumerate(r)]
            for i, r in enumerate(B.logs)
        ]
        cols = [0] + d[0][1:]
        rows = [0, (d[1][2] - cols[2]) % m]
        rows += [(d[i][1] - cols[1]) % m for i in range(2, n)]
        cols[0] = (d[1][0] - rows[1]) % m
        T = MonomialTransform(m, s, s, tuple(rows), tuple(cols))
        if T.maps(A, B):
            yield T


def test_c06_nonequivalence_evidence():
    """Nonequivalence evidence among the printed displays, every verdict justified."""
    letters = "abcdefg"
    H = {x: to_butson(catalog.build_verified(f"H12{x}")) for x in letters}
    fp = {x: fingerprint(H[x]) for x in letters}

    # The fingerprint is an exact invariant of monomial equivalence, so it
    # must agree with the frozen classes: equal inside a class, and three
    # distinct values in all.
    for i, x in enumerate(letters):
        for y in letters[i + 1 :]:
            same = VERDICT_CLASSES[x] == VERDICT_CLASSES[y]
            assert (fp[x] == fp[y]) == same, (x, y)
    assert len(set(fp.values())) == 3
    # H12a-c are real, and all real Hadamard matrices of order 12 are
    # equivalent: that is why their fingerprints cannot be pairwise distinct.
    assert all(H[x].reduce_order().m == 2 for x in "abc")
    # H12d-g have a quadruple product at an odd power of zeta4, i.e. a
    # non-real one, which no monomial image of a real matrix has.
    for x in "defg":
        assert fp[x].m == 4 and any(k % 2 for k, _ in fp[x].counts), x

    # The full verdict matrix: witnesses inside a class, invariant mismatch
    # across classes, never unknown.
    for i, x in enumerate(letters):
        for y in letters[i + 1 :]:
            verdict = are_equivalent(H[x], H[y])
            if VERDICT_CLASSES[x] == VERDICT_CLASSES[y]:
                assert verdict.equivalent, (x, y, verdict.status)
                assert verdict.witness.maps(H[x], H[y]), (x, y)
            else:
                assert verdict.inequivalent, (x, y, verdict.status)
                assert verdict.reason == "fingerprint mismatch", (x, y)

    # C6b.sym is C6a.sym with rows 4,5 and columns 4,5 swapped, so C6a and
    # C6b are equivalent whatever the search does.
    ca, cb = to_butson(catalog.build("C6a")), to_butson(catalog.build("C6b"))
    swap = (0, 1, 2, 3, 5, 4)
    swap45 = MonomialTransform(2, swap, swap, (0,) * 6, (0,) * 6)
    assert swap45.maps(ca, cb)
    assert swap45 in set(_conference_transforms(ca, cb))
    assert conference_fingerprint(ca) == conference_fingerprint(cb)
    ab = are_equivalent(ca, cb)
    assert ab.equivalent and ab.witness.row_perm == ab.witness.col_perm
    assert ab.witness.maps(ca, cb)

    # C6g.sym is the entrywise conjugate of C6f.sym.  Conjugation negates
    # every quadruple log and C6f's multiset is symmetric under that, so the
    # fingerprints tie and only a completed search separates them; the brute
    # force over all 720 permutations agrees that no transform exists.
    cf, cg = to_butson(catalog.build("C6f")), to_butson(catalog.build("C6g"))
    conj = tuple(tuple(None if v is None else -v % cf.m for v in r) for r in cf.logs)
    assert cg.logs == conj
    assert conference_fingerprint(cf) == conference_fingerprint(cg)
    fg = are_equivalent(cf, cg)
    assert fg.inequivalent and fg.reason == "exhausted search", fg.status
    assert next(_conference_transforms(cf, cg), None) is None

    report(
        "[PASS] criterion 6: H12a-g form classes {a,b,c} {d,e} {f,g} "
        "(verified witnesses inside, fingerprint mismatch across); C6b is the "
        "(4,5) swap of C6a; C6f and C6g inequivalent by exhausted search"
    )


def test_c07_equivalence_search_soundness():
    rng = random.Random(SEED)
    M = to_butson(catalog.build_verified("H12d"))
    slowest = 0.0
    for trial in range(50):
        rp = list(range(12))
        cp = list(range(12))
        rng.shuffle(rp)
        rng.shuffle(cp)
        T = MonomialTransform(
            M.m,
            tuple(rp),
            tuple(cp),
            tuple(rng.randrange(M.m) for _ in range(12)),
            tuple(rng.randrange(M.m) for _ in range(12)),
        )
        transformed = T.apply(M)
        t0 = time.monotonic()
        verdict = are_equivalent(M, transformed)
        elapsed = time.monotonic() - t0
        slowest = max(slowest, elapsed)
        assert verdict.equivalent, f"trial {trial}: {verdict.status}"
        assert verdict.witness.maps(M, transformed)
        assert elapsed < 60.0
    report(
        f"[PASS] criterion 7: 50 random transforms of H12d recovered with "
        f"verified witnesses (slowest search {slowest:.2f} s < 60 s)"
    )


def test_c08_search_reproduction():
    t0 = time.monotonic()
    empty = search_bordered_circulant(6, 1)
    real = search_bordered_circulant(6, 2)
    fourth = search_bordered_circulant(6, 4)
    elapsed = time.monotonic() - t0
    assert (None, 0, 1, 1, 0) in real  # (0, 1, -1, -1, 1)
    assert (None, 0, 1, 3, 2) in fourth  # (0, 1, i, -i, -1)
    assert (None, 0, 3, 1, 2) in fourth  # (0, 1, -i, i, -1)
    assert len(empty) == SEARCH_COUNTS[(6, 1)]
    assert len(real) == SEARCH_COUNTS[(6, 2)]
    assert len(fourth) == SEARCH_COUNTS[(6, 4)]
    assert elapsed < 5.0, f"search took {elapsed:.1f} s"
    report(
        f"[PASS] criterion 8: searches reproduce the printed cores; counts "
        f"(6,1)={len(empty)} (6,2)={len(real)} (6,4)={len(fourth)} locked, "
        f"{elapsed:.2f} s < 5 s"
    )


def test_c09_specialization_classification():
    t0 = time.monotonic()
    M = catalog.build_verified("O12a")
    syms = sorted(M.symbols())
    assignments = [
        {s: (bits >> k) & 1 for k, s in enumerate(syms)} for bits in range(64)
    ]
    classes = specialize_and_classify(M, assignments, order=2)
    elapsed = time.monotonic() - t0
    assert sum(c.size for c in classes) == 64  # every sign choice is Hadamard
    assert sorted((c.size for c in classes), reverse=True) == SPECIALIZE_CLASS_SIZES
    for cls in classes:
        assert cls.representative.m == 2
        assert check_hadamard(cls.representative)
        assert not cls.undecided
    assert elapsed < 120.0, f"classification took {elapsed:.1f} s"
    report(
        f"[PASS] criterion 9: all 64 sign specializations of O12a are exact "
        f"real Hadamard matrices forming {len(classes)} class(es) "
        f"(sizes {[c.size for c in classes]}, {elapsed:.1f} s < 2 min)"
    )


def test_c10_round_trip_and_reconcile_all():
    for name in catalog.names():
        if catalog.kind(name) == "family":
            continue
        printed = catalog.build(name)
        assert parse_matrix(emit_matrix(printed)) == printed, name
    from confhad.cli import main

    code = main(["reconcile", "--all"])
    assert code == 0
    reports = catalog.reconcile_all()
    flagged = {r.name for r in reports if not r.clean}
    assert flagged == {
        "C6pq",
        "O12d",
        "O12h",
        "H12b",
        "H12d",
        "R12_7",
        "D12b",
        "D12d",
        "D12h",
    }
    for r in reports:
        if not r.clean and r.printed is not None and not r.printed:
            assert r.printed.witness is not None, r.name
    report(
        "[PASS] criterion 10: every catalog file round-trips structurally and "
        f"reconcile --all exits 0 enumerating {len(flagged)} discrepancies"
    )
