import cmath
import random

import numpy as np
import pytest

from confhad import catalog
from confhad.matrices import (
    AffinePhase,
    ButsonMatrix,
    ComplexMatrix,
    SymbolicMatrix,
    bordered_circulant,
    circulant,
    conference_inverse,
    dephase,
    double_orthogonal,
    eval_complex,
    eval_exact,
    eval_exponent_form,
    parse_phase_cell,
    scale_columns,
    substitute,
    to_butson,
    transpose,
)
from confhad.symbolic import Monomial, parse_entry
from confhad.verify import check_conference, check_inverse_orthogonal, check_hadamard

E = parse_entry


def sym(rows):
    return SymbolicMatrix([[E(c) for c in row] for row in rows])


def to_complex(B):
    """A Butson matrix's cells as floats: zeta_m^c is exp(2 pi i/m)^c."""
    z = cmath.exp(2j * cmath.pi / B.m)
    return ComplexMatrix([[0j if c is None else z**c for c in row] for row in B.logs])


PALEY_CORE = [E("0"), E("1"), E("-1"), E("-1"), E("1")]
SKEW_CORE = [E("0"), E("1"), E("i"), E("-i"), E("-1")]
C2 = bordered_circulant([None])


class TestBuilders:
    def test_circulant_shifts_rows(self):
        M = circulant(PALEY_CORE)
        for i in range(5):
            for j in range(5):
                assert M[i][j] == PALEY_CORE[(j - i) % 5]

    def test_circulant_random_rows_shift(self):
        rng = random.Random(3)
        for _ in range(20):
            n = rng.randint(1, 7)
            row = [Monomial(rng.randrange(4)) for _ in range(n)]
            M = circulant(row)
            for i in range(1, n):
                assert M[i] == tuple(M[i - 1][(j - 1) % n] for j in range(n))

    def test_single_cell(self):
        M = circulant([E("a")])
        assert M.n == 1 and M[0][0] == E("a")

    def test_bordered_circulant_matches_catalog(self):
        assert bordered_circulant(PALEY_CORE) == catalog.build("C6c")
        assert bordered_circulant(SKEW_CORE) == catalog.build("C6f")

    def test_bordered_tiny(self):
        assert C2 == sym([["0", "1"], ["1", "0"]])

    def test_bordered_requires_zero_head(self):
        with pytest.raises(ValueError):
            bordered_circulant([E("1"), E("1")])


class TestReciprocals:
    def test_conference_inverse_symmetric_constants(self):
        c6a = catalog.build("C6a")
        assert conference_inverse(c6a) == c6a
        assert conference_inverse(C2) == C2

    def test_conference_inverse_transposes_reciprocals(self):
        c6pq = catalog.build_verified("C6pq")
        inv = conference_inverse(c6pq)
        # inv[i][j] = reciprocal of the (j,i) cell
        assert inv[1][2] == E("p^-1")
        assert inv[2][4] == E("p^-1*q^-1")  # 1/(p*q) from the (4,2) cell
        assert inv[4][2] == E("p^-1*q")  # 1/(p/q) from the (2,4) cell

    def test_conference_inverse_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            conference_inverse(sym([["1", "1"], ["1", "1"]]))
        with pytest.raises(ValueError):
            conference_inverse(sym([["0", "0"], ["1", "0"]]))


class TestDoubling:
    def test_double_hadamard_c2_block_layout(self):
        H = double_orthogonal(C2)
        expected = sym(
            [
                ["1", "1", "-1", "1"],
                ["1", "1", "1", "-1"],
                ["-1", "1", "-1", "-1"],
                ["1", "-1", "-1", "-1"],
            ]
        )
        assert H == expected
        gram = np.array([[1, 1, -1, 1], [1, 1, 1, -1], [-1, 1, -1, -1], [1, -1, -1, -1]])
        assert np.array_equal(gram @ gram.T, 4 * np.eye(4, dtype=int))

    def test_double_hadamard_c6a_is_real_hadamard(self):
        H = to_butson(double_orthogonal(catalog.build("C6a")))
        assert H.m == 2 and check_hadamard(H)

    def test_double_hadamard_c6f_is_fourth_root(self):
        H = to_butson(double_orthogonal(catalog.build("C6f")))
        assert H.m == 4 and check_hadamard(H)

    def test_double_orthogonal_of_scaled_family_verifies(self):
        scaled = scale_columns(
            catalog.build("C6a"), [Monomial.symbol(s) for s in "abcdef"]
        )
        assert check_inverse_orthogonal(double_orthogonal(scaled))

    def test_double_orthogonal_smallest_case(self):
        scaled = scale_columns(C2, [Monomial.symbol("a"), Monomial.symbol("b")])
        assert check_conference(scaled)
        assert check_inverse_orthogonal(double_orthogonal(scaled))


class TestScaling:
    def test_identity_scaling(self):
        c6a = catalog.build("C6a")
        ones = [E("1")] * 6
        assert scale_columns(c6a, ones) == c6a
        assert transpose(scale_columns(transpose(c6a), ones)) == c6a

    def test_small_example(self):
        assert scale_columns(C2, [E("a"), E("b")]) == sym([["0", "b"], ["a", "0"]])
        rows_scaled = transpose(scale_columns(transpose(C2), [E("a"), E("b")]))
        assert rows_scaled == sym([["0", "a"], ["b", "0"]])

    def test_rejects_zero_factor(self):
        with pytest.raises(ValueError):
            scale_columns(C2, [None, E("1")])

    def test_scaling_preserves_conference(self):
        rng = random.Random(11)
        for name in ("C6a", "C6d", "C6f"):
            C = catalog.build(name)
            for _ in range(5):
                diag = [
                    Monomial(rng.randrange(4), ((rng.choice("abcdef"), rng.choice((-1, 1))),))
                    for _ in range(6)
                ]
                assert check_conference(scale_columns(C, diag))
                assert check_conference(transpose(scale_columns(transpose(C), diag)))


class TestDephase:
    def test_small_example(self):
        M = sym([["a", "a"], ["a", "-a"]])
        assert dephase(M) == sym([["1", "1"], ["1", "-1"]])

    def test_idempotent_on_catalog(self):
        for x in "abcdefgh":
            M = catalog.build_verified(f"O12{x}")
            assert dephase(M) == M  # printed forms are already dephased
            assert check_inverse_orthogonal(dephase(M))

    def test_preserves_inverse_orthogonality(self):
        scaled = scale_columns(
            catalog.build("C6c"), [Monomial.symbol(s) for s in "abcdef"]
        )
        doubled = double_orthogonal(scaled)
        assert check_inverse_orthogonal(dephase(doubled))

    def test_rejects_zeros(self):
        with pytest.raises(ValueError):
            dephase(C2)


class TestExponentEvaluation:
    def test_phase_cell_parsing(self):
        assert parse_phase_cell(".") is None
        assert parse_phase_cell("0") == AffinePhase(0, ())
        assert parse_phase_cell("e+g-a") == AffinePhase(0, (("a", -1), ("e", 1), ("g", 1)))
        assert parse_phase_cell("-2b+3-a+10") == AffinePhase(13, (("a", -1), ("b", -2)))
        assert parse_phase_cell("+0a") == AffinePhase(0, ())
        with pytest.raises(ValueError):
            parse_phase_cell("e+*a")

    def test_zero_phases_reproduce_base(self):
        H = catalog.build_verified("H12a")
        R = catalog.build_verified("R12_6")
        M = eval_exponent_form(H, R, {s: 0.0 for s in "abcdef"})
        base = to_complex(to_butson(H))
        assert np.max(np.abs(np.array(M.rows) - np.array(base.rows))) < 1e-15

    def test_random_phases_stay_hadamard(self):
        rng = random.Random(5)
        H = catalog.build_verified("H12a")
        R = catalog.build_verified("R12_6")
        for _ in range(5):
            phases = {s: rng.uniform(-3.2, 3.2) for s in "abcdef"}
            assert check_hadamard(eval_exponent_form(H, R, phases), tol=1e-10)

    def test_seven_phase_pattern_restricts_to_six(self):
        rng = random.Random(9)
        H = catalog.build_verified("H12a")
        R6 = catalog.build_verified("R12_6")
        R7 = catalog.build_verified("R12_7")
        phases = {s: rng.uniform(-3.2, 3.2) for s in "abcdef"}
        with_g = dict(phases, g=0.0)
        lhs = eval_exponent_form(H, R7, with_g)
        rhs = eval_exponent_form(H, R6, phases)
        assert np.max(np.abs(np.array(lhs.rows) - np.array(rhs.rows))) < 1e-12

    def test_dimension_and_symbol_errors(self):
        H = catalog.build_verified("H12a")
        R = catalog.build_verified("R12_6")
        with pytest.raises(KeyError):
            eval_exponent_form(H, R, {"a": 0.0})
        small = sym([["1", "1"], ["1", "-1"]])
        with pytest.raises(ValueError):
            eval_exponent_form(small, R, {})


class TestEvaluation:
    def test_eval_exact_real_signs(self):
        M = catalog.build_verified("O12a")
        B = eval_exact(M, {s: 0 for s in "abcdef"}, order=2)
        assert B.m == 2
        assert B == to_butson(substitute(M, {s: "1" for s in "abcdef"}))

    def test_eval_exact_mixed_roots(self):
        M = sym([["1", "a"], ["-a", "1"]])
        B = eval_exact(M, {"a": 1}, order=4)  # a = i
        assert B.logs == ((0, 1), (3, 0))

    def test_eval_complex_matches_eval_exact(self):
        M = catalog.build_verified("O12d")
        logs = {s: k for k, s in enumerate("abcdef")}
        exact = to_complex(eval_exact(M, logs, order=12))
        assignment = {s: cmath.exp(2j * cmath.pi * k / 12) for s, k in logs.items()}
        floats = eval_complex(M, assignment)
        assert np.max(np.abs(np.array(exact.rows) - np.array(floats.rows))) < 1e-12

    def test_eval_exact_rejects_non_positive_order(self):
        # order 0 used to divide by zero, order -4 to negate every parameter log
        M = catalog.build_verified("O12a")
        ones = {s: 1 for s in M.symbols()}
        for order in (0, -4):
            with pytest.raises(ValueError, match="order"):
                eval_exact(M, ones, order)


class TestContainers:
    def test_transpose(self):
        M = sym([["1", "a"], ["b", "1"]])
        assert transpose(M) == sym([["1", "b"], ["a", "1"]])

    def test_butson_reduce_and_lift(self):
        B = ButsonMatrix(4, [[0, 2], [2, 0]])
        small = B.reduce_order()
        assert small.m == 2 and small.logs == ((0, 1), (1, 0))
        assert small.lift(4) == B

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            SymbolicMatrix([[E("1"), E("1")]])
        with pytest.raises(ValueError):
            ButsonMatrix(2, [[0, 0]])
