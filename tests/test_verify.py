import random

import numpy as np
import pytest

from confhad import catalog
from confhad.matrices import (
    ButsonMatrix,
    ComplexMatrix,
    bordered_circulant,
    double_orthogonal,
    eval_complex,
    scale_columns,
    to_butson,
    transpose,
)
from confhad.symbolic import Monomial
from confhad.verify import (
    VerificationResult,
    check_conference,
    check_hadamard,
    check_inverse_orthogonal,
)

from helpers import E, sym, to_complex


class TestInverseOrthogonal:
    def test_printed_catalog_family_passes(self):
        assert check_inverse_orthogonal(catalog.build("O12a"))

    def test_all_ones_fails_with_witness(self):
        result = check_inverse_orthogonal(sym([["1", "1"], ["1", "1"]]))
        assert not result
        i, j, poly = result.witness
        assert (i, j) == (0, 1)
        assert str(poly) == "2"

    def test_small_hadamard_passes(self):
        assert check_inverse_orthogonal(sym([["1", "1"], ["1", "-1"]]))

    def test_zero_cell_is_an_error(self):
        for rows, cell in (([["0", "1"], ["1", "1"]], (0, 0)), ([["1", "1"], ["1", "0"]], (1, 1))):
            result = check_inverse_orthogonal(sym(rows))
            assert not result and result.witness == (*cell, "zero cell")
            assert result.describe() == f"fail at ({cell[0]},{cell[1]}): zero cell [not unimodular]"

    def test_witness_accompanies_failure_only(self):
        with pytest.raises(ValueError):
            VerificationResult(True, (0, 0, "x"))
        with pytest.raises(ValueError):
            VerificationResult(False, None)


class TestConference:
    def test_two_parameter_family_passes_free(self):
        assert check_conference(catalog.build_verified("C6pq"))

    def test_printed_c6c_passes(self):
        assert check_conference(catalog.build("C6c"))

    def test_diagonal_sums_are_order_minus_one(self):
        # the diagonal target n-1 is what the off-diagonal zero structure forces
        C = catalog.build("C6c")
        recips = [[None if c is None else c.reciprocal() for c in row] for row in C.rows]
        for i in range(6):
            total = sum(
                1 for k in range(6) if k != i and C[i][k] * recips[i][k] == Monomial()
            )
            assert total == 5

    def test_all_ones_core_fails(self):
        bad = bordered_circulant([E("0"), E("1"), E("1"), E("1"), E("1")])
        # float oracle: rows 2 and 3 are visibly non-orthogonal
        arr = np.array(
            [[0 if c is None else complex(1j ** c.ipow) for c in row] for row in bad.rows]
        )
        assert abs(np.vdot(arr[3], arr[2])) > 1e-9
        assert not check_conference(bad)

    def test_structural_failures_reported_not_raised(self):
        nonzero_diag = sym([["1", "1"], ["1", "1"]])
        result = check_conference(nonzero_diag)
        assert not result and result.message == "structure"
        for matrix in (
            sym([["0", "0", "1"], ["1", "0", "1"], ["1", "1", "0"]]),
            ButsonMatrix(2, [[None, None, 0], [0, None, 0], [0, 0, None]]),
        ):
            result = check_conference(matrix)
            assert not result and result.describe() == "fail at (0,1): zero off-diagonal cell [structure]"

    def test_butson_variant_agrees_with_symbolic(self):
        for name in ("C6a", "C6d", "C6f", "C6g"):
            M = catalog.build(name)
            assert check_conference(M)
            assert check_conference(to_butson(M))

    def test_butson_variant_catches_failure(self):
        bad = ButsonMatrix(2, [[None, 0, 0], [0, None, 0], [0, 0, None]])
        assert not check_conference(bad)


class TestHadamard:
    def test_exact_real_case(self):
        H = to_butson(catalog.build_verified("H12b"))
        assert H.m == 2
        assert check_hadamard(H)

    def test_identity_fails_on_zeros(self):
        eye = ButsonMatrix(2, [[0, None], [None, 0]])
        result = check_hadamard(eye)
        assert not result and "zero" in result.message.lower() or not result.passed

    def test_float_family_point_passes(self):
        phases = dict(zip("abcdef", (0.3, 1.1, -0.7, 2.0, 0.5, -1.9)))
        M = catalog.family_matrix("D12c", phases)
        assert check_hadamard(M, tol=1e-10)

    def test_float_identity_fails(self):
        assert not check_hadamard(ComplexMatrix(np.eye(3)))

    def test_tolerance_must_be_positive(self):
        with pytest.raises(ValueError):
            check_hadamard(ComplexMatrix(np.eye(2)), tol=0)
        for tol in (float("nan"), float("inf")):
            with pytest.raises(ValueError):
                check_hadamard(ComplexMatrix(np.eye(2)), tol=tol)

    def test_float_and_exact_agree_on_catalog(self):
        for x in "abcdefg":
            H = to_butson(catalog.build_verified(f"H12{x}"))
            exact = check_hadamard(H)
            floats = check_hadamard(to_complex(H), tol=1e-10)
            assert exact.passed == floats.passed == True  # noqa: E712


class TestCrossChecks:
    def test_doubling_of_verified_conference_passes(self):
        rng = random.Random(17)
        for name in ("C6a", "C6b", "C6c", "C6d", "C6e", "C6f", "C6g"):
            C = catalog.build(name)
            assert check_conference(C)
            for _ in range(3):
                diag = [
                    Monomial(rng.randrange(4), ((rng.choice("abcdef"), 1),))
                    for _ in range(6)
                ]
                doubled = double_orthogonal(scale_columns(C, diag))
                assert check_inverse_orthogonal(doubled)

    def test_conference_invariant_under_scalings(self):
        rng = random.Random(23)
        C = catalog.build_verified("C6pq")
        diag = [Monomial(rng.randrange(4), ((s, -1),)) for s in "abcdef"]
        assert check_conference(transpose(scale_columns(transpose(C), diag)))
        assert check_conference(scale_columns(C, diag))

    def test_symbolic_pass_implies_numeric_pass_at_units(self):
        rng = random.Random(29)
        for x in "abcdefgh":
            M = catalog.build_verified(f"O12{x}")
            assert check_inverse_orthogonal(M)
            assignment = {
                s: np.exp(1j * rng.uniform(-3.2, 3.2)) for s in sorted(M.symbols())
            }
            assert check_hadamard(eval_complex(M, assignment), tol=1e-10)
