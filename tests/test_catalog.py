import cmath
import dataclasses

import numpy as np
import pytest

from confhad import catalog
from confhad.matrices import (
    ComplexMatrix,
    double_orthogonal,
    eval_exponent_form,
    substitute,
    to_butson,
    transpose,
)
from confhad.equivalence import are_equivalent
from confhad.symbolic import parse_entry
from confhad.verify import check_conference, check_hadamard, check_inverse_orthogonal

E = parse_entry
ONES = {s: "1" for s in "abcdef"}


def to_complex(B):
    """A Butson matrix's cells as floats: zeta_m^c is exp(2 pi i/m)^c."""
    z = cmath.exp(2j * cmath.pi / B.m)
    return ComplexMatrix([[0j if c is None else z**c for c in row] for row in B.logs])


class TestBuild:
    def test_known_cells(self):
        assert catalog.build("C6a")[1][4] == E("-1")
        assert catalog.build("O12a")[2][7] == E("a^-1*c")
        assert catalog.build("H12d")[2][4] == E("-i")

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            catalog.build("C6z")

    def test_every_entry_loads(self):
        for name in catalog.names():
            matrix = catalog.build(name)
            assert matrix.n in (6, 12)

    def test_verified_differs_only_at_repairs(self):
        for name in catalog.names():
            if catalog.kind(name) == "family":
                continue
            printed = catalog.build(name)
            verified = catalog.build_verified(name)
            fixes = {(r.row, r.col) for r in catalog.repairs(name)}
            if not fixes:
                assert printed == verified
                continue
            diff = {
                (i, j)
                for i in range(printed.n)
                for j in range(printed.n)
                if (printed.rows[i][j] if hasattr(printed, "rows") else printed.cells[i][j])
                != (verified.rows[i][j] if hasattr(verified, "rows") else verified.cells[i][j])
            }
            assert diff == fixes


class TestDerive:
    def test_substitution_recipes_reproduce_prints(self):
        for name in ("C6a", "C6b", "C6d"):
            assert catalog.derive(name).rows == catalog.build(name).rows

    def test_c6e_is_the_transpose_of_c6d(self):
        assert catalog.build("C6e") == transpose(catalog.build("C6d"))
        assert catalog.derive("C6e").rows == catalog.build("C6e").rows

    def test_bordered_recipes_reproduce_prints(self):
        for name in ("C6c", "C6f", "C6g"):
            assert catalog.derive(name).rows == catalog.build(name).rows

    def test_substitution_closure_c6d(self):
        sub = substitute(catalog.build_verified("C6pq"), {"p": "i", "q": "i"})
        assert sub.rows == catalog.build("C6d").rows

    def test_derived_orthogonal_families_verify(self):
        for x in "abcdefgh":
            derived = catalog.derive(f"O12{x}")
            assert check_inverse_orthogonal(derived)

    def test_derived_o12h_has_seven_printed_symbols_plus_gauge(self):
        M = catalog.derive("O12h")
        assert M.symbols() == set("abcdefgp")

    def test_hadamard_recipes_are_all_ones_points(self):
        for x in "abcdefg":
            lhs = catalog.derive(f"H12{x}")
            rhs = substitute(catalog.build_verified(f"O12{x}"), ONES)
            assert lhs.rows == rhs.rows

    def test_doubled_conference_is_equivalent_where_expected(self):
        # the real and skew sources double straight onto the printed class
        for x in "abcfg":
            doubled = to_butson(double_orthogonal(catalog.build(f"C6{x}")))
            assert check_hadamard(doubled)
            printed = to_butson(catalog.build_verified(f"H12{x}"))
            assert are_equivalent(doubled, printed).equivalent

    def test_doubled_c6d_lands_at_another_family_point(self):
        # printed H12d is the derived family at a=i, not at all-ones
        doubled = to_butson(double_orthogonal(catalog.build("C6d")))
        printed = to_butson(catalog.build_verified("H12d"))
        assert check_hadamard(doubled)
        assert are_equivalent(doubled, printed).inequivalent

    def test_printed_only_entries_reject_derive(self):
        for name in ("C6pq", "R12_6", "R12_7"):
            with pytest.raises(ValueError, match="printed-only"):
                catalog.derive(name)
        with pytest.raises(ValueError, match="family"):
            catalog.derive("D12a")


class TestFamilies:
    def test_zero_phases_reproduce_sign_matrices(self):
        for x in "abcdefgh":
            M = catalog.family_matrix(f"D12{x}", {})
            h_name, _ = catalog.family_components(f"D12{x}")
            base = to_complex(to_butson(catalog.build_verified(h_name)))
            assert np.max(np.abs(np.array(M.rows) - np.array(base.rows))) < 1e-15

    def test_components(self):
        assert catalog.family_components("D12b") == ("H12b", "R12_6")
        assert catalog.family_components("D12h") == ("H12a", "R12_7")

    def test_unknown_phase_symbol(self):
        with pytest.raises(KeyError):
            catalog.family_matrix("D12a", {"g": 1.0})


class TestRepairs:
    def test_repaired_entries_fail_verbatim_and_pass_verified(self):
        checkers = {
            "conference": check_conference,
            "orthogonal": check_inverse_orthogonal,
            "hadamard": lambda M: check_hadamard(to_butson(M)),
        }
        for name in ("C6pq", "O12d", "O12h", "H12b", "H12d"):
            checker = checkers[catalog.kind(name)]
            assert not checker(catalog.build(name))
            assert checker(catalog.build_verified(name))

    def test_repaired_exponent_pattern(self):
        H = catalog.build_verified("H12a")
        printed = catalog.build("R12_7")
        fixed = catalog.build_verified("R12_7")
        phases = {s: 0.1 * (k + 1) for k, s in enumerate("abcdefg")}
        assert not check_hadamard(eval_exponent_form(H, printed, phases), tol=1e-10)
        assert check_hadamard(eval_exponent_form(H, fixed, phases), tol=1e-10)

    def test_h12_overrides_match_o12_sources(self):
        for x in "bd":
            verified = catalog.build_verified(f"H12{x}")
            source = substitute(catalog.build_verified(f"O12{x}"), ONES)
            assert verified.rows == source.rows

    def test_unrepaired_prints_all_pass(self):
        checkers = {
            "conference": check_conference,
            "orthogonal": check_inverse_orthogonal,
            "hadamard": lambda M: check_hadamard(to_butson(M)),
        }
        for name in catalog.names():
            k = catalog.kind(name)
            if k in ("family", "exponent") or catalog.repairs(name):
                continue
            assert checkers[k](catalog.build(name)), name


class TestReconcile:
    def test_entrywise_recipes(self):
        # reconcile compares printed and derived forms entrywise, or for
        # orthogonal entries through a reparametrisation fit; nothing else
        report = catalog.reconcile("C6b")
        assert report.printed and report.derived and report.first_diff is None
        derived = [n for n in catalog.names() if catalog.kind(n) != "family" and catalog.recipe_text(n)]
        assert len(derived) == 22
        for name in derived:
            report = catalog.reconcile(name)
            assert report.derived, name
            if report.kind == "orthogonal":
                assert any("printed equals derived under the substitution" in n for n in report.notes), name
            else:
                assert report.first_diff is None, name

    def test_equal_derived_forms_reuse_the_verified_result(self, monkeypatch):
        # checking every derived form takes 84 predicate calls; the 14
        # derived forms equal to their verified form entrywise take its result
        calls = []
        for name in ("check_conference", "check_hadamard", "check_inverse_orthogonal"):
            check = getattr(catalog, name)
            monkeypatch.setattr(catalog, name, lambda M, _check=check: calls.append(M) or _check(M))
        reports = catalog.reconcile_all()
        monkeypatch.undo()
        assert len(calls) == 84 - 14
        reused = [r for r in reports if r.derived is not None and r.first_diff is None]
        assert len(reused) == 14
        checker = {
            "conference": check_conference,
            "orthogonal": check_inverse_orthogonal,
            "hadamard": lambda M: check_hadamard(to_butson(M)),
        }
        for report in reused:
            fresh = checker[report.kind](catalog.derive(report.name))
            assert fresh == report.derived, report.name
            assert dataclasses.replace(report, derived=fresh).format() == report.format()

    def test_h12a_report(self):
        report = catalog.reconcile("H12a")
        assert report.printed and report.derived
        assert report.first_diff is None  # recipe is the all-ones specialization

    def test_o12h_flags_the_row_pair(self):
        report = catalog.reconcile("O12h")
        assert not report.printed
        i, j, _ = report.printed.witness
        assert {i, j} <= {2, 3, 4, 9}  # failure localized to the g-carrying rows
        assert report.verified
        assert {(r.row, r.col) for r in report.repairs} == {(9, 8), (9, 9)}

    def test_reparametrization_notes_for_orthogonal_entries(self):
        for x in "abcdefgh":
            report = catalog.reconcile(f"O12{x}")
            assert any("substitution" in note for note in report.notes)

    def test_reconcile_all_covers_catalog(self):
        reports = catalog.reconcile_all()
        assert [r.name for r in reports] == list(catalog.names())
        flagged = {r.name for r in reports if not r.clean}
        assert flagged == {"C6pq", "O12d", "O12h", "H12b", "H12d", "R12_7", "D12b", "D12d", "D12h"}


def test_exponent_cells_are_unit_affine():
    # transcription guard: every phase cell is a signed sum of symbols
    for name in ("R12_6", "R12_7"):
        M = catalog.build(name)
        for row in M.cells:
            for cell in row:
                if cell is None:
                    continue
                assert cell.const == 0
                assert all(c in (-1, 1) for _, c in cell.terms)


def test_fit_reparametrization_identity():
    M = catalog.build_verified("O12a")
    fit = catalog.fit_reparametrization(M, M)
    assert fit is not None
    mapping, perm = fit
    assert perm == tuple(range(12))
    assert all(str(v) == k for k, v in mapping.items())
