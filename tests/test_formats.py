import random

import numpy as np
import pytest

from confhad import catalog
from confhad.formats import (
    MAX_BUTSON_ORDER,
    FormatError,
    emit_butson,
    emit_exponent,
    emit_matrix,
    emit_numeric,
    emit_symbolic,
    parse_butson,
    parse_exponent,
    parse_matrix,
    parse_numeric,
    parse_symbolic,
)
from confhad.matrices import ButsonMatrix, ComplexMatrix, to_butson


def test_symbolic_tiny():
    M = parse_symbolic("SYM 2\n0 1\n1 0")
    assert M.n == 2 and M[0][0] is None and str(M[0][1]) == "1"


def test_symbolic_round_trip_catalog():
    M = catalog.build("O12a")
    assert parse_symbolic(emit_symbolic(M)) == M


def test_symbolic_row_length_error():
    with pytest.raises(FormatError, match="1 cells, expected 2"):
        parse_symbolic("SYM 2\n0 q\n1")


def test_symbolic_bad_cell_reports_line():
    with pytest.raises(FormatError, match="line 3"):
        parse_symbolic("SYM 2\n0 1\n1 2q")


def test_symbolic_missing_rows():
    with pytest.raises(FormatError, match="found 1 rows"):
        parse_symbolic("SYM 2\n0 1")


def test_butson_tiny():
    M = parse_butson("BH 2 2\n0 0\n0 1")
    arr = np.array(M.to_complex().rows)
    assert np.allclose(arr, [[1, 1], [1, -1]])


def test_butson_round_trip_exact():
    M = ButsonMatrix(12, [[None, 3, 7], [11, None, 0], [1, 2, None]])
    assert parse_butson(emit_butson(M)) == M


def test_butson_rejects_out_of_range():
    with pytest.raises(FormatError, match="outside"):
        parse_butson("BH 2 2\n0 2\n0 1")
    with pytest.raises(FormatError, match="bad log"):
        parse_butson("BH 2 2\n0 x\n0 1")


def test_butson_order_is_bounded():
    assert parse_butson(f"BH 1 {MAX_BUTSON_ORDER}\n{MAX_BUTSON_ORDER - 1}\n").m == MAX_BUTSON_ORDER
    with pytest.raises(FormatError, match=f"line 1: order {MAX_BUTSON_ORDER + 1} above"):
        parse_butson(f"BH 2 {MAX_BUTSON_ORDER + 1}\n0 0\n0 1\n")


def test_butson_emitted_catalog_has_no_zeros():
    H = to_butson(catalog.build_verified("H12f"))
    text = emit_butson(H)
    assert "z" not in text.splitlines()[1]
    body = text.splitlines()[1:]
    cells = {c for line in body for c in line.split()}
    assert cells <= {"0", "1", "2", "3"}


def test_numeric_round_trip_exact_bits():
    rng = np.random.default_rng(42)
    arr = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    M = ComplexMatrix(arr)
    back = parse_numeric(emit_numeric(M))
    assert np.array_equal(np.array(back.rows), np.array(M.rows))  # repr round-trips floats exactly


def test_numeric_round_trip_is_equal():
    phases = {s: 0.5 * k - 1.3 for k, s in enumerate("abcdefg")}
    for M in (
        catalog.family_matrix("D12h", phases),
        to_butson(catalog.build_verified("H12c")).to_complex(),
        ComplexMatrix([[-0.0, complex(1e-300, -2.5)], [float("inf"), 3j]]),
    ):
        assert parse_numeric(emit_numeric(M)) == M
    assert ComplexMatrix([[1]]) != ComplexMatrix([[1 + 1e-16j]])


def test_numeric_round_trip_is_equal_on_finite_cells():
    rng = random.Random(8)
    specials = (0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1.7976931348623157e308, 0.1)
    for n in (1, 2, 5):
        cells = specials + tuple(rng.uniform(-1e3, 1e3) for _ in range(2 * n * n))
        M = ComplexMatrix([[complex(rng.choice(cells), rng.choice(cells)) for _ in range(n)] for _ in range(n)])
        assert parse_numeric(emit_numeric(M)) == M


def test_numeric_emit_is_fixed_by_the_round_trip():
    # nan != nan, so a NaN cell never parses back equal; its text does
    nan, inf = float("nan"), float("inf")
    M = ComplexMatrix([[complex(nan, 0), complex(-nan, inf)], [complex(1, nan), complex(-inf, -0.0)]])
    text = emit_numeric(M)
    assert emit_numeric(parse_numeric(text)) == text
    assert parse_numeric(text) != M
    assert emit_matrix(parse_matrix(text)) == text


def test_signed_integers_and_special_floats_still_parse():
    assert parse_butson("BH 2 4\n0 +3\n-0 z").logs == ((0, 3), (0, None))
    assert str(parse_symbolic("SYM 1\n-i*a^-2*b^+3")[0][0]) == "-i*a^-2*b^3"
    cells = parse_numeric("NUM 2\nnan,inf -Infinity,1e-5\n.5,+2 1E3,-0.0").rows
    assert str(cells) == "(((nan+infj), (-inf+1e-05j)), ((0.5+2j), (1000-0j)))"


def test_numeric_rejects_malformed():
    with pytest.raises(FormatError, match="re,im"):
        parse_numeric("NUM 1\n1.0")


def test_exponent_round_trip():
    R = catalog.build("R12_7")
    assert parse_exponent(emit_exponent(R)) == R


def test_exponent_bullet_distinct_from_zero():
    R = parse_exponent("EXP 2\n. 0\n0 .")
    assert R.cells[0][0] is None and R.cells[0][1] is not None
    assert R.phase(0, 0, {}) == R.phase(0, 1, {}) == 0.0
    assert emit_exponent(R).splitlines()[1].split() == [".", "0"]


def test_dispatch_and_unknown_header():
    assert parse_matrix("SYM 1\n1").n == 1
    assert parse_matrix("BH 1 1\n0").n == 1
    with pytest.raises(FormatError, match="unknown matrix header"):
        parse_matrix("XYZ 1\n1")


def test_every_catalog_file_round_trips():
    for name in catalog.names():
        if catalog.kind(name) == "family":
            continue
        for M in (catalog.build(name), catalog.build_verified(name)):
            text = emit_matrix(M)
            assert parse_matrix(text) == M
            assert emit_matrix(parse_matrix(text)) == text


# (parser, text, the full str of its FormatError); cell errors sit on line 3
# or later, and blank lines count, so the line prefix is checked too
FORMAT_ERRORS = [
    (parse_matrix, "", "line 1: unknown matrix header ''"),
    (parse_matrix, "XYZ 1\n1", "line 1: unknown matrix header 'XYZ'"),
    (parse_symbolic, "", "empty input"),
    (parse_symbolic, "EXP 1\n0", "line 1: expected 'SYM' header, got 'EXP 1'"),
    (parse_symbolic, "SYM\n0", "line 1: malformed SYM header 'SYM'"),
    (parse_symbolic, "SYM 2 2\n0 1\n1 0", "line 1: malformed SYM header 'SYM 2 2'"),
    (parse_symbolic, "SYM two\n0 1\n1 0", "line 1: bad dimension 'two'"),
    (parse_symbolic, "SYM 0\n", "line 1: bad dimension 0"),
    (parse_symbolic, "SYM 2\n0 1\n\n1", "line 4: row has 1 cells, expected 2"),
    (parse_symbolic, "SYM 2\n0 1", "found 1 rows, expected 2"),
    (parse_symbolic, "SYM 2\n0 1\n1 0\n1 1", "found 3 rows, expected 2"),
    (parse_symbolic, "SYM 2\n0 1\n\n1 2q", "line 4: invalid factor '2q' in '2q'"),
    (parse_exponent, "EXP 2 x\n. 0\n0 .", "line 1: malformed EXP header 'EXP 2 x'"),
    (parse_exponent, "EXP 2\n. a\n\nb-a e+*a", "line 4: bad phase cell 'e+*a'"),
    (parse_butson, "BH 2\n0 0\n0 1", "line 1: malformed BH header 'BH 2'"),
    (parse_butson, "BH 2 two\n0 0\n0 1", "line 1: bad root order 'two'"),
    (parse_butson, "BH 2 0\n0 0\n0 1", "line 1: bad root order 0"),
    (parse_butson, "BH 2 1025\n0 0\n0 1", "line 1: order 1025 above 1024"),
    (parse_butson, "BH 2 4\n0 0\n\n0 x", "line 4: bad log entry 'x'"),
    (parse_butson, "BH 2 4\n0 0\n\n0 1.0", "line 4: bad log entry '1.0'"),
    (parse_butson, "BH 2 4\n0 0\n\nz 4", "line 4: log 4 outside [0, 4)"),
    (parse_butson, "BH 2 4\n0 0\n\n-1 z", "line 4: log -1 outside [0, 4)"),
    (parse_numeric, "NUM 1 1\n1,0", "line 1: malformed NUM header 'NUM 1 1'"),
    (parse_numeric, "NUM 2\n1,0 0,1\n\n1,0 1.0", "line 4: expected re,im pair, got '1.0'"),
    (parse_numeric, "NUM 2\n1,0 0,1\n\n1,x 1,0", "line 4: bad complex pair '1,x'"),
    (parse_numeric, "NUM 2\n1,0 0,1\n\n1,0 1,0,0", "line 4: bad complex pair '1,0,0'"),
    # int() and float() take underscores and non-ASCII digits; the formats do not
    (parse_butson, "BH 1_0 2\n" + "0 " * 10, "line 1: bad dimension '1_0'"),
    (parse_butson, "BH 2 2_0\n0 0\n0 1", "line 1: bad root order '2_0'"),
    (parse_butson, "BH 2 \u0664\n0 0\n0 1", "line 1: bad root order '\u0664'"),
    (parse_butson, "BH 2 4\n0 0\n\n0 \u0663", "line 4: bad log entry '\u0663'"),
    (parse_butson, "BH 2 20\n0 0\n\n0 1_0", "line 4: bad log entry '1_0'"),
    (parse_symbolic, "SYM \u0661\n1", "line 1: bad dimension '\u0661'"),
    (parse_symbolic, "SYM 1\na^1_0", "line 2: invalid exponent in factor 'a^1_0'"),
    (parse_symbolic, "SYM 1\na^\u0662", "line 2: invalid exponent in factor 'a^\u0662'"),
    (parse_numeric, "NUM 1\n1_0,\u0663", "line 2: bad complex pair '1_0,\u0663'"),
    (parse_numeric, "NUM 2\n1,0 0,1\n\n1,0 0,1_0", "line 4: bad complex pair '0,1_0'"),
    (parse_numeric, "NUM 2\n1,0 0,1\n\n1,0 \u0661,0", "line 4: bad complex pair '\u0661,0'"),
]


@pytest.mark.parametrize("parse, text, message", FORMAT_ERRORS)
def test_format_error_text(parse, text, message):
    with pytest.raises(FormatError) as exc:
        parse(text)
    assert str(exc.value) == message


@pytest.mark.parametrize("cell", ["-+a", "--a", "a-", "a+", "ab", "a3", "a2b", "\u00e9", "+", "3.5", "2*a"])
def test_exponent_rejects_malformed_phase_cells(cell):
    with pytest.raises(FormatError) as exc:
        parse_exponent(f"EXP 2\n. 0\n\n0 {cell}")
    assert str(exc.value) == f"line 4: bad phase cell {cell!r}"
