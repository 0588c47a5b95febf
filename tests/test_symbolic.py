import cmath
import random

import pytest
from hypothesis import given, strategies as st

from confhad.matrices import SymbolicMatrix, eval_exact
from confhad.symbolic import (
    Monomial,
    ONE,
    entry_str,
    parse_entry,
)

SYMS = "abcdefg"


def mono(text):
    m = parse_entry(text)
    assert m is not None
    return m


monomials = st.builds(
    Monomial,
    st.integers(min_value=0, max_value=3),
    st.lists(
        st.tuples(st.sampled_from(SYMS), st.integers(min_value=-3, max_value=3)),
        max_size=4,
    ),
)


class TestMonomial:
    def test_mul_examples(self):
        assert mono("i*a") * mono("i*a") == mono("-a^2")
        assert mono("b*a^-1") * mono("a") == mono("b")

    def test_mul_cancellation_against_float_oracle(self):
        # (-i*c/a) * (i*a/c) should be exactly 1; check the claim numerically
        x, y = mono("-i*c*a^-1"), mono("i*a*c^-1")
        a, c = 2.0, 3.0
        lhs = (-1j * c / a) * (1j * a / c)
        assert abs(lhs - 1) < 1e-15
        assert x * y == ONE

    def test_reciprocal_examples(self):
        assert mono("i*a").reciprocal() == mono("-i*a^-1")
        assert ONE.reciprocal() == ONE
        assert mono("-b*a^-1").reciprocal() == mono("-a*b^-1")

    @given(monomials)
    def test_reciprocal_inverts(self, m):
        assert m * m.reciprocal() == ONE

    @given(monomials, monomials)
    def test_mul_commutes(self, x, y):
        assert x * y == y * x

    @given(monomials, monomials, monomials)
    def test_mul_associates(self, x, y, z):
        assert (x * y) * z == x * (y * z)

    def test_pow_and_neg(self):
        assert mono("i*a") * mono("i*a") == mono("-a^2")
        assert -mono("b") == mono("-b")
        assert mono("a") * mono("a").reciprocal() == ONE

    def test_substitute(self):
        m = mono("b*a^-1")
        assert m.substitute({"a": mono("i"), "b": mono("-1")}) == mono("i")
        # unmapped symbols stay formal
        assert m.substitute({"b": mono("c")}) == mono("c*a^-1")

    def test_rejects_bad_symbols(self):
        with pytest.raises(ValueError):
            Monomial(0, (("i", 1),))
        with pytest.raises(ValueError):
            Monomial(0, (("A", 1),))


class TestEvaluation:
    def test_eval_complex_direct(self):
        v = mono("a").eval_complex({"a": cmath.exp(1j * cmath.pi / 3)})
        assert abs(v - complex(0.5, 3**0.5 / 2)) < 1e-15

    def test_eval_root_log_matches_float(self):
        # b/a at a=i, b=-1 in 4th roots: -1/i = i
        B = eval_exact(SymbolicMatrix([[mono("b*a^-1")]]), {"a": 1, "b": 2}, 4)
        assert (B.logs, B.m) == (((1,),), 4)
        numeric = mono("b*a^-1").eval_complex({"a": 1j, "b": -1})
        assert abs(numeric - 1j) < 1e-15

    def test_eval_at_all_ones_is_unit(self):
        for text in ("i*a*b^-1", "-c", "a^3"):
            m = mono(text)
            ones = {s: 1 for s in SYMS}
            assert m.eval_complex(ones) == 1j**m.ipow

    def test_eval_errors(self):
        with pytest.raises(KeyError):
            mono("a").eval_complex({})
        with pytest.raises(ValueError):
            mono("a").eval_complex({"a": 0})

    @given(monomials, monomials)
    def test_eval_is_multiplicative(self, x, y):
        rng = random.Random(hash((x, y)) & 0xFFFF)
        assignment = {
            s: cmath.exp(1j * rng.uniform(-3, 3)) for s in SYMS
        }
        lhs = (x * y).eval_complex(assignment)
        rhs = x.eval_complex(assignment) * y.eval_complex(assignment)
        assert abs(lhs - rhs) < 1e-12


class TestParsing:
    @pytest.mark.parametrize(
        "text", ["0", "1", "-1", "i", "-i", "a", "-i*c*a^-1", "b^2", "-a*b*c^-3"]
    )
    def test_round_trip(self, text):
        entry = parse_entry(text)
        assert parse_entry(entry_str(entry)) == entry

    @pytest.mark.parametrize("text,ipow", [("i*1", 1), ("-i*1", 3)])
    def test_unit_factor_after_i(self, text, ipow):
        assert parse_entry(text) == Monomial(ipow)

    def test_canonical_emit_sorts_symbols(self):
        assert entry_str(parse_entry("c*a^-1*b")) == "a^-1*b*c"

    @pytest.mark.parametrize("text", ["", "i*", "2*a", "a^", "a**b", "x y", "-0"])
    def test_rejects_garbage(self, text):
        with pytest.raises(ValueError):
            parse_entry(text)


# The validating arithmetic the fast paths replaced: every result goes back
# through the public constructor, which merges, drops zero exponents, sorts
# and reduces the i-power.
def oracle_mul(x, y):
    return Monomial(x.ipow + y.ipow, x.exps + y.exps)


def oracle_neg(x):
    return Monomial(x.ipow + 2, x.exps)


def oracle_reciprocal(x):
    return Monomial(-x.ipow, tuple((s, -e) for s, e in x.exps))


def oracle_pow(x, n):
    return Monomial(x.ipow * n, tuple((s, e * n) for s, e in x.exps))


def oracle_substitute(x, mapping):
    out = Monomial(x.ipow)
    for sym, e in x.exps:
        val = mapping.get(sym)
        out = oracle_mul(out, Monomial.symbol(sym, e) if val is None else oracle_pow(val, e))
    return out


def seeded_monomial(rng, symbols=SYMS):
    """0-4 factors with exponents -3..3; repeats and zeros merge away."""
    factors = [(rng.choice(symbols), rng.randint(-3, 3)) for _ in range(rng.randint(0, 4))]
    return Monomial(rng.randrange(4), factors)


def seeded_mapping(rng, x):
    """Images for some of x's symbols: a pure i-power, a monomial over other
    symbols, or one that cancels another of x's symbols; the rest unmapped."""
    mapping = {}
    for sym, e in x.exps:
        kind = rng.randrange(4)
        if kind == 0:
            mapping[sym] = Monomial(rng.randrange(4))
        elif kind == 1:
            mapping[sym] = seeded_monomial(rng)
        elif kind == 2:
            others = [(s, k) for s, k in x.exps if s != sym]
            if others:  # sym^e * s^k with sym -> s^(-k/e) when e divides k
                s, k = rng.choice(others)
                mapping[sym] = Monomial(rng.randrange(4), [(s, -k // e)] if k % e == 0 else [(s, -k)])
    return mapping


def assert_same(got, want):
    assert type(got) is Monomial
    assert (got.ipow, got.exps) == (want.ipow, want.exps)
    assert hash(got) == hash(want)
    assert got == parse_entry(str(got))


def test_fast_arithmetic_matches_the_validating_oracle():
    rng = random.Random(2029)
    seen = {"cancel": 0, "unit": 0, "unmapped": 0, "pow0": 0}
    for _ in range(3000):
        x, y = seeded_monomial(rng), seeded_monomial(rng)
        assert_same(x * y, oracle_mul(x, y))
        assert_same(x * x.reciprocal(), ONE)
        assert_same(-x, oracle_neg(x))
        assert_same(x.reciprocal(), oracle_reciprocal(x))
        n = rng.randint(-3, 3)
        power = ONE  # x^n as a chain of |n| products
        for _ in range(abs(n)):
            power = power * (x if n > 0 else x.reciprocal())
        assert_same(power, oracle_pow(x, n))
        seen["pow0"] += n == 0
        mapping = seeded_mapping(rng, x)
        got = x.substitute(mapping)
        assert_same(got, oracle_substitute(x, mapping))
        seen["unmapped"] += any(s not in mapping for s, _ in x.exps)
        seen["unit"] += any(not v.exps for v in mapping.values())
        seen["cancel"] += len(got.exps) < len({s for s, _ in x.exps if s not in mapping})
    assert min(seen.values()) > 50, seen


def test_fast_arithmetic_cancels_to_canonical_units():
    a, b = mono("a*b^-1"), mono("-i*b*a^-1")
    assert_same(a * b, Monomial(3))
    assert_same(mono("b") * mono("a^2"), mono("a^2*b"))  # merged in symbol order
    assert_same(mono("i*a") * mono("i*a").reciprocal(), ONE)
    assert_same(mono("-i*a^2*c").substitute({"a": mono("c^-1"), "c": mono("i*c^2")}), ONE)
