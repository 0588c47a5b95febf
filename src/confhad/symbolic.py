"""Exact scalar arithmetic for matrix cells.

A cell value is either zero (represented by ``None``) or a :class:`Monomial`:
a unit coefficient i^k (k mod 4) times a Laurent product of formal parameters,
e.g. ``-i*c*a^-1``.  Cells parse from and print to the text cell grammar and
evaluate in floating point; exact evaluation at roots of unity is
``matrices.eval_exact``.

All values are immutable; operations return new objects.  The constructor
validates, merges and sorts its factors; the arithmetic builds its results
from operands that are already canonical, and does not validate again.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Optional


def is_symbol(name: str) -> bool:
    """Parameter symbols are single lowercase ASCII letters other than 'i'."""
    return len(name) == 1 and name.isascii() and name.islower() and name != "i"


def parse_int(text: str) -> int:
    """An optional sign, then ASCII digits.  Unlike ``int``, it refuses
    underscores, blanks and non-ASCII digits, with a ValueError."""
    digits = text[1:] if text[:1] in ("+", "-") else text
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"invalid integer {text!r}")
    return int(text)


def parse_float(text: str) -> float:
    """``float`` over ASCII text without underscores, which ``float`` would
    take; 'nan' and 'inf' still read.  Raises ValueError."""
    if not text.isascii() or "_" in text:
        raise ValueError(f"invalid number {text!r}")
    return float(text)


# exponent vector: sorted tuple of (symbol, nonzero exponent)
ExpKey = tuple[tuple[str, int], ...]


def merged(terms: Iterable[tuple[str, int]]) -> ExpKey:
    """The exponent vector of a product of factors: the exponents of equal
    symbols summed, zeros dropped, sorted by symbol."""
    sums: dict[str, int] = {}
    for sym, e in terms:
        sums[sym] = sums.get(sym, 0) + e
    return tuple(sorted((s, e) for s, e in sums.items() if e))


class Monomial:
    """i^ipow times a product of parameter powers; never represents zero."""

    __slots__ = ("ipow", "exps")

    def __init__(self, ipow: int = 0, exps: Iterable[tuple[str, int]] = ()) -> None:
        exps = tuple(exps)
        for sym, _ in exps:
            if not is_symbol(sym):
                raise ValueError(f"invalid parameter symbol {sym!r}")
        self.ipow: int = ipow % 4
        self.exps: ExpKey = merged(exps)

    @classmethod
    def symbol(cls, name: str, exp: int = 1) -> "Monomial":
        return cls(0, ((name, exp),))

    def __mul__(self, other: "Monomial") -> "Monomial":
        exps = self.exps
        if not exps:
            exps = other.exps
        elif other.exps:
            exps = merged(exps + other.exps)
        return _canonical((self.ipow + other.ipow) % 4, exps)

    def __neg__(self) -> "Monomial":
        return _canonical((self.ipow + 2) % 4, self.exps)

    def reciprocal(self) -> "Monomial":
        """The monomial r with self * r == 1."""
        return _canonical(-self.ipow % 4, tuple((s, -e) for s, e in self.exps))

    def substitute(self, mapping: Mapping[str, "Monomial"]) -> "Monomial":
        """Replace symbols by unit monomials; unmapped symbols stay formal."""
        ipow = self.ipow
        terms: list[tuple[str, int]] = []
        for sym, e in self.exps:
            val = mapping.get(sym)
            if val is None:
                terms.append((sym, e))
                continue
            ipow += val.ipow * e
            terms += [(s, k * e) for s, k in val.exps]
        return _canonical(ipow % 4, merged(terms))

    def eval_complex(self, assignment: Mapping[str, complex]) -> complex:
        value = 1j**self.ipow
        for sym, e in self.exps:
            if sym not in assignment:
                raise KeyError(f"unassigned symbol {sym!r}")
            v = complex(assignment[sym])
            if v == 0:
                raise ValueError(f"symbol {sym!r} assigned zero")
            value *= v**e
        return value

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Monomial)
            and self.ipow == other.ipow
            and self.exps == other.exps
        )

    def __hash__(self) -> int:
        return hash((self.ipow, self.exps))

    def __str__(self) -> str:
        factors = [sym if e == 1 else f"{sym}^{e}" for sym, e in self.exps]
        if not factors:
            return {0: "1", 1: "i", 2: "-1", 3: "-i"}[self.ipow]
        prefix = {0: "", 1: "i*", 2: "-", 3: "-i*"}[self.ipow]
        return prefix + "*".join(factors)

    def __repr__(self) -> str:
        return f"Monomial({self})"


def _canonical(ipow: int, exps: ExpKey) -> Monomial:
    """A Monomial from an i-power in 0..3 and a sorted vector of valid
    symbols with nonzero exponents, taken as they are: the arithmetic above
    keeps both canonical, so only parsed and public input is validated."""
    mono = object.__new__(Monomial)
    mono.ipow = ipow
    mono.exps = exps
    return mono


ONE = Monomial(0)

# A matrix cell: zero (None) or a unit monomial.
Entry = Optional[Monomial]


def parse_entry(text: str) -> Entry:
    """Parse the cell grammar: ``0`` | ``[-][i*]factor(*factor)*``."""
    s = text.strip()
    if not s:
        raise ValueError("empty cell")
    if s == "0":
        return None
    ipow = 0
    if s.startswith("-"):
        ipow += 2
        s = s[1:]
    if s == "i":
        return Monomial(ipow + 1)
    if s == "1":
        return Monomial(ipow)
    parts = s.split("*")
    start = 0
    if parts[0] == "i":
        ipow += 1
        start = 1
    exps = []
    for part in parts[start:]:
        if not part:
            raise ValueError(f"empty factor in {text!r}")
        if part == "1" and len(parts) - start == 1:
            return Monomial(ipow)
        sym, caret, etxt = part.partition("^")
        if not is_symbol(sym):
            raise ValueError(f"invalid factor {part!r} in {text!r}")
        if caret and not etxt:
            raise ValueError(f"missing exponent in factor {part!r}")
        try:
            e = parse_int(etxt) if etxt else 1
        except ValueError:
            raise ValueError(f"invalid exponent in factor {part!r}") from None
        exps.append((sym, e))
    return Monomial(ipow, exps)


def entry_str(entry: Entry) -> str:
    return "0" if entry is None else str(entry)
