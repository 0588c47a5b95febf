"""Exact construction, verification, cataloguing and equivalence testing of
conference matrices, inverse orthogonal matrices and complex Hadamard
matrices."""

from .symbolic import Entry, Monomial, ONE, parse_entry
from .cyclotomic import cyclotomic_polynomial
from .matrices import (
    AffinePhase,
    ButsonMatrix,
    ComplexMatrix,
    ExponentMatrix,
    SymbolicMatrix,
    bordered_circulant,
    circulant,
    conference_inverse,
    dephase,
    double_orthogonal,
    eval_complex,
    eval_exact,
    eval_exponent_form,
    scale_columns,
    substitute,
    to_butson,
    transpose,
)
from .verify import (
    VerificationResult,
    check_conference,
    check_hadamard,
    check_inverse_orthogonal,
)
from .equivalence import (
    EquivalenceVerdict,
    Fingerprint,
    MonomialTransform,
    are_equivalent,
    conference_fingerprint,
    fingerprint,
    specialize_and_classify,
)
from .search import search_bordered_circulant, search_circulant, symmetry_reduce

__version__ = "0.1.0"
