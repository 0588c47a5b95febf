"""The float Hadamard check against the ndarray-based check it replaced.

``ComplexMatrix`` holds plain ``complex`` rows and ``_check_hadamard_complex``
builds its array from them.  The oracles below are the earlier code, which
evaluated a family straight into an ndarray and checked that array.  The
cells must agree bit for bit and ``describe()`` must agree exactly, since
``reconcile`` prints the residual digits and the cell they name.
"""

import cmath
import random

import numpy as np
import pytest

from confhad import catalog
from confhad.matrices import ComplexMatrix, eval_exponent_form
from confhad.verify import DEFAULT_TOL, VerificationResult, check_hadamard

SEEDS = (catalog.DEFAULT_SEED, 0, 1, 2, 3, 7, 11, 99)
TOLS = (DEFAULT_TOL, 1e-15)  # the tighter one makes passing points print residuals


def _fail(i, j, detail, message):
    return VerificationResult(False, (i, j, detail), message)


def oracle_eval(base, exponents, phases):
    arr = np.empty((base.n, base.n), dtype=complex)
    for i in range(base.n):
        for j in range(base.n):
            cell = base.rows[i][j]
            if cell is None:
                arr[i, j] = 0
                continue
            unit = 1j**cell.ipow
            arr[i, j] = unit * cmath.exp(1j * exponents.phase(i, j, phases))
    return arr


def oracle_check(arr, tol):
    n = arr.shape[0]
    bad = np.argwhere(~np.isfinite(arr))
    if len(bad):
        i, j = int(bad[0][0]), int(bad[0][1])
        return _fail(i, j, complex(arr[i, j]), "not finite")
    mods = np.abs(np.abs(arr) - 1.0)
    worst = np.unravel_index(int(np.argmax(mods)), mods.shape)
    if mods[worst] > tol:
        return _fail(int(worst[0]), int(worst[1]), float(mods[worst]), "not unimodular")
    gram = arr @ arr.conj().T
    resid = np.abs(gram - n * np.eye(n))
    worst = np.unravel_index(int(np.argmax(resid)), resid.shape)
    if resid[worst] > tol:
        return _fail(int(worst[0]), int(worst[1]), float(resid[worst]), "gram residual")
    return VerificationResult(True)


@pytest.mark.parametrize("name", [f"D12{x}" for x in "abcdefgh"])
def test_families_at_seeded_phases(name):
    h_name, r_name = catalog.family_components(name)
    symbols = sorted(catalog.build_verified(r_name).symbols())
    failures = 0
    for verified in (False, True):
        build = catalog.build_verified if verified else catalog.build
        base, expo = build(h_name), build(r_name)
        for seed in SEEDS:
            rng = random.Random(seed)
            phases = {s: rng.uniform(-3.2, 3.2) for s in symbols}
            M = eval_exponent_form(base, expo, phases)
            arr = oracle_eval(base, expo, phases)
            assert np.array(M.rows).tobytes() == arr.tobytes()
            for tol in TOLS:
                got = check_hadamard(M, tol).describe()
                assert got == oracle_check(arr, tol).describe()
                failures += got != "pass"
    assert failures  # residuals and witness cells were compared, not only passes


def _variants(seed):
    """Random unimodular 5x5 matrices with one cell spoiled in turn."""
    rng = random.Random(seed)
    rows = [[cmath.exp(1j * rng.uniform(-3.2, 3.2)) for _ in range(5)] for _ in range(5)]
    yield rows
    nan, inf = float("nan"), float("inf")
    for bad in (nan, complex(0, nan), inf, -inf, complex(1, -inf), 0, 2.0, 1 + 1e-9):
        spoiled = [list(row) for row in rows]
        spoiled[rng.randrange(5)][rng.randrange(5)] = bad
        yield spoiled


@pytest.mark.parametrize("seed", range(6))
def test_non_finite_and_non_unimodular_cells(seed):
    for rows in _variants(seed):
        M = ComplexMatrix(rows)
        for tol in (*TOLS, 1e-6, 10.0):
            expected = oracle_check(np.array(rows, dtype=complex), tol).describe()
            assert check_hadamard(M, tol).describe() == expected


def test_families_at_zero_phases():
    for name in (f"D12{x}" for x in "abcdefgh"):
        M = catalog.family_matrix(name, {})
        for tol in TOLS:
            expected = oracle_check(np.array(M.rows), tol).describe()
            assert check_hadamard(M, tol).describe() == expected
