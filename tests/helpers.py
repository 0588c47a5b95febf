"""Helpers shared by the test modules."""

import cmath
from contextlib import contextmanager

from confhad import catalog
from confhad.matrices import ComplexMatrix, SymbolicMatrix, to_butson
from confhad.symbolic import parse_entry

E = parse_entry


def to_complex(B):
    """A Butson matrix's cells as floats: zeta_m^c is exp(2 pi i/m)^c."""
    z = cmath.exp(2j * cmath.pi / B.m)
    return ComplexMatrix([[0j if c is None else z**c for c in row] for row in B.logs])


def butson(name):
    return to_butson(catalog.build_verified(name))


def sym(rows):
    return SymbolicMatrix([[E(c) for c in row] for row in rows])


def clear_catalog_caches():
    cached = (catalog._all_repairs, catalog._recipes, catalog.build, catalog.build_verified, catalog.derive)
    for function in cached:
        function.cache_clear()


@contextmanager
def data_text(monkeypatch, filename, text):
    """The catalog reading ``text`` as the packaged data file ``filename``,
    its caches cleared on entry and on exit."""
    real = catalog._data_text
    monkeypatch.setattr(catalog, "_data_text", lambda name: text if name == filename else real(name))
    clear_catalog_caches()
    try:
        yield
    finally:
        monkeypatch.undo()
        clear_catalog_caches()
