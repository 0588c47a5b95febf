"""Exact construction, verification, cataloguing and equivalence testing of
conference matrices, inverse orthogonal matrices and complex Hadamard
matrices."""

__version__ = "0.1.0"
