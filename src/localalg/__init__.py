"""Local commutative real algebras: structure, lifting, torus verification."""

from .torus import solve_nullspace

__version__ = "0.1.0"
