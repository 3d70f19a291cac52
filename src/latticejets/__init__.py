"""Exact-arithmetic toolkit for jets of monomial embeddings, lattice widths,
special toric surfaces, and nef-but-not-semiample screening of weighted
projective 3-spaces."""

__version__ = "0.1.0"

from .polytope import Direction, LatticePolytope, PointConfig  # noqa: F401
from .wps import WeightVector, reproduce_table  # noqa: F401
