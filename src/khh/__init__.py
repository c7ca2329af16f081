"""Exact-arithmetic workbench for weight-graded homological invariants.

Everything here is computed over the rationals with exact arithmetic:
per-weight slices of normalized bar complexes, Hochschild and cyclic
homology, Hodge splittings, fibers of normalization squares and their
typical pieces, conductor-square Picard groups, and line-bundle
cohomology tables on elliptic curves.
"""

from .rationals import QQ
from .linalg import SparseMatrix, eigenspace
from .algebra import GradedAlgebra, GradedHom, parse_algebra
from .barcomplex import BarChain, SliceContext, parse_chain
from .homology import HomologyEngine, verify_kunneth, verify_cusp_cycles
from .fiber import ResolutionSquare, pic_conductor, nk0_crosscheck, seminormalization
from .curve import EllipticCurve, Point, DivisorClass, DivisorGroup, cusp_bundle_tables
from .errors import (
    KhhError,
    ParseError,
    PreconditionError,
    HypothesisError,
    SanityError,
)

__version__ = "0.1.0"

__all__ = [
    "QQ",
    "SparseMatrix",
    "eigenspace",
    "GradedAlgebra",
    "GradedHom",
    "parse_algebra",
    "BarChain",
    "SliceContext",
    "parse_chain",
    "HomologyEngine",
    "verify_kunneth",
    "verify_cusp_cycles",
    "ResolutionSquare",
    "pic_conductor",
    "nk0_crosscheck",
    "seminormalization",
    "EllipticCurve",
    "Point",
    "DivisorClass",
    "DivisorGroup",
    "cusp_bundle_tables",
    "KhhError",
    "ParseError",
    "PreconditionError",
    "HypothesisError",
    "SanityError",
]
