"""Exact symbolic computation for the Witt algebra acting on the loop
Diamond algebra: structure constants, PBW computation, operator-algebra
homomorphisms, concrete module families, and replayable certificates for
their simplicity, rank and isomorphism properties.  All arithmetic is
exact over the rationals.
"""

from .exceptions import (
    AlgebraError,
    AlgebraMismatch,
    CertificateError,
    InvalidGenerator,
    InvalidSpec,
    NotAModule,
    NotApplicable,
    RequiresSimple,
    UnsupportedOperation,
    UnsupportedVariable,
    VariableMismatch,
    ZeroVector,
)
from .scalars import scalar

__all__ = [
    "AlgebraError",
    "AlgebraMismatch",
    "CertificateError",
    "InvalidGenerator",
    "InvalidSpec",
    "NotAModule",
    "NotApplicable",
    "RequiresSimple",
    "UnsupportedOperation",
    "UnsupportedVariable",
    "VariableMismatch",
    "ZeroVector",
    "scalar",
]

__version__ = "0.1.0"
