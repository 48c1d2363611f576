"""Exception types shared across the package."""


class AlgebraError(Exception):
    """Base class for all mathematical errors raised by this package."""


class VariableMismatch(AlgebraError):
    """Two polynomials with different variable signatures were combined."""


class UnsupportedVariable(AlgebraError):
    """Operation applied to a variable that does not support it."""


class AlgebraMismatch(AlgebraError):
    """Two operator elements from different algebras were combined."""


class InvalidGenerator(AlgebraError):
    """Generator family outside {L, a, b, c, d}."""


class NotAModule(AlgebraError):
    """Candidate rank-one action data violates a bracket relation."""

    def __init__(self, relation: str, detail: str = ""):
        self.relation = relation
        self.detail = detail
        msg = f"relation {relation} violated"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)


class CertificateError(AlgebraError):
    """A certificate step or replay did not reproduce the vector it claims."""


class InvalidSpec(AlgebraError):
    """Malformed parameter record or JSON module spec."""

    def __init__(self, message: str, pointer: str = ""):
        self.pointer = pointer
        super().__init__(message if not pointer else f"{message} (at {pointer})")


class NotApplicable(AlgebraError):
    """A result's hypotheses fail (e.g. a repeated lambda, g = 0, the zero vector)."""
