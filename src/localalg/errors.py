"""Exception types shared across the package."""


class LocalAlgError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatch(LocalAlgError):
    """Element length does not match the algebra dimension."""


class NonUnitError(LocalAlgError):
    """Inversion of an element whose real part is numerically zero."""


class SpanFailure(LocalAlgError):
    """Monomials in the pseudobasis fail to span the radical.

    This signals a non-local (or otherwise invalid) input algebra.
    """


class AlgebraFormatError(LocalAlgError):
    """Malformed algebra spec file."""


class ExprSyntaxError(LocalAlgError):
    """Syntax error in an expression string, with the byte offset."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class UnknownVariable(ExprSyntaxError):
    """Variable index out of range for the declared number of variables."""


class DomainError(LocalAlgError):
    """Evaluation outside a primitive's domain, or a torus argument out of range."""


class SizeCapExceeded(LocalAlgError):
    """A constraint system would exceed the configured column cap."""


class IndexNotBreve(LocalAlgError):
    """Component index is the unit or a socle index, not a non-socle radical index."""
