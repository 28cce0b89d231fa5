"""Shared exception types."""


class SuperfockError(Exception):
    """Base class for all errors raised by this package."""


class DivisionByZero(SuperfockError, ZeroDivisionError):
    pass


class VariableMismatch(SuperfockError):
    pass


class UnsupportedExponent(SuperfockError):
    pass


class TruncationOverflow(SuperfockError):
    """A result would land at or above the weight truncation of a space."""


class NonHomogeneous(SuperfockError):
    pass


class InsufficientTerms(SuperfockError):
    pass


class UnboundedExpansion(SuperfockError):
    """An expansion that the grading bounds did not stop: its operator does
    not lower the weight."""


class InvalidIndexLattice(SuperfockError):
    pass


class InvalidAlgebra(SuperfockError):
    pass


class NoCalibration(SuperfockError):
    pass


class NonDiagonal(SuperfockError):
    pass

