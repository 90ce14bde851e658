"""Exception types shared across the package.

Two families: UsageError for bad parameters or unreadable input (CLI exit
code 2), NumericalError for computations that fail or lose too much accuracy
(CLI exit code 1).
"""


class FracposError(Exception):
    pass


class UsageError(FracposError):
    pass


class NumericalError(FracposError):
    pass


class InvalidParameter(UsageError):
    pass


class DomainError(UsageError):
    """Argument outside the mathematical domain of the function."""


class ParseError(UsageError):
    """Malformed mesh file: bad header, bad line, or index out of range."""


class NotPositiveDefinite(NumericalError):
    pass


class NoConvergence(NumericalError):
    pass


class DegenerateTriangle(NumericalError):
    """A triangle encountered during assembly has near-zero area."""


class ContourFailure(NumericalError):
    """Contour quadrature lost conjugate symmetry; result untrustworthy."""
