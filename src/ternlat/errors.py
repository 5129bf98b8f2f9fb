"""Exception hierarchy shared across the package."""


class TernlatError(Exception):
    """Base class for all package-specific errors."""


class NotTotallyReal(TernlatError):
    """Defining polynomial does not have the full count of simple real roots."""


class NotARing(TernlatError):
    """Claimed integral basis is not multiplicatively closed over Z."""


class BadBasis(TernlatError):
    """Basis matrix is singular or otherwise unusable."""


class FieldDataError(TernlatError):
    """Inconsistent auxiliary field data (class numbers, units, tags)."""


class DivisionByZero(TernlatError, ZeroDivisionError):
    pass


class InvalidInput(TernlatError, ValueError):
    """An argument outside what the requested computation accepts: a bound
    or entry that is not totally positive, a field without the data the
    computation needs, a label missing from a table."""


class NoSuchUnit(TernlatError):
    """Requested signature is not realized by the supplied unit generators."""


class BoxTooLarge(TernlatError):
    """Certified search box exceeds the configured candidate ceiling.

    `quantity` names what was counted: the estimated candidates (default),
    the candidates actually visited, or a box volume.
    """

    def __init__(self, estimate: int, ceiling: int,
                 quantity: str = "estimated {} candidates"):
        super().__init__(f"{quantity.format(estimate)} exceeds ceiling {ceiling}")
        self.estimate = estimate
        self.ceiling = ceiling


class PrecisionExhausted(TernlatError):
    """The basis-embedding matrix could not be inverted at any root width
    tried: the verified inverse failed down to the last width."""

    def __init__(self, width):
        super().__init__(
            "basis-embedding matrix could not be inverted at any root width "
            f"tried (last width {width})")
        self.width = width


class Singular(TernlatError):
    """Gram matrix has determinant zero where an inverse was required."""


class UnexpectedSingularCase(TernlatError):
    """A positive semidefinite but singular case in a classification table."""


class UnclassifiedCase(TernlatError):
    """A classification case matched none of the known lattice classes."""


class MismatchAgainstFormula(TernlatError):
    """Computed invariant disagrees with a proven closed form."""


class UnsupportedK(TernlatError):
    """Cyclotomic index out of the supported range."""


class IdentityMismatch(TernlatError):
    """A checked polynomial or numeric identity failed."""


class ParseError(TernlatError):
    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class ValidationError(TernlatError):
    def __init__(self, label: str, reason: str):
        super().__init__(f"{label}: {reason}")
        self.label = label
        self.reason = reason
