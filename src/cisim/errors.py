"""Exception types shared across the package."""


class CisimError(Exception):
    """Base class for all package errors."""


class DuplicateOrbital(CisimError):
    """An orbital index appears more than once in a determinant."""


class IndexOutOfRange(CisimError):
    """An orbital index lies outside [1, N]."""


class InvalidCounts(CisimError):
    """A count is inconsistent: eta < 1 or eta > N, or the number of
    orbital indices given for an integral kind."""


class InvalidConfig(CisimError):
    """A config file is missing, is not JSON, or does not describe a problem."""


class OutputUnwritable(CisimError):
    """The --out path cannot be written: a missing directory, a directory
    itself, or no permission."""


class BoundViolated(CisimError):
    """A certified basis bound fails: a cap, the decay envelope, or the
    search for either."""

    def __init__(self, message, quantity=None):
        super().__init__(message)
        self.quantity = quantity


class UnsupportedAngularMomentum(CisimError):
    """Cartesian powers beyond d functions are not supported."""


class NumericOverflow(CisimError):
    """An integral or a quadrature scale is past the range of a float."""


class DeltaTooLarge(CisimError):
    """Requested quadrature error exceeds the admissible range."""


class DeltaTooSmall(CisimError):
    """Requested quadrature error needs a grid past the cap of 256 per axis."""


class SpecMismatch(CisimError):
    """A Riemann sum was requested with a plan of another kind or nucleus."""


class MalformedGamma(CisimError):
    """A one-sparse term label violates its structural constraints."""


class TooManyDifferences(CisimError):
    """Determinants differ in more than two orbitals."""


class PatternMismatch(CisimError):
    """The coloring does not give the pattern the labelled edges need: its
    edge table fails its own census, or a color does not map a node to
    the partner the table lists."""


class BudgetInfeasible(CisimError):
    """The requested total error cannot be split into positive budgets."""


class DimensionTooLarge(CisimError):
    """Dense reference evolution was requested beyond the supported size."""


class NonOrthonormalBasisWarning(UserWarning):
    """The overlap matrix of the ingested basis deviates from identity."""
