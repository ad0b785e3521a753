"""Exception hierarchy shared by all mgl modules."""


class MglError(Exception):
    """Base class for all library errors."""


class SchemaError(MglError):
    """A JSON input document is structurally malformed."""


class InvariantError(MglError):
    """A graph or bundle axiom is violated; the message names the axiom."""


class ComplexInput(MglError):
    """A real-valued function was expected but the input has an imaginary part."""


class NegativeG(MglError):
    """A nonnegative scalar function was expected."""


class DimensionMismatch(MglError):
    """Vector/matrix shapes are incompatible."""


class BundleInvalid(MglError):
    """A bundle failed validation where a valid one is required."""


class EigSolverFailure(MglError):
    """The symmetric eigensolver did not converge."""


class NegativeTime(MglError):
    """Semigroup time parameters must be nonnegative."""


class AlphaInSpectrum(MglError):
    """Resolvent parameter alpha is not strictly inside the resolvent set."""


class AlphaTooSmall(MglError):
    """Laplace-transform quadrature requires alpha above the decay margin."""


class InfiniteEdgeDistance(MglError):
    """A pseudo-metric is infinite on an edge with positive weight."""


class NotNested(MglError):
    """An exhaustion's vertex subsets are not increasing under inclusion."""
