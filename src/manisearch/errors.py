"""Exception types raised across the package."""


class ManisearchError(Exception):
    """Base class for all package-specific errors."""


class InvalidShape(ManisearchError):
    """An ambient array does not match the manifold's expected shape."""


class BaseMismatch(ManisearchError):
    """Tangent vectors rooted at different points were combined."""


class DegenerateBasis(ManisearchError):
    """Every projected basis direction fell below the drop tolerance."""


class UnknownProblem(ManisearchError):
    """Problem name is not in the registry."""


class InvalidDimension(ManisearchError):
    """Requested problem dimension is outside the feasible shape grid."""


class BudgetExhausted(ManisearchError):
    """The objective-evaluation budget has been spent."""


class InvalidBaseline(ManisearchError):
    """Convergence baseline f_L exceeds the starting value f0."""


class EmptyInput(ManisearchError):
    """An aggregation received no rows to work on."""


class CliError(ManisearchError):
    """Command-line validation failure (maps to exit status 1)."""
