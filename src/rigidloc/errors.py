"""Exception types shared across the package."""


class ConfigurationError(ValueError):
    """Raised when a scenario or solver configuration is invalid."""


class DegenerateGeometryError(ValueError):
    """Raised when node geometry admits no well-posed solution.

    Examples: coincident nodes, an all-collinear network handed to the
    embedding step, or point sets that carry no orientation.
    """


class NumericalFailureError(RuntimeError):
    """Raised when a computation produces non-finite values."""
