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


# Per-trial failure codes of the batch cores; 0 is success. The per-trial
# functions raise the exception listed for the first failure a trial hit.
(NO_EMBEDDING, NEGATIVE_GRAM, NO_ORIENTATION, COINCIDENT_EDGES,
 NOT_FINITE) = range(1, 6)
_FAILURES = {
    NO_EMBEDDING: (DegenerateGeometryError, "distance data admit no planar embedding"),
    NEGATIVE_GRAM: (DegenerateGeometryError,
                    "second Gram eigenvalue is negative: no planar embedding"),
    NO_ORIENTATION: (DegenerateGeometryError, "point sets carry no orientation information"),
    COINCIDENT_EDGES: (DegenerateGeometryError, "coincident nodes have no edge direction"),
    NOT_FINITE: (NumericalFailureError, "landmark estimate is not finite"),
}


def raise_failure(code) -> None:
    """Raise the exception of a nonzero failure code; do nothing for 0."""
    if code:
        kind, message = _FAILURES[int(code)]
        raise kind(message)
