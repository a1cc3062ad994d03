"""Exception types shared across the package."""


class GradcertError(Exception):
    """Base class for errors raised by this package."""


class NotPositiveDefiniteError(GradcertError):
    """A matrix that must be symmetric positive definite is not."""


class MissingGroundTruthError(GradcertError):
    """An operation needs the minimizer / optimal value and none is available."""

