"""Exception types shared across the package."""


class GradcertError(Exception):
    """Base class for errors raised by this package."""


class NotPositiveDefiniteError(GradcertError):
    """A matrix that must be symmetric positive definite is not."""


class MissingGroundTruthError(GradcertError):
    """An operation needs the minimizer / optimal value and none is available."""


class EigenEstimateError(GradcertError):
    """Power iteration did not converge; carries the best estimates so far."""

    def __init__(self, message, lambda_min=None, lambda_max=None):
        super().__init__(message)
        self.lambda_min = lambda_min
        self.lambda_max = lambda_max
