"""Shared exception types."""


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class ConvergenceError(RuntimeError):
    """An iterative computation failed to converge.

    Carries enough context to reproduce the failing call: for series it is
    (a, b, z), for the gamma solver it is the final iterate.
    """

    def __init__(self, message, **context):
        super().__init__(message)
        self.context = dict(context)

    def __str__(self):
        base = super().__str__()
        if self.context:
            detail = ", ".join(f"{k}={v!r}" for k, v in sorted(self.context.items()))
            return f"{base} ({detail})"
        return base


class NumericalError(RuntimeError):
    """A forward/backward pass produced non-finite values."""

    def __init__(self, message, **context):
        super().__init__(message)
        self.context = dict(context)

