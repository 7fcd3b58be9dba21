"""Shared exception types."""


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class ContextError(RuntimeError):
    """A failure that carries keyword context, shown after its message.

    The context is enough to reproduce the failing call: for series it is
    (a, b, z), for the gamma solver the final iterate, for training the
    epoch and batch.
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


class ConvergenceError(ContextError):
    """An iterative computation failed to converge."""


class NumericalError(ContextError):
    """A forward/backward pass produced non-finite values."""
