"""Exception types shared across the package."""


class NumericalFailure(RuntimeError):
    """A numerical routine could not meet its contract.

    Carries an optional ``partial`` payload (e.g. a Spectrum whose backward
    errors missed the tolerance) so callers can report what was computed
    instead of silently truncating.
    """

    def __init__(self, message: str, partial=None):
        super().__init__(message)
        self.partial = partial


class BracketNotFound(NumericalFailure):
    """The forward scan of a zero finder exhausted its interval without a sign change."""


class FactorizationFailure(NumericalFailure):
    """A matrix factorization failed (e.g. the right operator is not numerically SPD)."""
