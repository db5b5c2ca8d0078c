"""Exception types shared across the package."""


class FormatError(ValueError):
    """Base for malformed snapshot/state files."""


class BadMagicError(FormatError):
    pass


class VersionMismatchError(FormatError):
    pass


class TruncatedPayloadError(FormatError):
    pass


class InvariantError(ValueError):
    """A value violates a documented invariant (NaN, out-of-range, bad shape)."""


class NonFiniteError(ArithmeticError):
    """A non-finite value appeared mid-computation.

    ``stage`` names the first offending computation stage.
    """

    def __init__(self, stage: str, message: str = ""):
        self.stage = stage
        super().__init__(message or f"non-finite value at stage '{stage}'")

    def __reduce__(self):
        """Pickle as ``(stage, message)``: a worker process sends it back this way."""
        return type(self), (self.stage, str(self))
