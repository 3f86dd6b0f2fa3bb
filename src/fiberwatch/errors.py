"""Exception types shared across the toolkit."""


class ConfigurationError(ValueError):
    """A parameter or configuration document is invalid."""


class MissingDataError(FileNotFoundError):
    """A required input file, checkpoint, or calibration is absent."""


class NumericError(ArithmeticError):
    """A numerical computation produced an unusable result."""


class NonFiniteGradientError(NumericError):
    """A gradient contains NaN or infinity; the update step is rejected."""


class DivergenceError(NumericError):
    """Training loss became non-finite.

    Carries the last checkpoint that still evaluated cleanly, so callers
    can recover instead of losing the run.
    """

    def __init__(self, message, last_good=None, history=None):
        super().__init__(message)
        self.last_good = last_good
        self.history = history
