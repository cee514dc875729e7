"""Exception types shared across the package."""


class InputError(ValueError):
    """Invalid input: bad graph data, violated precondition, bad parameters."""


class LimitError(RuntimeError):
    """A configured resource limit (a size or palette cap) was exceeded.

    For exact-search limits, ``lower`` and ``upper`` carry the best bracket
    proven before giving up.
    """

    def __init__(self, message: str, lower: int | None = None, upper: int | None = None):
        super().__init__(message)
        self.lower = lower
        self.upper = upper


class InvariantViolation(RuntimeError):
    """Internal consistency failure; indicates a defect, not bad input."""
