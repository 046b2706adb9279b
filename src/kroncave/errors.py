"""Exception types shared across the package."""


class KroncaveError(Exception):
    """Base class for library-specific errors."""


class PadTooSmall(KroncaveError, ValueError):
    """Padding target is smaller than size + first part; caller must enlarge it."""


class NotIntegral(KroncaveError, ValueError):
    """Exact midpoint undefined because some componentwise sum is odd."""


class SizeMismatch(KroncaveError, ValueError):
    """Partition sizes violate an operation's precondition."""


class InvariantViolation(KroncaveError):
    """An internal consistency check failed: an engine bug, never bad input.

    Raised explicitly rather than by assert so the checks survive python -O.
    """


class PartitionParseError(KroncaveError, ValueError):
    """Malformed partition text. Carries the offending character position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class StoreIOError(KroncaveError, OSError):
    """The persistent coefficient cache cannot be read or written."""
