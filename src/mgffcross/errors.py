"""Shared exception types."""


class CapacityError(Exception):
    """An enumeration or matrix build would exceed the configured size cap."""


class DivergenceError(ArithmeticError):
    """A normalized fusion limit does not exist: some series order below the
    requested one has a nonzero total coefficient."""


class TruncationLimitError(Exception):
    """A series expansion would need more orders than the hard cap allows."""
