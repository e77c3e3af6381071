"""Shared exception types."""


class CapacityError(Exception):
    """An enumeration or matrix build would exceed the configured size cap."""
