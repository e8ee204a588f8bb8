"""Exception types shared across the simulator."""


class SimError(Exception):
    """Base class for all simulator errors."""


class ValidationError(SimError, ValueError):
    """A document or config value violates the schema or an invariant.

    ``path`` points at the offending field, e.g. ``"objects[2].pos"``.
    Also a ``ValueError``: a config model raises it for a bad field.
    """

    def __init__(self, path: str, message: str):
        self.path = path
        self.message = message
        super().__init__(f"{path}: {message}")


class FrozenError(AttributeError):
    """An assignment to, or deletion of, a field of an immutable config model."""
