"""Exception types shared across the simulator."""


class SimError(Exception):
    """Base class for all simulator errors."""


class ValidationError(SimError, ValueError):
    """A document or config value violates the schema or an invariant.

    ``path`` points at the offending field, e.g. ``"objects[2].pos"``.
    Also a ``ValueError``: model dataclasses raise it for a bad field.
    """

    def __init__(self, path: str, message: str):
        self.path = path
        self.message = message
        super().__init__(f"{path}: {message}")

    def __reduce__(self):
        # rebuilt from both fields when a sweep worker sends it back
        return type(self), (self.path, self.message)


class InvalidOriginError(SimError):
    """Ray origin lies outside the room or inside an obstacle."""


class OutOfBoundsError(SimError):
    """A position landed outside the room where one was required inside."""
