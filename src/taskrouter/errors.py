"""Exception hierarchy shared across the toolkit."""

from __future__ import annotations


class TaskRouterError(Exception):
    """Base class for all toolkit errors."""


class InvalidInputError(TaskRouterError, ValueError):
    """An argument violates an operation's stated precondition."""


class IntegrityError(TaskRouterError):
    """Stored data is internally inconsistent (dangling ids, bad flags)."""


class CoverageError(TaskRouterError):
    """A (sample, prompt variant) group is missing outcomes for one or
    more registered models."""

    def __init__(self, message: str, gaps: list[tuple] | None = None):
        super().__init__(message)
        self.gaps = gaps or []


class RenderError(TaskRouterError):
    """A prompt template could not be rendered for a sample: it reads a
    context key the sample does not carry, or picks an article for an empty
    value. ``key`` is the tag's key."""

    def __init__(self, message: str, key: str):
        super().__init__(message)
        self.key = key


class ParseError(TaskRouterError, ValueError):
    """A serialized router example could not be parsed.

    ``offset`` is the byte offset (UTF-8) into the line at which parsing
    failed, and ``reason`` the message without it.
    """

    def __init__(self, message: str, offset: int = 0):
        super().__init__(f"{message} (byte offset {offset})")
        self.reason = message
        self.offset = offset


class BackendError(TaskRouterError):
    """A scoring backend failed to produce a usable response."""
