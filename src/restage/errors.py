"""Exception types shared across the package.

Every failure mode that callers are expected to distinguish gets its own
class; plain ``ValueError`` is used for simple argument-domain violations
that no caller needs to tell apart, shape mismatches among them.
"""

from __future__ import annotations


class ConfigError(ValueError):
    """Invalid configuration value or combination; the message names the field."""


class CodecError(RuntimeError):
    """Decode or encode failed; carries the external diagnostic when present
    and, in ``index``, the failing grid's position in its batch, or None."""

    def __init__(self, message: str, index: int | None = None):
        if index is not None:
            message = f"{message} (batch index {index})"
        super().__init__(message)
        self.index = index


class SamplerError(RuntimeError):
    """A sampling run failed; ``step`` holds the failing step index and ``seed``
    the failing seed, or None when the failure is not one seed's."""

    def __init__(self, message: str, step: int | None = None, seed: int | None = None):
        super().__init__(message)
        self.step = step
        self.seed = seed


class TensorFormatError(ValueError):
    """Malformed tensor file; ``offset`` is the failing byte position."""

    def __init__(self, message: str, offset: int | None = None):
        if offset is not None:
            message = f"{message} (byte offset {offset})"
        super().__init__(message)
        self.offset = offset
