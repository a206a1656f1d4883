"""Exception types shared across the package.

Every failure mode that callers are expected to distinguish gets its own
class; plain ``ValueError`` is used for simple argument-domain violations
that no caller needs to tell apart.
"""

from __future__ import annotations


class ConfigError(ValueError):
    """Invalid configuration value or combination; the message names the field."""


class PlanError(ValueError):
    """A refresh plan could not be built from the ladder settings."""


class ShapeError(ValueError):
    """Operands have incompatible grid shapes."""


class DenoiserError(ValueError):
    """A denoiser was queried outside the inputs it supports."""


class CodecError(RuntimeError):
    """Decode or encode failed; carries the external diagnostic when present."""


class SamplerError(RuntimeError):
    """A sampling run failed; ``step`` holds the failing step index."""

    def __init__(self, message: str, step: int | None = None):
        super().__init__(message)
        self.step = step


class StatError(ValueError):
    """A statistic was requested on insufficient or degenerate data."""


class ComparisonError(ValueError):
    """Traces that must share a step grid do not."""


class TensorFormatError(ValueError):
    """Malformed tensor file; ``offset`` is the failing byte position."""

    def __init__(self, message: str, offset: int | None = None):
        if offset is not None:
            message = f"{message} (byte offset {offset})"
        super().__init__(message)
        self.offset = offset
