"""Error types raised by the checker; all are type errors, not logical
failures (those surface as failed clauses)."""

from __future__ import annotations

from typing import Optional

from .syntax import Span


class CheckError(Exception):
    def __init__(self, msg: str, span: Optional[Span] = None):
        super().__init__(msg)
        self.msg = msg
        self.span = span


class StructuralError(CheckError):
    """Head type constructors do not match."""


class UnboundVariable(CheckError):
    pass


class ArityMismatch(CheckError):
    pass


class EscapeError(CheckError):
    """A locally allocated location escapes through the result."""


class AssignThroughShared(CheckError):
    pass


class DerefNonPointer(CheckError):
    pass


class DerefUninit(CheckError):
    pass


class InstError(CheckError):
    """A refinement parameter could not be instantiated at a call site."""


class ShapeMismatch(CheckError):
    """Join-point contexts disagree on base-type structure."""
