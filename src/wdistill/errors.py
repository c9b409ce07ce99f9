"""Exception hierarchy shared across the package.

The split matters for the CLI, which maps invalid input specifications
(SpecError) to exit code 2 and internal numerical failures (ToleranceError)
to exit code 3.
"""
from __future__ import annotations


class ValidationError(ValueError):
    """An input violates a documented precondition or invariant."""


class SpecError(ValidationError):
    """The W' coefficient specification is invalid (normalization, arity, a
    zero or underflowing coefficient)."""


class ToleranceError(ArithmeticError):
    """An internal numerical cross-check exceeded its tolerance."""
