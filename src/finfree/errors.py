"""Exception hierarchy shared across the toolkit.

Every error carries a short machine-readable ``code`` so the CLI can emit
stable diagnostics without parsing messages.
"""

from __future__ import annotations


class FinFreeError(ValueError):
    """Base class for all toolkit errors."""

    code = "error"


class ParseError(FinFreeError):
    code = "parse-error"


class DegreeMismatchError(FinFreeError):
    code = "degree-mismatch"


class NonMonicError(FinFreeError):
    code = "non-monic"


class DimensionMismatchError(FinFreeError):
    code = "dimension-mismatch"


class SizeGuardError(FinFreeError):
    code = "size-guard"


class IndexRangeError(FinFreeError):
    code = "index-out-of-range"


class UnsupportedPairError(FinFreeError):
    code = "unsupported-pair"
