"""Exception types shared across the library.

Plain ``ValueError`` is raised for malformed arguments (negative thresholds,
mismatched dimensions, unknown mode strings).  The classes below cover
failures that depend on the *data* rather than on the call signature, so
callers can route them to diagnostics or user-facing messages.  Each class
names its ``slug``, the ``error`` field of the command line's JSON error line.
"""

from __future__ import annotations


class CovclustError(Exception):
    """Base class for all data-dependent failures raised by covclust."""

    slug = "error"


class DegenerateColumnError(CovclustError):
    """A column is constant (or all-tied), so it cannot be scaled or ranked."""

    slug = "degenerate-column"

    def __init__(self, labels, context=""):
        self.labels = tuple(labels)
        self.context = context
        msg = "degenerate column(s): " + ", ".join(repr(l) for l in self.labels)
        if context:
            msg += f" ({context})"
        super().__init__(msg)


class InsufficientDataError(CovclustError):
    """Too few usable rows remain for the requested computation."""

    slug = "insufficient-data"


class EmptyScreenError(CovclustError):
    """Screening kept no variables at the selected threshold."""

    slug = "empty-screen"

    def __init__(self, threshold, max_abs_corr):
        self.threshold = float(threshold)
        self.max_abs_corr = float(max_abs_corr)
        super().__init__(
            f"no variable survives screening: threshold={self.threshold!r}, "
            f"largest |response correlation| seen={self.max_abs_corr!r}"
        )


class InfeasibleDependenceError(CovclustError):
    """The requested dependence structure is incompatible with the target covariance."""

    slug = "infeasible-dependence"


class NotApplicableError(CovclustError):
    """The requested quantity is undefined for the given configuration."""

    slug = "not-applicable"


class InternalConsistencyError(CovclustError):
    """Derived objects disagree (e.g. a grouping does not cover the screened set)."""

    slug = "internal-consistency"


class DegenerateResponseError(CovclustError):
    """The response has zero variation, so goodness-of-fit is undefined."""

    slug = "degenerate-response"


class _FileLocatedError(CovclustError):
    """A failure that carries its ``row`` and ``column`` location, where known."""

    def __init__(self, message, row=None, column=None):
        self.row = row
        self.column = column
        super().__init__(message)


class DataError(_FileLocatedError):
    """A cell value is unusable for the requested transform or computation."""

    slug = "data-error"


class ParseError(_FileLocatedError):
    """The input file could not be parsed into a numeric panel."""

    slug = "parse-error"
