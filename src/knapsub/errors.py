"""Exception types shared across the package."""


class KnapsubError(Exception):
    """Base class for package errors."""


class InfeasibleQuery(KnapsubError):
    """An oracle evaluation was requested on a set whose cost exceeds the capacity
    while feasibility enforcement is switched on."""


class TooLarge(KnapsubError):
    """Exhaustive search was requested on an instance beyond the exact-search guard."""


class BudgetExceeded(KnapsubError):
    """A run would exceed its configured oracle-query budget."""


class NonFiniteValue(KnapsubError):
    """An objective answered NaN or an infinity.  The oracle raises it on
    every query path, once the query is counted."""


class InvalidLambda(KnapsubError):
    """A streaming run was started with a value estimate that is not
    positive and finite, so large that its top threshold overflows, or so
    small that floats near its floor lam/(2k) are too coarse for its grid."""


class MemoryCapExceeded(KnapsubError):
    """A simulated machine received more items in one round than its memory cap allows."""


class ParseError(KnapsubError):
    """A dataset file could not be parsed.  Carries the offending line number."""

    def __init__(self, message, line_no=None):
        super().__init__(message if line_no is None else f"line {line_no}: {message}")
        self.line_no = line_no


class EmptyData(KnapsubError):
    """A dataset file contained no usable rows."""


class EmptyInstanceWarning(UserWarning):
    """Normalization produced an instance with no purchasable elements and no base set."""
