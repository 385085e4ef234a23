"""Exception types shared across the package."""


class ZclError(Exception):
    """Base class for package errors."""


class SizeLimitError(ZclError, ValueError):
    """The graded slice table of A(m, s) would hold (m+1)^s basis monomials,
    over the cap MAX_RING_BITS."""


class UndeterminedError(ZclError, RuntimeError):
    """A search hit its resource limit before certifying a result.

    Raised instead of returning a best-effort number: callers must never
    mistake an aborted search for an exact value.
    """


class InvariantViolationError(ZclError, RuntimeError):
    """A cross-check that is mathematically guaranteed to pass has failed.

    This always indicates a defect in the package, never bad user input.
    """
