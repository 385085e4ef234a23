"""Exception types shared across the package, and its one work cap."""

MAX_DP_CELLS = 1 << 20
"""Cap on the work of one command, charged from its inputs before any work
(charge).  The charges: zcl exact, zcl probe and report --policy exact,
the DP size (cuplength._check_cells); zcl witness, report --policy
witness-only and every witness check, the verifier's term products
(cuplength._work_bound); verify generators, s*(m+1)^s
(zero_divisors._check_closure); verify join, samples*(k+9)
(join_model.sample_report); report, besides each row's charge, the number
of rows of its grid (bounds.build_table)."""


class ZclError(Exception):
    """Base class for package errors."""


class UndeterminedError(ZclError, RuntimeError):
    """No certified result: the work is over MAX_DP_CELLS, or a sampled
    check fell short.  Raised instead of a best-effort number."""


class InvariantViolationError(ZclError, RuntimeError):
    """A cross-check that is mathematically guaranteed to pass has failed.

    This always indicates a defect in the package, never bad user input.
    """


def charge(work: int, needs: str, *args) -> None:
    """Raise UndeterminedError when work is over MAX_DP_CELLS, naming the
    work by needs.format(*args, work=work), formatted only then."""
    if work > MAX_DP_CELLS:
        raise UndeterminedError(f"{needs.format(*args, work=work)}, over the "
                                f"cap of {MAX_DP_CELLS}")
