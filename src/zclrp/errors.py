"""Exceptions, the one work cap and the value-class base of the package."""

import re

MAX_DP_CELLS = 1 << 20
"""Cap on the work of one command, charged from its inputs before any work
(charge).  The charges: zcl exact, zcl probe and each report row, the
verifier's term products for the greedy's witness, from the greedy's
O(log m) digits, at most (s-1)*(m+1), and (s-1)*(m+1) itself for
m >= MAX_DP_CELLS (cuplength._check_cells); every witness check, the
verifier's term products (cuplength._work_bound); verify generators,
s*(m+1)^s (zero_divisors._check_closure); verify join,
(samples+2^(s-1))*(k+9), the sampled points and the orbit of the first
(join_model.sample_report); report, besides each row's charge, the number
of rows of its grid (bounds.build_table)."""


class ZclError(Exception):
    """Base class for package errors."""


class UndeterminedError(ZclError, RuntimeError):
    """No certified result: the work is over MAX_DP_CELLS.  Raised instead
    of a best-effort number."""


class InvariantViolationError(ZclError, RuntimeError):
    """A cross-check that is mathematically guaranteed to pass has failed.

    This always indicates a defect in the package, never bad user input.
    """


def short_ints(text: str) -> str:
    """text with each integer of more than 20 digits given as "<N-digit
    int>", so that a line that names one stays short.  An exponent after
    "^", a bit length, is kept up to 40 digits, so that how far over the
    cap a shape is still shows."""
    return re.sub(r"\d{41,}|(?<![\d^])\d{21,}",
                  lambda digits: f"<{len(digits[0])}-digit int>", text)


def charge(work: int, needs: str, *args) -> None:
    """Raise UndeterminedError when work is over MAX_DP_CELLS, naming the
    work by needs.format(*args, work=work), formatted only then and through
    short_ints.  Work over 2^64 is named ">= 2^E", E its bit length less 1,
    in place of "= {work}" or "{work}": its digits may be more than str()
    of an int may give."""
    if work > MAX_DP_CELLS:
        if work > 1 << 64:
            needs = needs.replace("= {work}", "{work}")
            work = f">= 2^{work.bit_length() - 1}"
        raise UndeterminedError(short_ints(
            f"{needs.format(*args, work=work)}, over the cap of {MAX_DP_CELLS}"))


class Record:
    """Base of the package's immutable value classes, in place of frozen
    dataclasses, whose import and class creation cost start-up time.  A
    subclass names its fields in __slots__ and needs no __init__: Record's
    takes those fields as a function would, positionally or by name, and
    sets them in order.  A subclass with checks or defaults defines
    __init__ and ends it in super().__init__(...) with every field.
    Equality, hash, repr and pickling read the fields in __slots__ order,
    as those of a frozen dataclass do."""

    __slots__ = ()

    def __init__(self, *args, **kwargs):
        slots = self.__slots__
        if kwargs:  # the named fields after the positional ones, in order
            args += tuple([kwargs.pop(f) for f in slots[len(args):] if f in kwargs])
            if kwargs:
                raise TypeError(f"{type(self).__name__}() got repeated or "
                                f"unknown fields: {', '.join(kwargs)}")
        if len(args) != len(slots):
            raise TypeError(f"{type(self).__name__}() takes the {len(slots)} "
                            f"fields {', '.join(slots)}; got {len(args)}")
        setattr = object.__setattr__
        for f, value in zip(slots, args):
            setattr(self, f, value)

    def _astuple(self) -> tuple:
        return tuple([getattr(self, f) for f in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._astuple() == other._astuple()
        return NotImplemented

    def __hash__(self):
        return hash(self._astuple())

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):  # pickle and copy rebuild through __init__
        return self.__class__, self._astuple()
