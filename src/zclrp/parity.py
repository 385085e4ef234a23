"""Dyadic data of m: the trailing-ones length e, z, sigma and their profile.

Everything here is exact integer bit arithmetic; no floating point is used
anywhere (``z_of`` in particular is computed from bit lengths).
"""

from __future__ import annotations

from .errors import Record


def trailing_ones(m: int) -> int:
    """Length e of the block of consecutive 1 bits ending the binary expansion.

    Equivalently the largest e with m = 2^e - 1 (mod 2^(e+1)); e = 0 iff m is
    even.
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    return (m ^ (m + 1)).bit_length() - 1


def z_of(m: int) -> int:
    """The exponent z with 2^z <= 2m < 2^(z+1)."""
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    return (2 * m).bit_length() - 1


def sigma_of(m: int) -> int | None:
    """(m+1) / 2^trailing_ones(m), or None when m + 1 is a power of two.

    When defined, the value is an odd integer >= 3.
    """
    e = trailing_ones(m)
    if m == (1 << e) - 1:
        return None
    return (m + 1) >> e


class TwoAdicProfile(Record):
    """The dyadic data attached to m: e, z and (when defined) sigma."""

    __slots__ = ("m", "e", "z", "sigma")

    def as_dict(self) -> dict:
        return {"m": self.m, "e": self.e, "z": self.z, "sigma": self.sigma}


def two_adic_profile(m: int) -> TwoAdicProfile:
    return TwoAdicProfile(m, trailing_ones(m), z_of(m), sigma_of(m))
