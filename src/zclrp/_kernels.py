"""The ring kernel: truncated GF(2) products on Python ints.

Bit vectors are plain Python ints: bit r is the basis monomial of rank r.
The truncation masks a product needs are as wide as the ring, so each is
tiled the first time a product reads it rather than when the kernel is made.
This pure-Python kernel is the only one; ``BACKEND_NAME`` names it in
``zclrp --version`` and in benchmark provenance.
"""

from __future__ import annotations

BACKEND_NAME = "pure"


def _tile(unit: int, period: int, reps: int) -> int:
    """Concatenate reps copies of a period-bit pattern, by doubling."""
    out = unit
    have = 1
    while have < reps:
        take = min(have, reps - have)
        out |= (out & ((1 << (take * period)) - 1)) << (have * period)
        have += take
    return out


class _MaskRow(dict):
    """The masks of one digit position i: c -> the ranks whose i-th digit is
    <= c, tiled the first time c is looked up and kept from then on."""

    __slots__ = ("block", "period", "reps")

    def __init__(self, block: int, radix: int, size: int):
        super().__init__()
        self.block = block
        self.period = block * radix
        self.reps = size // self.period

    def __missing__(self, c: int) -> int:
        unit = (1 << ((c + 1) * self.block)) - 1
        mask = self[c] = _tile(unit, self.period, self.reps)
        return mask


class RingKernel:
    """Products in F2[x_1..x_s]/(x_i^(m+1)) on rank-indexed bits.

    A product is computed by scanning the set bits of the sparser operand.
    For a factor monomial with digit vector d, the surviving monomials of the
    other operand are AND_i masks[i][m - d_i], where masks[i][c] keeps the
    ranks whose i-th digit is <= c; the surviving block then shifts by the
    factor's rank, which adds digit vectors in mixed radix without carries
    (every digit sum is <= m by construction).

    Each mask is as wide as the ring, and a product reads only the masks of
    the digits its factors have, so masks are built on first use and kept
    for the life of the kernel; building the kernel costs no tiling.
    """

    def __init__(self, m: int, s: int):
        self.m = m
        self.s = s
        self.size = (m + 1) ** s
        radix = m + 1
        self.masks = tuple(_MaskRow(radix ** i, radix, self.size)
                           for i in range(s))

    def mul(self, a: int, b: int) -> int:
        if a.bit_count() > b.bit_count():
            a, b = b, a
        m = self.m
        radix = m + 1
        masks = self.masks
        acc = 0
        while a:
            low = a & -a
            a ^= low
            r = low.bit_length() - 1
            allowed = b
            rest = r
            i = 0
            while rest:
                rest, d = divmod(rest, radix)
                if d:
                    allowed &= masks[i][m - d]
                i += 1
            if allowed:
                acc ^= allowed << r
        return acc
