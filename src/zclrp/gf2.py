"""F2 linear algebra on int-packed row vectors (bit c of a row = column c)."""

from __future__ import annotations

__all__ = ["rref"]


def rref(rows: list[int]) -> list[int]:
    """Reduced row echelon form over F2.

    The pivot of a row is its lowest set bit (column order 0, 1, 2, ...).
    Returns the nonzero rows sorted by pivot column; this form is unique, so
    two lists of rows span the same subspace iff their rrefs are equal.

    Back-substitution visits the pivots once, highest first, and clears a
    row only at its own set bits in pivot columns above its pivot, each with
    one XOR of an already reduced row.  It costs one XOR per such bit rather
    than a test of every pivot pair, which is quadratic in the rank even
    when, as for the ideal rows, each row has a few bits.
    """
    pivots: dict[int, int] = {}
    pivot_mask = 0
    for row in rows:
        while row:
            c = (row & -row).bit_length() - 1
            if c in pivots:
                row ^= pivots[c]
            else:
                pivots[c] = row
                pivot_mask |= 1 << c
                break
    order = sorted(pivots)
    for c in reversed(order):
        row = pivots[c]
        hits = row & pivot_mask & -(2 << c)
        while hits:
            low = hits & -hits
            hits ^= low
            row ^= pivots[low.bit_length() - 1]
        pivots[c] = row
    return [pivots[c] for c in order]
