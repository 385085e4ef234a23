"""F2 linear algebra on int-packed row vectors (bit c of a row = column c)."""

from __future__ import annotations

__all__ = ["rref"]


def rref(rows: list[int]) -> list[int]:
    """Reduced row echelon form over F2.

    The pivot of a row is its lowest set bit (column order 0, 1, 2, ...).
    Returns the nonzero rows sorted by pivot column; this form is unique, so
    two lists of rows span the same subspace iff their rrefs are equal.
    """
    pivots: dict[int, int] = {}
    for row in rows:
        while row:
            c = (row & -row).bit_length() - 1
            if c in pivots:
                row ^= pivots[c]
            else:
                pivots[c] = row
                break
    # Back-substitution, highest pivot first so cleared columns stay cleared.
    for c in sorted(pivots, reverse=True):
        row = pivots[c]
        for c2 in pivots:
            if c2 != c and (pivots[c2] >> c) & 1:
                pivots[c2] ^= row
    return [pivots[c] for c in sorted(pivots)]
