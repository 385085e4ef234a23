"""F2 spans of rows with at most two set bits, by closure over int bitsets.

A row e_a + e_b is an edge between vertices a and b; a row e_a marks a.
Over a set of vertices that no edge leaves, the span of such rows is the
set of vectors whose weight is even on every component that holds no mark:
an edge adds 0 or 2 to the weight of one component, a mark adds 1 to its
own, and within a component any even set of vertices is a sum of paths.
So the span has dimension (number of vertices) - (number of unmarked
components), and a vector lies outside it iff its weight is odd on some
unmarked component.

A vertex is a bit position and a set of vertices is a Python int.  Edges
come in shift families ``(lo, hi, d)``: ``lo`` is a set of vertices and
``hi == lo << d``, and the family joins a to a + d for every a in ``lo``.
One pass moves a set across every edge of a family at once, with a few
shifts and masks of whole ints; passes repeat until the set stops growing.
"""

from __future__ import annotations

from typing import Iterator, Sequence

__all__ = ["closure", "flood"]

Family = tuple[int, int, int]


def closure(x: int, families: Sequence[Family]) -> int:
    """The union of the components that meet x."""
    while True:
        y = x
        for lo, hi, d in families:
            y |= ((y & hi) >> d) | ((y & lo) << d)
        if y == x:
            return x
        x = y


def flood(vertices: int, families: Sequence[Family]) -> Iterator[int]:
    """The components that make up ``vertices``, by increasing least
    vertex.  No edge may leave ``vertices``."""
    while vertices:
        part = closure(vertices & -vertices, families)
        vertices ^= part
        yield part
