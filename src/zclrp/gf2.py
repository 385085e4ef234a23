"""F2 spans of rows with at most two set bits, held as a union-find forest.

A row e_a + e_b is an edge between vertices a and b; a row e_a marks a.
Over a set of vertices that no edge leaves, the span of such rows is the
set of vectors whose weight is even on every component that holds no mark:
an edge adds 0 or 2 to the weight of one component, a mark adds 1 to its
own, and within a component any even set of vertices is a sum of paths.
So the span has dimension (number of vertices) - (number of unmarked
components), and a vector lies outside it iff its weight is odd on some
unmarked component.

The forest is a parent list over the vertices, a root being its own parent.
Linking hangs the larger root under the smaller, so every root is the least
vertex of its component.
"""

from __future__ import annotations

__all__ = ["find", "components"]


def find(parent: list[int], v: int) -> int:
    """Root of v's component, halving the path on the way."""
    while parent[v] != v:
        parent[v] = v = parent[parent[v]]
    return v


def components(parent: list[int], marked: bytes,
               vertices: tuple[int, ...]) -> tuple[list[int], set[int]]:
    """The root of each vertex, in order, and the roots of the components
    among them with no marked vertex.  No edge may leave ``vertices``."""
    roots = [find(parent, v) for v in vertices]
    hit = {root for v, root in zip(vertices, roots) if marked[v]}
    return roots, set(roots) - hit
