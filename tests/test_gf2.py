"""Row reduction over F2: canonical form, and the nullspace oracle built on it."""

import random

from oracles import nullspace, pivot_of
from zclrp.gf2 import rref


def test_rref_canonical_properties():
    rng = random.Random(5)
    for _ in range(60):
        width = rng.randint(1, 80)
        rows = [rng.getrandbits(width) for _ in range(rng.randint(0, 20))]
        red = rref(rows)
        pivots = [pivot_of(r) for r in red]
        assert pivots == sorted(pivots) and len(set(pivots)) == len(pivots)
        for r in red:
            for p, other in zip(pivots, red):
                if other is not r:
                    assert not (r >> p) & 1   # reduced above and below
        assert rref(red) == red   # idempotent
        # every original row lies in the span
        for row in rows:
            v = row
            for p, basis_row in zip(pivots, red):
                if (v >> p) & 1:
                    v ^= basis_row
            assert v == 0


def test_nullspace_kills_matrix():
    rng = random.Random(11)
    for _ in range(60):
        width = rng.randint(1, 60)
        rows = [rng.getrandbits(width) for _ in range(rng.randint(0, 15))]
        null = nullspace(rows, width)
        rank = len(rref(rows))
        assert rank + len(null) == width
        for v in null:
            for row in rows:
                assert (row & v).bit_count() % 2 == 0
