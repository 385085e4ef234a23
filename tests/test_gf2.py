"""F2 linear algebra: the bitset closure of two-term rows in the package
against row reduction, and the row reduction oracle itself -- canonical
form, agreement with the quadratic oracle, and the nullspace built on it."""

import random

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from oracles import (ideal_degree_basis, in_span, nullspace, pivot_of, rref,
                     rref_quadratic)
from zclrp import RingSpec
from zclrp.gf2 import closure, flood


def _families(rows):
    """Shift families and marks of rows given as tuples of one or two
    columns: each edge joins its lower column a to a + d, and the edges of
    one difference d make one family."""
    lows, marks = {}, 0
    for row in rows:
        if len(row) == 1:
            marks |= 1 << row[0]
            continue
        a, b = sorted(row)
        lows[b - a] = lows.get(b - a, 0) | 1 << a
    return [(lo, lo << d, d) for d, lo in lows.items()], marks


@settings(max_examples=200, deadline=None)
@given(data=st.data(), n=st.integers(1, 40))
def test_two_term_span_matches_rref(data, n):
    # dimension n - (unmarked components), and a unit vector lies outside
    # the span exactly on an unmarked component
    column = st.integers(0, n - 1)
    rows = data.draw(st.lists(st.one_of(
        st.tuples(column),
        st.tuples(column, column).filter(lambda ab: ab[0] != ab[1])),
        max_size=60))
    families, marks = _families(rows)
    parts = list(flood((1 << n) - 1, families))
    unmarked = [p for p in parts if not p & marks]
    reduced = rref([sum(1 << c for c in row) for row in rows])
    assert n - len(unmarked) == len(reduced)
    assert sum(parts) == (1 << n) - 1
    for v in range(n):
        part = next(p for p in parts if p >> v & 1)
        assert closure(1 << v, families) == part
        assert (part in unmarked) == (not in_span(reduced, 1 << v))
    lowest = [(p & -p).bit_length() - 1 for p in parts]
    assert lowest == sorted(lowest)


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


@settings(max_examples=150, deadline=None)
@given(data=st.data(), width=st.integers(1, 300))
def test_rref_matches_quadratic_oracle_dense(data, width):
    rows = data.draw(st.lists(st.integers(0, (1 << width) - 1), max_size=40))
    assert rref(rows) == rref_quadratic(rows)


@settings(max_examples=150, deadline=None)
@given(data=st.data(), width=st.integers(1, 300))
def test_rref_matches_quadratic_oracle_sparse(data, width):
    # rows of 1-4 set bits, like the ideal rows M*x_i + M*x_s
    column = st.integers(0, width - 1)
    rows = data.draw(st.lists(
        st.lists(column, min_size=1, max_size=4).map(
            lambda cols: sum(1 << c for c in set(cols))),
        max_size=200))
    assert rref(rows) == rref_quadratic(rows)


@pytest.mark.parametrize("m,s", [(2, 4), (3, 3), (4, 3)])
def test_ideal_basis_matches_quadratic_oracle(monkeypatch, m, s):
    spec = RingSpec(m, s)
    got = [ideal_degree_basis(spec, d).rows for d in range(1, s * m + 1)]
    monkeypatch.setattr(oracles, "rref", rref_quadratic)
    want = [ideal_degree_basis(spec, d).rows for d in range(1, s * m + 1)]
    assert got == want
