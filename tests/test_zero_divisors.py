import pytest

from oracles import (degree_slice, forest_lemma, generator, get_ring,
                     graded_slices, ideal_degree_basis, ideal_forest,
                     ideal_rows, in_span, kernel_basis,
                     kernel_rows_by_nullspace, naive_diagonal, poly_to_set,
                     polys, rref, slice_table, vector_from_text)
from zclrp import RingSpec, verify_generators_lemma, zero_divisors
from zclrp.gf2 import closure


def is_zero_divisor(p):
    """Oracle: p dies under the substitution x_i -> x."""
    return not naive_diagonal(p.spec.m, poly_to_set(p))


def test_generator_examples():
    spec = RingSpec(1, 2)
    ring = get_ring(1, 2)
    assert generator(spec, 1) == ring.gen(1) + ring.gen(2)

    spec23 = RingSpec(2, 3)
    ring23 = get_ring(2, 3)
    assert generator(spec23, 2) == ring23.gen(2) + ring23.gen(3)
    for i in range(1, spec23.s):
        assert is_zero_divisor(generator(spec23, i))

    with pytest.raises(ValueError):
        generator(spec23, 3)
    with pytest.raises(ValueError):
        generator(spec23, 0)


def test_degree_slice():
    spec = RingSpec(2, 2)
    sl = degree_slice(spec, 2)
    assert sl.ranks == (2, 4, 6)  # x1^2, x1*x2, x2^2
    assert degree_slice(spec, 0).ranks == (0,)
    assert sum(degree_slice(spec, d).dimension for d in range(5)) == spec.size
    with pytest.raises(ValueError):
        degree_slice(spec, 5)


def test_kernel_basis_small():
    spec = RingSpec(1, 2)
    ring = get_ring(1, 2)
    ker1 = kernel_basis(spec, 1)
    assert ker1.dimension == 1
    assert polys(ker1) == [ring.gen(1) + ring.gen(2)]

    assert kernel_basis(spec, 0).dimension == 0

    ker2 = kernel_basis(spec, 2)
    assert ker2.dimension == 1
    assert polys(ker2) == [ring.monomial((1, 1))]


def test_kernel_dimension_formula():
    # image of the substitution has dimension 1 for d <= m and 0 above
    for m, s in [(1, 2), (2, 2), (2, 3), (3, 2)]:
        spec = RingSpec(m, s)
        for d in range(0, s * m + 1):
            ker = kernel_basis(spec, d)
            expected = degree_slice(spec, d).dimension - (1 if d <= m else 0)
            assert ker.dimension == expected, (m, s, d)


def test_kernel_basis_matches_nullspace_oracle():
    # every slice of every shape with (m+1)^s <= 2^12: 99 shapes
    shapes = [(m, s) for s in range(2, 13) for m in range(1, 64)
              if (m + 1) ** s <= 1 << 12]
    for m, s in shapes:
        spec = RingSpec(m, s)
        for d in range(s * m + 1):
            assert kernel_basis(spec, d).rows == \
                kernel_rows_by_nullspace(spec, d), (m, s, d)


def test_kernel_rows_are_zero_divisors():
    for m, s in [(2, 2), (2, 3), (3, 2)]:
        spec = RingSpec(m, s)
        for d in range(1, s * m + 1):
            for p in polys(kernel_basis(spec, d)):
                assert is_zero_divisor(p)


def test_ideal_basis_small():
    spec = RingSpec(1, 2)
    ring = get_ring(1, 2)
    ib2 = ideal_degree_basis(spec, 2)
    assert polys(ib2) == [ring.monomial((1, 1))]

    # degree 1: the s-1 generators, linearly independent
    for m, s in [(1, 2), (2, 3), (1, 4)]:
        assert ideal_degree_basis(RingSpec(m, s), 1).dimension == s - 1

    spec22 = RingSpec(2, 2)
    ib4 = ideal_degree_basis(spec22, 4)
    assert ib4.dimension == degree_slice(spec22, 4).dimension == 1
    assert polys(ib4) == [get_ring(2, 2).monomial((2, 2))]

    with pytest.raises(ValueError):
        ideal_degree_basis(spec, 0)


def test_ideal_contained_in_kernel_with_equal_dims():
    for m, s in [(1, 2), (2, 2), (2, 3), (3, 2), (1, 4)]:
        spec = RingSpec(m, s)
        for d in range(1, s * m + 1):
            ker = kernel_basis(spec, d)
            ideal = ideal_degree_basis(spec, d)
            assert ideal.rows == ker.rows, (m, s, d)
            for p in polys(ideal):
                assert is_zero_divisor(p)


def test_verify_generators_lemma_passes():
    for m, s in [(1, 2), (2, 3)]:
        checks = verify_generators_lemma(RingSpec(m, s))
        assert len(checks) == s * m
        assert all(c.passed and c.mismatch is None for c in checks)
        assert [c.degree for c in checks] == list(range(1, s * m + 1))
        d = checks[0].as_dict()
        assert set(d) == {"degree", "dim_kernel", "dim_ideal", "pass"}


@pytest.mark.parametrize("m,s", [(4, 6), (2, 8), (6, 5), (3, 7), (1, 10)])
def test_lemma_matches_rref_oracle(m, s):
    # the union-find dimensions and verdicts against rref bases of both
    # sides, in every degree
    spec = RingSpec(m, s)
    checks = verify_generators_lemma(spec)
    assert [c.degree for c in checks] == list(range(1, s * m + 1))
    for c in checks:
        ker = kernel_basis(spec, c.degree)
        ideal = ideal_degree_basis(spec, c.degree)
        assert (c.dim_kernel, c.dim_ideal, c.passed) == \
            (ker.dimension, ideal.dimension, ker.rows == ideal.rows), c


@pytest.mark.parametrize("m,s", [(2, 3), (3, 3), (2, 4), (1, 5), (4, 2)])
def test_ideal_forest_matches_oracle_rows(m, s):
    # the row masks join exactly the monomials that the oracle's two-term
    # rows connect, within one degree, and mark exactly its one-term rows
    spec = RingSpec(m, s)
    slices = graded_slices(spec)
    families, marks = zero_divisors._ideal_rows(spec, s * m, range(1, s))
    for d in range(1, s * m + 1):
        ranks = slices[d]
        label = list(range(len(ranks)))   # the oracle's components

        def root(c):
            while label[c] != c:
                c = label[c]
            return c

        singles = set()
        for row in ideal_rows(spec, d):
            bits = [c for c in range(len(ranks)) if (row >> c) & 1]
            if len(bits) == 1:
                singles.add(ranks[bits[0]])
            else:
                a, b = root(bits[0]), root(bits[1])
                label[max(a, b)] = min(a, b)
        assert {r for r in ranks if marks >> r & 1} == singles, d
        for c, r in enumerate(ranks):
            assert _lowest(closure(1 << r, families)) == ranks[root(c)], (d, r)


def _lowest(x):
    return (x & -x).bit_length() - 1


# every shape with (m+1)^s <= 2^12: 99 shapes
ORACLE_SHAPES = [(m, s) for s in range(2, 13) for m in range(1, 64)
                 if (m + 1) ** s <= 1 << 12]


def _max_degrees(m, s):
    return [None] + sorted({1, m, min(m + 1, s * m), s * m - 1 or 1})


def test_lemma_matches_forest_oracle():
    # the closure's DegreeCheck lists equal the union-find's, with and
    # without --max-degree
    assert len(ORACLE_SHAPES) == 99
    for m, s in ORACLE_SHAPES:
        spec = RingSpec(m, s)
        slices = graded_slices(spec)
        for max_degree in _max_degrees(m, s):
            assert verify_generators_lemma(spec, max_degree) == \
                forest_lemma(spec, max_degree, slices=slices), (m, s, max_degree)


@pytest.mark.slow
def test_lemma_matches_forest_oracle_to_2_16():
    # every shape with (m+1)^s <= 2^16, each at every degree bound
    # _max_degrees gives; minutes, so outside tier 1
    shapes = [(m, s) for s in range(2, 17) for m in range(1, 256)
              if (m + 1) ** s <= 1 << 16]
    assert len(shapes) == 338
    for m, s in shapes:
        spec = RingSpec(m, s)
        slices = slice_table(spec)
        for max_degree in _max_degrees(m, s):
            assert verify_generators_lemma(spec, max_degree) == \
                forest_lemma(spec, max_degree, slices=slices), (m, s, max_degree)


def test_degree_masks_and_counts_match_slices():
    for m, s in [(1, 2), (2, 3), (3, 3), (1, 7), (5, 2), (2, 5)]:
        spec = RingSpec(m, s)
        slices = graded_slices(spec)
        assert zero_divisors._degree_counts(m, s) == [len(r) for r in slices]
        below = 0
        for d, ranks in enumerate(slices):
            below |= sum(1 << r for r in ranks)
            assert zero_divisors._degree_at_most(spec, d) == below, (m, s, d)
            assert zero_divisors._least_rank(m, d) == ranks[0], (m, s, d)


def _faulty_rows(monkeypatch, fault):
    """Make the lemma build its rows through fault(real, spec, top_degree,
    generators)."""
    real = zero_divisors._ideal_rows
    monkeypatch.setattr(
        zero_divisors, "_ideal_rows",
        lambda spec, top_degree, generators:
            fault(real, spec, top_degree, generators))


def _check_mismatches(spec, checks, ideal_rows):
    """Every check agrees with the oracle's bases, and every failing one
    names a vector in exactly one of kernel and span; returns the number of
    failing degrees."""
    failed = 0
    for c in checks:
        ker = kernel_basis(spec, c.degree)
        ideal = rref(ideal_rows(c.degree))
        assert (c.dim_kernel, c.dim_ideal, c.passed) == \
            (ker.dimension, len(ideal), list(ker.rows) == ideal), c
        if c.passed:
            assert c.mismatch is None
            continue
        failed += 1
        v = vector_from_text(spec, ker.slice, c.mismatch)
        assert in_span(ker.rows, v) != in_span(ideal, v), c
    return failed


def test_verify_generators_lemma_mismatch_text(monkeypatch):
    # with the multiples of x_1 + x_s dropped, the span shrinks: degrees
    # <= m split into components, higher degrees lose their marks; the
    # union-find with the same rows dropped gives the same checks
    def dropped(build, spec, *args):
        *rest, generators = args
        return build(spec, *rest, [i for i in generators if i != 1])

    _faulty_rows(monkeypatch, dropped)
    low = high = 0
    for m, s in [(2, 3), (3, 2), (1, 4), (3, 3), (2, 4)]:
        spec = RingSpec(m, s)
        checks = verify_generators_lemma(spec)
        assert checks == forest_lemma(
            spec, forest=lambda *args: dropped(ideal_forest, *args))
        assert _check_mismatches(
            spec, checks,
            lambda d: ideal_degree_basis(spec, d, range(2, s)).rows)
        low += sum(not c.passed for c in checks if c.degree <= m)
        high += sum(not c.passed for c in checks if c.degree > m)
    assert low and high
    assert verify_generators_lemma(RingSpec(2, 2))[1].mismatch == \
        "x1^2 + x1^1*x2^1"


def test_verify_generators_lemma_odd_row_fails(monkeypatch):
    # a one-monomial row added in every degree: outside the kernel for
    # d <= m, where it is named; no change above; the union-find with the
    # same marks added gives the same checks
    def marked_last(real, spec, top, generators):
        families, marks = real(spec, top, generators)
        for ranks in graded_slices(spec)[1:top + 1]:
            marks |= 1 << ranks[-1]
        return families, marks

    def forest_marked_last(spec, slices, top, generators):
        parent, marked = ideal_forest(spec, slices, top, generators)
        for ranks in slices[1:top + 1]:
            marked[ranks[-1]] = 1
        return parent, marked

    _faulty_rows(monkeypatch, marked_last)
    for m, s in [(2, 3), (3, 2), (1, 4)]:
        spec = RingSpec(m, s)
        slices = graded_slices(spec)
        checks = verify_generators_lemma(spec)
        assert checks == forest_lemma(spec, forest=forest_marked_last)
        for max_degree in _max_degrees(m, s)[1:]:
            assert verify_generators_lemma(spec, max_degree) == forest_lemma(
                spec, max_degree, forest=forest_marked_last)
        assert _check_mismatches(
            spec, checks,
            lambda d: ideal_degree_basis(spec, d).rows
            + (1 << len(slices[d]) - 1,)) == m
        assert [c.passed for c in checks] == \
            [c.degree > m for c in checks]
    assert verify_generators_lemma(RingSpec(2, 3))[0].mismatch == "x3^1"


def test_verify_generators_lemma_max_degree():
    checks = verify_generators_lemma(RingSpec(2, 3), max_degree=3)
    assert [c.degree for c in checks] == [1, 2, 3]
    # the rows hold no monomial of degree above the bound
    spec = RingSpec(3, 3)
    slices = graded_slices(spec)
    families, marks = zero_divisors._ideal_rows(spec, 4, range(1, 3))
    above = sum(1 << r for ranks in slices[5:] for r in ranks)
    fourth = sum(1 << r for r in slices[4])
    assert all((lo | hi) & above == 0 for lo, hi, _ in families)
    assert marks & above == 0
    assert any((lo | hi) & fourth for lo, hi, _ in families)


def test_low_degree_kernel_has_even_summands():
    for m, s in [(2, 2), (2, 3), (3, 2), (3, 3)]:
        spec = RingSpec(m, s)
        for d in range(1, m + 1):
            for p in polys(kernel_basis(spec, d)):
                assert {sum(e) for e in p.monomials()} == {d}
                assert p.bits.bit_count() % 2 == 0
