import pytest

from oracles import (generator, get_ring, kernel_rows_by_nullspace,
                     naive_diagonal, poly_to_set, poly_to_text, polys,
                     row_as_poly)
from zclrp import (RingSpec, SubspaceBasis, degree_slice, ideal_degree_basis,
                   kernel_basis, verify_generators_lemma, zero_divisors)


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


def test_verify_generators_lemma_mismatch_text(monkeypatch):
    # with one ideal row dropped in every degree, each degree with a row
    # fails and names the lowest row on one side only, in the dense
    # oracle's text form
    def short(spec, degree):
        full = ideal_degree_basis(spec, degree)
        return SubspaceBasis(full.slice, full.rows[1:])

    monkeypatch.setattr(zero_divisors, "ideal_degree_basis", short)
    for m, s in [(2, 3), (3, 2), (1, 4)]:
        spec = RingSpec(m, s)
        for check in verify_generators_lemma(spec):
            ker = kernel_basis(spec, check.degree)
            assert not check.passed
            assert check.dim_ideal == check.dim_kernel - 1
            want = poly_to_text(row_as_poly(ker, ker.rows[0]))
            assert check.mismatch == want
    assert verify_generators_lemma(RingSpec(2, 2))[1].mismatch == \
        "x1^2 + x2^2"


def test_verify_generators_lemma_max_degree():
    checks = verify_generators_lemma(RingSpec(2, 3), max_degree=3)
    assert [c.degree for c in checks] == [1, 2, 3]


def test_low_degree_kernel_has_even_summands():
    for m, s in [(2, 2), (2, 3), (3, 2), (3, 3)]:
        spec = RingSpec(m, s)
        for d in range(1, m + 1):
            for p in polys(kernel_basis(spec, d)):
                assert {sum(e) for e in p.monomials()} == {d}
                assert p.bits.bit_count() % 2 == 0
