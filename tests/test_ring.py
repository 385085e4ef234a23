import random

import pytest
from hypothesis import given, settings, strategies as st

from zclrp import (RingSpec, SizeLimitError, SpecMismatchError, embed,
                   get_ring, monomial_from_text, monomial_to_text,
                   poly_from_bytes, poly_from_text, poly_to_bytes,
                   poly_to_text, rank, unrank)
from zclrp._kernels import RingKernel

from oracles import naive_diagonal, naive_mul, naive_pow, poly_to_set, random_poly_set, set_to_poly


# -- spec and rank/unrank -------------------------------------------------------

def test_spec_validation():
    with pytest.raises(ValueError):
        RingSpec(0, 2)
    with pytest.raises(ValueError):
        RingSpec(3, 1)
    with pytest.raises(SizeLimitError):
        RingSpec(9, 9, bit_limit=10 ** 6)
    assert RingSpec(2, 3).size == 27


def test_rank_examples():
    assert rank(RingSpec(2, 2), (0, 0)) == 0
    assert rank(RingSpec(2, 2), (2, 2)) == 8
    assert rank(RingSpec(2, 3), (1, 2, 0)) == 7  # 1 + 2*3 + 0*9


def test_rank_unrank_roundtrip():
    for m, s in [(1, 2), (2, 3), (3, 2), (1, 4)]:
        spec = RingSpec(m, s)
        for r in range(spec.size):
            assert rank(spec, unrank(spec, r)) == r


def test_rank_rejects():
    spec = RingSpec(2, 3)
    with pytest.raises(ValueError):
        rank(spec, (1, 2))
    with pytest.raises(ValueError):
        rank(spec, (1, 3, 0))
    with pytest.raises(ValueError):
        unrank(spec, 27)
    with pytest.raises(ValueError):
        unrank(spec, -1)


# -- add ------------------------------------------------------------------------

def test_add_characteristic_two():
    ring = get_ring(2, 3)
    rng = random.Random(0)
    for _ in range(10):
        p = ring.poly(rng.getrandbits(ring.size))
        assert (p + p).is_zero
        assert p + ring.zero == p
    x1, x2 = ring.gen(1), ring.gen(2)
    assert x1 + (x1 + x2) == x2


def test_spec_mismatch_rejected():
    p = get_ring(2, 3).one
    q = get_ring(2, 2).one
    with pytest.raises(SpecMismatchError):
        p + q
    with pytest.raises(SpecMismatchError):
        p * q


# -- mul ------------------------------------------------------------------------

def test_mul_examples():
    r12 = get_ring(1, 2)
    d = r12.gen(1) + r12.gen(2)
    assert (d * d).is_zero

    r22 = get_ring(2, 2)
    assert (r22.monomial((2, 0)) * r22.gen(1)).is_zero

    r23 = get_ring(2, 3)
    p = r23.monomial((2, 0, 1)) + r23.monomial((1, 0, 2))
    q = r23.monomial((0, 2, 1)) + r23.monomial((0, 1, 2))
    assert p * q == r23.monomial((2, 2, 2))


def test_mul_matches_naive_reference():
    rng = random.Random(42)
    for m, s in [(1, 2), (2, 2), (1, 3), (2, 3), (3, 2)]:
        ring = get_ring(m, s)
        for _ in range(60):
            sa = random_poly_set(rng, m, s)
            sb = random_poly_set(rng, m, s)
            got = set_to_poly(ring, sa) * set_to_poly(ring, sb)
            assert poly_to_set(got) == naive_mul(m, sa, sb)


def test_frobenius_square_equals_generic_mul():
    rng = random.Random(7)
    for m, s in [(1, 2), (2, 2), (2, 3), (3, 3)]:
        ring = get_ring(m, s)
        for _ in range(40):
            p = ring.poly(rng.getrandbits(ring.size))
            assert ring.square(p) == p * p
            # and the sum-of-squares identity against the oracle
            sq = naive_mul(m, poly_to_set(p), poly_to_set(p))
            assert poly_to_set(ring.square(p)) == sq


# -- kernel truncation masks -----------------------------------------------------

MASK_SHAPES = [(1, 2), (2, 3), (3, 2), (1, 4), (4, 3)]


@pytest.mark.parametrize("m,s", MASK_SHAPES)
def test_kernel_masks_match_definition(m, s):
    spec = RingSpec(m, s)
    digits = [unrank(spec, r) for r in range(spec.size)]
    kernel = RingKernel(m, s)
    for i in range(s):
        for c in range(m + 1):
            want = sum(1 << r for r, e in enumerate(digits) if e[i] <= c)
            assert kernel.masks[i][c] == want, (i, c)
    kernel.square(0)
    assert kernel._square_mask == sum(
        1 << r for r, e in enumerate(digits) if all(2 * x <= m for x in e))


@pytest.mark.parametrize("m,s", MASK_SHAPES)
def test_products_do_not_depend_on_mask_build_order(m, s):
    ring = get_ring(m, s)
    rng = random.Random(m * 10 + s)
    pairs = [(random_poly_set(rng, m, s), random_poly_set(rng, m, s))
             for _ in range(12)]
    want = [naive_mul(m, a, b) for a, b in pairs]
    squares = [naive_mul(m, a, a) for a, _ in pairs]
    cells = [(i, c) for i in range(s) for c in range(m + 1)]
    for trial in range(4):
        kernel = RingKernel(m, s)
        rng.shuffle(cells)
        for i, c in cells[:rng.randint(0, len(cells))]:
            kernel.masks[i][c]
        order = list(range(len(pairs)))
        rng.shuffle(order)
        for k in order:
            a, b = (set_to_poly(ring, p).bits for p in pairs[k])
            if trial % 2:
                assert poly_to_set(ring.poly(kernel.square(a))) == squares[k]
            assert poly_to_set(ring.poly(kernel.mul(a, b))) == want[k]
            assert poly_to_set(ring.poly(kernel.square(a))) == squares[k]


def test_fresh_kernel_holds_no_mask():
    kernel = RingKernel(13, 6)
    assert all(len(row) == 0 for row in kernel.masks)
    assert kernel._square_mask is None
    x1, x2 = 1 << 1, 1 << 14            # ranks of x_1 and x_2
    assert kernel.mul(x1, x2) == 1 << 15
    assert [len(row) for row in kernel.masks] == [1, 0, 0, 0, 0, 0]
    assert kernel._square_mask is None


def test_grading():
    rng = random.Random(3)
    for m, s in [(2, 2), (2, 3)]:
        ring = get_ring(m, s)
        spec = ring.spec
        for _ in range(60):
            d1 = rng.randint(0, s * m)
            d2 = rng.randint(0, s * m)
            ranks1 = ring.degree_ranks(d1)
            ranks2 = ring.degree_ranks(d2)
            if not ranks1 or not ranks2:
                continue
            p = ring.poly(sum(1 << r for r in rng.sample(ranks1, rng.randint(1, len(ranks1)))))
            q = ring.poly(sum(1 << r for r in rng.sample(ranks2, rng.randint(1, len(ranks2)))))
            prod = p * q
            if not prod.is_zero:
                assert prod.is_homogeneous() and prod.degree() == d1 + d2


# -- ring axioms (randomized) ----------------------------------------------------

@pytest.mark.parametrize("m,s", [(2, 2), (1, 3), (3, 3), (9, 2), (2, 4)])
@settings(max_examples=40, deadline=None)
@given(st.randoms(use_true_random=False))
def test_ring_axioms(m, s, rng):
    ring = get_ring(m, s)
    a = ring.poly(rng.getrandbits(ring.size))
    b = ring.poly(rng.getrandbits(ring.size))
    c = ring.poly(rng.getrandbits(ring.size))
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a * ring.one == a
    assert a * ring.zero == ring.zero


# -- pow ------------------------------------------------------------------------

def test_pow_examples():
    r23 = get_ring(2, 3)
    p = r23.gen(1) + r23.gen(3)
    assert p ** 0 == r23.one
    assert p ** 3 == r23.monomial((2, 0, 1)) + r23.monomial((1, 0, 2))

    r12 = get_ring(1, 2)
    assert ((r12.gen(1) + r12.gen(2)) ** 2).is_zero


def test_pow_matches_naive_reference():
    rng = random.Random(11)
    for m, s in [(1, 2), (2, 2), (2, 3)]:
        ring = get_ring(m, s)
        for _ in range(20):
            sa = random_poly_set(rng, m, s, max_terms=3)
            k = rng.randint(0, 2 * m + 2)
            got = set_to_poly(ring, sa) ** k
            assert poly_to_set(got) == naive_pow(m, s, sa, k)

    with pytest.raises(ValueError):
        get_ring(1, 2).one ** -1


# -- binomial_pow -----------------------------------------------------------------

def test_binomial_pow_equals_generic_pow():
    for m, s in [(1, 2), (2, 2), (2, 3), (3, 3), (5, 3)]:
        ring = get_ring(m, s)
        for i in range(1, s + 1):
            for j in range(i + 1, s + 1):
                base = ring.gen(i) + ring.gen(j)
                for k in range(0, 2 * m + 2):
                    assert ring.binomial_pow(i, j, k) == base ** k, (m, s, i, j, k)


def test_binomial_pow_examples():
    r53 = get_ring(5, 3)
    assert (5, 0, 2) in poly_to_set(r53.binomial_pow(1, 3, 7))
    assert r53.binomial_pow(1, 3, 11).is_zero  # k > 2m

    r23 = get_ring(2, 3)
    assert r23.binomial_pow(2, 3, 3) == r23.monomial((0, 2, 1)) + r23.monomial((0, 1, 2))

    with pytest.raises(ValueError):
        r23.binomial_pow(2, 2, 1)
    with pytest.raises(ValueError):
        r23.binomial_pow(0, 1, 1)


# -- diagonal restriction ----------------------------------------------------------

def test_diagonal_restriction_examples():
    r23 = get_ring(2, 3)
    assert r23.diagonal_restriction(r23.gen(1) + r23.gen(2)).is_zero

    r12 = get_ring(1, 2)
    assert r12.diagonal_restriction(r12.monomial((1, 1))).is_zero  # x^2 truncates

    r22 = get_ring(2, 2)
    out = r22.diagonal_restriction(r22.monomial((1, 1)))
    assert out.bits == 1 << 2  # x^2


def test_diagonal_restriction_is_ring_hom():
    rng = random.Random(5)
    for m, s in [(2, 2), (2, 3), (3, 2)]:
        ring = get_ring(m, s)
        for _ in range(60):
            sa = random_poly_set(rng, m, s)
            sb = random_poly_set(rng, m, s)
            p, q = set_to_poly(ring, sa), set_to_poly(ring, sb)
            lhs = ring.diagonal_restriction(p * q)
            rhs_set = naive_diagonal(m, naive_mul(m, sa, sb))
            assert {d for d in range(m + 1) if (lhs.bits >> d) & 1} == rhs_set
            # product of restrictions, via single-variable truncated product
            da = naive_diagonal(m, sa)
            db = naive_diagonal(m, sb)
            prod = set()
            for u in da:
                for v in db:
                    if u + v <= m:
                        prod ^= {u + v}
            assert {d for d in range(m + 1) if (lhs.bits >> d) & 1} == prod


# -- embed -------------------------------------------------------------------------

def test_embed_examples():
    r22 = get_ring(2, 2)
    assert embed(r22.zero, 3).is_zero
    e = embed(r22.gen(1), 3)
    assert e.ring.s == 3 and poly_to_set(e) == {(1, 0, 0)}
    with pytest.raises(ValueError):
        embed(e, 2)
    with pytest.raises(SizeLimitError):
        embed(r22.one, 20, bit_limit=10 ** 4)


def test_embed_is_ring_hom_and_commutes_with_restriction():
    rng = random.Random(9)
    ring = get_ring(2, 2)
    for _ in range(40):
        p = ring.poly(rng.getrandbits(ring.size))
        q = ring.poly(rng.getrandbits(ring.size))
        assert embed(p * q, 4) == embed(p, 4) * embed(q, 4)
        assert embed(p + q, 4) == embed(p, 4) + embed(q, 4)
        assert embed(p, 4).ring.diagonal_restriction(embed(p, 4)) == \
            ring.diagonal_restriction(p)


def test_embed_preserves_ranks():
    ring = get_ring(3, 2)
    rng = random.Random(13)
    for _ in range(20):
        p = ring.poly(rng.getrandbits(ring.size))
        assert embed(p, 3).bits == p.bits


# -- serialization ------------------------------------------------------------------

def test_text_forms():
    ring = get_ring(2, 3)
    assert poly_to_text(ring.zero) == "0"
    assert poly_to_text(ring.one) == "1"
    p = ring.monomial((2, 0, 1)) + ring.gen(2)
    assert poly_to_text(p) == "x2^1 + x1^2*x3^1"
    assert poly_from_text(ring, poly_to_text(p)) == p
    assert poly_from_text(ring, "0") == ring.zero
    assert monomial_to_text((0, 0, 0)) == "1"
    assert monomial_from_text(ring.spec, "x1^2*x3^1") == (2, 0, 1)
    assert monomial_from_text(ring.spec, "x2") == (0, 1, 0)
    with pytest.raises(ValueError):
        monomial_from_text(ring.spec, "x4^1")
    with pytest.raises(ValueError):
        monomial_from_text(ring.spec, "x1^3")


def test_text_roundtrip_random():
    rng = random.Random(21)
    for m, s in [(1, 2), (2, 3), (3, 2)]:
        ring = get_ring(m, s)
        for _ in range(25):
            p = ring.poly(rng.getrandbits(ring.size))
            assert poly_from_text(ring, poly_to_text(p)) == p


def test_binary_roundtrip():
    ring = get_ring(2, 3)
    rng = random.Random(17)
    for _ in range(25):
        p = ring.poly(rng.getrandbits(ring.size))
        raw = poly_to_bytes(p)
        assert len(raw) == (ring.size + 7) // 8
        assert poly_from_bytes(ring, raw) == p
    with pytest.raises(ValueError):
        poly_from_bytes(ring, b"\x00")
