import random

import pytest
from hypothesis import given, settings, strategies as st

from zclrp import (MAX_DP_CELLS, RingSpec, UndeterminedError,
                   monomial_from_text, monomial_to_text, rank, unrank)
from zclrp.cuplength import _binomial_terms, _term_count
from zclrp.zero_divisors import _check_closure
from oracles import (DENSE_RING_BITS, DenseSizeError, RingKernel,
                     SpecMismatchError, dense_mul, get_ring, graded_slices,
                     naive_diagonal, naive_mul, naive_pow, poly_to_set,
                     poly_to_text, random_poly_set, set_to_poly, slice_table)


# -- spec and rank/unrank -------------------------------------------------------

def test_spec_validation():
    # a spec is a plain shape check; the generators check charges
    # s*(m+1)^s against the work cap before it builds its rows
    with pytest.raises(ValueError):
        RingSpec(0, 2)
    with pytest.raises(ValueError):
        RingSpec(3, 1)
    assert RingSpec(9, 9).size == 10 ** 9
    with pytest.raises(UndeterminedError):
        _check_closure(RingSpec(9, 9))
    # the cap is inclusive: (1, 16) charges exactly 2^20
    assert 16 * RingSpec(1, 16).size == MAX_DP_CELLS == 1 << 20
    _check_closure(RingSpec(1, 16))
    assert sum(map(len, slice_table(RingSpec(1, 16)))) == 1 << 16
    with pytest.raises(UndeterminedError):
        _check_closure(RingSpec(1, 17))
    assert RingSpec(2, 3).size == 27
    # the dense oracle keeps its own cap, with its own exception
    with pytest.raises(DenseSizeError):
        get_ring(1, DENSE_RING_BITS.bit_length())


def test_spec_rejects_non_int_fields():
    # (2.5, 2) would have size 12.25
    with pytest.raises(ValueError, match=r"^m 2\.5 is not an integer$"):
        RingSpec(2.5, 2)
    with pytest.raises(ValueError, match=r"^s 2\.0 is not an integer$"):
        RingSpec(2, 2.0)


def test_spec_cap_message():
    # the charge in digits while its bit-length bound is at most 2^64, as
    # a power of 2 past that, so a huge shape never builds or prints its
    # power (1001^2000 has more digits than str() of an int may give)
    cap = f"over the cap of {MAX_DP_CELLS}"
    for (m, s), charge in [((1, 59), 59 * 2 ** 59), ((2, 64), "2^70"),
                           ((1, 60), "2^65"), ((1000, 2000), "2^18010"),
                           ((1, 10 ** 6), "2^1000019")]:
        with pytest.raises(UndeterminedError) as exc:
            _check_closure(RingSpec(m, s))
        relation = ">=" if isinstance(charge, str) else "="
        assert str(exc.value) == (f"generators({m},{s}): the check needs "
                                  f"s*(m+1)^s {relation} {charge} steps, {cap}")


def test_forest_charge_admits_the_old_slice_cap(monkeypatch):
    # every shape the former cap (m+1)^s <= 2^16 admitted passes the
    # charge, since it forces s <= 16; the check builds nothing
    def no_rows(spec, generators):
        raise AssertionError("the check built its rows")

    monkeypatch.setattr("zclrp.zero_divisors._ideal_rows", no_rows)
    shapes = [(m, s) for s in range(2, 65) for m in range(1, 256)
              if (m + 1) ** s <= 1 << 16]
    assert max(s for _, s in shapes) == 16 and len(shapes) == 338
    for m, s in shapes:
        _check_closure(RingSpec(m, s))


def test_poly_range():
    ring = get_ring(2, 3)
    assert ring.poly((1 << 27) - 1).bits == (1 << ring.size) - 1
    for bits in (-1, 1 << ring.size):
        with pytest.raises(ValueError):
            ring.poly(bits)


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
        dense_mul(p, q)


# -- the dense product oracle ----------------------------------------------------

def test_mul_examples():
    r12 = get_ring(1, 2)
    d = r12.gen(1) + r12.gen(2)
    assert dense_mul(d, d).is_zero

    r22 = get_ring(2, 2)
    assert dense_mul(r22.monomial((2, 0)), r22.gen(1)).is_zero

    r23 = get_ring(2, 3)
    p = r23.monomial((2, 0, 1)) + r23.monomial((1, 0, 2))
    q = r23.monomial((0, 2, 1)) + r23.monomial((0, 1, 2))
    assert dense_mul(p, q) == r23.monomial((2, 2, 2))


def test_mul_matches_naive_reference():
    rng = random.Random(42)
    for m, s in [(1, 2), (2, 2), (1, 3), (2, 3), (3, 2)]:
        ring = get_ring(m, s)
        for _ in range(60):
            sa = random_poly_set(rng, m, s)
            sb = random_poly_set(rng, m, s)
            got = dense_mul(set_to_poly(ring, sa), set_to_poly(ring, sb))
            assert poly_to_set(got) == naive_mul(m, sa, sb)


def test_frobenius_square_equals_generic_mul():
    # over F2, (sum M_i)^2 = sum M_i^2: the square keeps exactly the doubled
    # monomials whose digits all stay <= m
    rng = random.Random(7)
    for m, s in [(1, 2), (2, 2), (2, 3), (3, 3)]:
        ring = get_ring(m, s)
        for _ in range(40):
            p = ring.poly(rng.getrandbits(ring.size))
            frobenius = {tuple(2 * x for x in e) for e in p.monomials()
                         if all(2 * x <= m for x in e)}
            assert poly_to_set(dense_mul(p, p)) == frobenius
            assert frobenius == naive_mul(m, poly_to_set(p), poly_to_set(p))


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


@pytest.mark.parametrize("m,s", MASK_SHAPES)
def test_products_do_not_depend_on_mask_build_order(m, s):
    ring = get_ring(m, s)
    rng = random.Random(m * 10 + s)
    pairs = [(random_poly_set(rng, m, s), random_poly_set(rng, m, s))
             for _ in range(12)]
    want = [naive_mul(m, a, b) for a, b in pairs]
    cells = [(i, c) for i in range(s) for c in range(m + 1)]
    for _ in range(4):
        kernel = RingKernel(m, s)
        rng.shuffle(cells)
        for i, c in cells[:rng.randint(0, len(cells))]:
            kernel.masks[i][c]
        order = list(range(len(pairs)))
        rng.shuffle(order)
        for k in order:
            a, b = (set_to_poly(ring, p).bits for p in pairs[k])
            assert poly_to_set(ring.poly(kernel.mul(a, b))) == want[k]


def test_fresh_kernel_holds_no_mask():
    kernel = RingKernel(13, 6)
    assert all(len(row) == 0 for row in kernel.masks)
    x1, x2 = 1 << 1, 1 << 14            # ranks of x_1 and x_2
    assert kernel.mul(x1, x2) == 1 << 15
    assert [len(row) for row in kernel.masks] == [1, 0, 0, 0, 0, 0]


def test_grading():
    rng = random.Random(3)
    for m, s in [(2, 2), (2, 3)]:
        ring = get_ring(m, s)
        spec = ring.spec
        for _ in range(60):
            d1 = rng.randint(0, s * m)
            d2 = rng.randint(0, s * m)
            ranks1 = graded_slices(spec)[d1]
            ranks2 = graded_slices(spec)[d2]
            if not ranks1 or not ranks2:
                continue
            p = ring.poly(sum(1 << r for r in rng.sample(ranks1, rng.randint(1, len(ranks1)))))
            q = ring.poly(sum(1 << r for r in rng.sample(ranks2, rng.randint(1, len(ranks2)))))
            prod = dense_mul(p, q)
            assert {sum(e) for e in prod.monomials()} <= {d1 + d2}


# -- ring axioms (randomized) ----------------------------------------------------

@pytest.mark.parametrize("m,s", [(2, 2), (1, 3), (3, 3), (9, 2), (2, 4)])
@settings(max_examples=40, deadline=None)
@given(st.randoms(use_true_random=False))
def test_ring_axioms(m, s, rng):
    ring = get_ring(m, s)
    a = ring.poly(rng.getrandbits(ring.size))
    b = ring.poly(rng.getrandbits(ring.size))
    c = ring.poly(rng.getrandbits(ring.size))
    mul = dense_mul
    assert mul(a, b) == mul(b, a)
    assert mul(mul(a, b), c) == mul(a, mul(b, c))
    assert mul(a, b + c) == mul(a, b) + mul(a, c)
    assert mul(a, ring.one) == a
    assert mul(a, ring.zero) == ring.zero


# -- powers -------------------------------------------------------------------------

def test_pow_matches_naive_reference():
    # k-fold ring products against k-fold naive products, k up to 2m + 2
    rng = random.Random(11)
    for m, s in [(1, 2), (2, 2), (2, 3)]:
        ring = get_ring(m, s)
        for _ in range(20):
            sa = random_poly_set(rng, m, s, max_terms=3)
            k = rng.randint(0, 2 * m + 2)
            base, got = set_to_poly(ring, sa), ring.one
            for _ in range(k):
                got = dense_mul(got, base)
            assert poly_to_set(got) == naive_pow(m, s, sa, k)


def test_binomial_pow_equals_generic_pow():
    # the closed-form terms verify_witness reads, and the dense oracle's
    # binomial powers, against k-fold naive products
    for m, s in [(1, 2), (2, 2), (2, 3), (3, 3), (5, 3)]:
        ring = get_ring(m, s)
        for i in range(1, s + 1):
            for j in range(i + 1, s + 1):
                base = {tuple(int(v == i) for v in range(1, s + 1)),
                        tuple(int(v == j) for v in range(1, s + 1))}
                for k in range(0, 2 * m + 2):
                    want = naive_pow(m, s, base, k)
                    terms = set()
                    for t in _binomial_terms(m, k):
                        e = [0] * s
                        e[i - 1], e[j - 1] = t, k - t
                        terms.add(tuple(e))
                    assert terms == want, (m, s, i, j, k)
                    assert _term_count(m, k) == len(want), (m, s, k)
                    assert poly_to_set(ring.binomial_pow(i, j, k)) == want, \
                        (m, s, i, j, k)


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

def test_diagonal_restriction_is_ring_hom():
    # substituting x_i -> x after the ring product equals multiplying the
    # substituted factors in F2[x]/(x^(m+1))
    rng = random.Random(5)
    for m, s in [(2, 2), (2, 3), (3, 2)]:
        ring = get_ring(m, s)
        for _ in range(60):
            sa = random_poly_set(rng, m, s)
            sb = random_poly_set(rng, m, s)
            p, q = set_to_poly(ring, sa), set_to_poly(ring, sb)
            lhs = naive_diagonal(m, poly_to_set(dense_mul(p, q)))
            assert lhs == naive_diagonal(m, naive_mul(m, sa, sb))
            da = naive_diagonal(m, sa)
            db = naive_diagonal(m, sb)
            prod = set()
            for u in da:
                for v in db:
                    if u + v <= m:
                        prod ^= {u + v}
            assert lhs == prod


# -- embed -------------------------------------------------------------------------

def test_embed_is_ring_hom_and_commutes_with_restriction():
    # with coordinate 1 least significant, the inclusion A(m, s) -> A(m, s')
    # keeps every rank, so it reuses the coefficient vector as is
    rng = random.Random(9)
    ring, big = get_ring(2, 2), get_ring(2, 4)

    def embed(p):
        return big.poly(p.bits)

    for _ in range(40):
        p = ring.poly(rng.getrandbits(ring.size))
        q = ring.poly(rng.getrandbits(ring.size))
        assert embed(dense_mul(p, q)) == dense_mul(embed(p), embed(q))
        assert embed(p + q) == embed(p) + embed(q)
        assert naive_diagonal(2, poly_to_set(embed(p))) == \
            naive_diagonal(2, poly_to_set(p))


def test_embed_preserves_ranks():
    ring, big = get_ring(3, 2), get_ring(3, 3)
    rng = random.Random(13)
    for _ in range(20):
        p = ring.poly(rng.getrandbits(ring.size))
        assert poly_to_set(big.poly(p.bits)) == {e + (0,) for e in p.monomials()}


# -- serialization ------------------------------------------------------------------

def test_text_forms():
    ring = get_ring(2, 3)
    assert poly_to_text(ring.zero) == "0"
    assert poly_to_text(ring.one) == "1"
    p = ring.monomial((2, 0, 1)) + ring.gen(2)
    assert poly_to_text(p) == "x2^1 + x1^2*x3^1"
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
            text = poly_to_text(p)
            if p.is_zero:
                assert text == "0"
                continue
            terms = [monomial_from_text(ring.spec, t) for t in text.split(" + ")]
            assert terms == list(p.monomials())
