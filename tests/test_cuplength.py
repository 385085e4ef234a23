import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from zclrp import (MAX_DP_CELLS, UndeterminedError, Witness, build_table,
                   explicit_witness, g_stabilization_probe, verify_witness,
                   word_nonzero, z_of, zcl_exact)
from zclrp import cuplength

from oracles import (DENSE_RING_BITS, brute_force_zcl, dense_factor_product,
                     dense_mul, dense_verify_witness, dp_zcl, enumerate_zcl,
                     gain_rows, get_ring, knapsack_zcl,
                     min_residues_by_submasks, min_residues_closed_form)


def ring_word_product(m, s, exponents):
    """Oracle: the actual ring product of the pivot-form word."""
    ring = get_ring(m, s)
    product = ring.one
    for i, b in enumerate(exponents, 1):
        if b:
            product = dense_mul(product, ring.binomial_pow(i, s, b))
    return product


def all_sorted_words(m, s):
    cap = 2 * m

    def rec(parts, total, floor):
        if parts == 0:
            yield ()
            return
        for v in range(floor, min(cap, total) + 1):
            for rest in rec(parts - 1, total - v, v):
                yield (v,) + rest

    yield from rec(s - 1, s * m, 0)


# -- word_nonzero ------------------------------------------------------------------

def test_word_nonzero_examples():
    ok, cert = word_nonzero(2, 3, (3, 3))
    assert ok and cert == (2, 2, 2)

    assert word_nonzero(2, 3, (4, 2)) == (False, None)

    ok, cert = word_nonzero(1, 2, (1,))
    assert ok and cert == (1, 0)


def test_generator_word_validation():
    with pytest.raises(ValueError, match=r"^factor exponent 5 outside \[0, 4\]$"):
        word_nonzero(2, 3, (5, 0))           # exponent above 2m
    with pytest.raises(ValueError, match="^expected 2 exponents, got 3$"):
        word_nonzero(2, 3, (3, 3, 3))        # wrong arity
    with pytest.raises(ValueError,
                       match="^word length 8 exceeds the top degree 6$"):
        word_nonzero(2, 3, (4, 4))           # length above s*m
    with pytest.raises(ValueError, match="^need m >= 1 and s >= 2$"):
        word_nonzero(2, 1, ())


def test_word_nonzero_agrees_with_ring_product():
    # exhaustive over sorted words of every length <= s*m
    for m, s in [(1, 2), (2, 2), (2, 3), (3, 3)]:
        for b in all_sorted_words(m, s):
            ok, cert = word_nonzero(m, s, b)
            product = ring_word_product(m, s, b)
            assert ok == (not product.is_zero), (m, s, b)
            if ok:
                # the certificate monomial must occur in the expansion
                from zclrp import rank
                assert (product.bits >> rank(product.spec, cert)) & 1, (m, s, b)


# -- zcl_exact ----------------------------------------------------------------------

def test_zcl_exact_examples():
    assert zcl_exact(1, 2).value == 1
    assert zcl_exact(2, 3).value == 6
    assert zcl_exact(5, 3).value == 14
    assert zcl_exact(3, 4).value == 9


def test_zcl_exact_witnesses():
    r = zcl_exact(2, 3)
    assert r.method == "exact"
    assert r.witness.factors == ((1, 3, 3), (2, 3, 3))
    assert r.witness.certificate == (2, 2, 2)
    assert verify_witness(r.witness)

    r53 = zcl_exact(5, 3)
    assert r53.witness.factors == ((1, 3, 7), (2, 3, 7))
    assert r53.witness.certificate == (5, 5, 4)
    assert verify_witness(r53.witness)


def test_zcl_witness_is_lex_smallest():
    # at (4, 3) both (5, 7) and (6, 6) attain 12; (5, 7) sorts first
    r = zcl_exact(4, 3)
    assert r.value == 12
    assert r.witness.factors == ((1, 3, 5), (2, 3, 7))


def test_zcl_closed_formula_at_two_factors():
    expected = {1: 1, 2: 3, 3: 3, 4: 7, 5: 7, 6: 7, 7: 7, 8: 15}
    for m, val in expected.items():
        r = zcl_exact(m, 2)
        assert r.value == val == (1 << z_of(m)) - 1


def test_zcl_lower_bound_and_strictness():
    for m in range(1, 7):
        power_of_two = (m + 1) & m == 0
        for s in range(2, 5):
            v = zcl_exact(m, s).value
            assert v >= (s - 1) * m
            if power_of_two:
                assert v == (s - 1) * m, (m, s)
            else:
                assert v > (s - 1) * m, (m, s)


def test_zcl_budget_exhaustion(monkeypatch):
    # the DP cell cap is checked from (m, s) alone, before any table is built
    def no_work(m):
        raise AssertionError("residue table built for a shape over the cap")

    monkeypatch.setattr(cuplength, "_min_residues", no_work)
    with pytest.raises(UndeterminedError, match="cap"):
        zcl_exact(1_000_000, 1000)
    with pytest.raises(UndeterminedError, match="cap"):
        g_stabilization_probe(1_000_000, 1000)
    with pytest.raises(UndeterminedError, match="cap"):
        zcl_exact(1, cuplength.MAX_DP_CELLS)     # the witness alone is linear in s


def test_min_residues_match_submask_definition():
    for m in range(1, 130):
        assert cuplength._min_residues(m) == min_residues_by_submasks(m), m


def test_min_residues_match_the_old_closed_form():
    residues = cuplength._min_residues.__wrapped__   # not kept in the cache
    for m in range(1, 513):
        assert residues(m) == min_residues_closed_form(m), m


def test_min_residues_cache_is_bounded():
    # a report over 600 values of m keeps no more residue tables than the bound
    build_table((1, 600), (2, 2))
    info = cuplength._min_residues.cache_info()
    assert info.maxsize == 256
    assert info.currsize <= info.maxsize


@pytest.mark.slow
def test_min_residues_match_the_old_closed_form_to_4096():
    residues = cuplength._min_residues.__wrapped__
    for m in range(1, 4097):
        assert residues(m) == min_residues_closed_form(m), m


def test_dp_matches_enumerator_oracle():
    # the whole result, witness included: the DP rebuilds the enumerator's
    # lexicographically smallest sorted word of maximal length
    for m in range(1, 17):
        for s in range(2, 7):
            assert zcl_exact(m, s) == enumerate_zcl(m, s), (m, s)


def test_dp_matches_textbook_knapsack():
    # beyond the enumerator's reach: checks the item pruning, the early stop
    # and the shift by m against the plain table over every exponent
    for m in range(1, 97):
        for s in (3, 5, 9):
            result = zcl_exact(m, s)
            assert result.value == knapsack_zcl(m, s), (m, s)
            word = [e for _, _, e in result.witness.factors]
            assert word == sorted(word) and sum(word) == result.value, (m, s)


SHARED_SHAPES = [(m, s) for m in range(1, 41) for s in range(2, 13)]


def _call_orders():
    shuffled = SHARED_SHAPES[:]
    random.Random(22).shuffle(shuffled)
    # two m in turn, so that each call replaces the DP the last one kept
    alternating = [(m, s) for low in range(1, 21) for s in range(2, 13)
                   for m in (low, 41 - low)]
    return {"ascending": SHARED_SHAPES, "descending": SHARED_SHAPES[::-1],
            "shuffled": shuffled, "alternating": alternating}


def test_shared_dp_matches_the_stateless_dp_in_any_call_order():
    # the rows one m shares across its calls are the rows a fresh DP gives,
    # whatever was asked before, and so is the whole result
    expected = {}
    for m, s in SHARED_SHAPES:
        expected[m, s] = gain_rows(m, s - 1), dp_zcl(m, s)
        assert expected[m, s][1].value == knapsack_zcl(m, s), (m, s)
    for name, order in _call_orders().items():
        assert sorted(order) == SHARED_SHAPES, name
        for m, s in order:
            rows, result = expected[m, s]
            assert zcl_exact(m, s) == result, (name, m, s)
            assert g_stabilization_probe(m, s).zcl_values[-1] == result.value
            shared = cuplength._gain_rows(m, s - 1)
            assert shared[:len(rows)] == rows, (name, m, s)
            # a fresh DP stops short of s - 1 only at the first repeat
            assert len(rows) == s or len(shared) == len(rows), (name, m, s)
            assert cuplength._dp[0] == m  # the memo holds the last m only


def test_rows_once_returned_never_change():
    m = 30  # its rows first repeat at H[30]
    cuplength._gain_rows(m + 1, 1)  # start m afresh
    held = cuplength._gain_rows(m, 2)
    snapshot = [row[:] for row in held]
    later = cuplength._gain_rows(m, 9)
    assert len(held) == 3 and len(later) == 10
    assert held == snapshot and later is not held
    assert later[:3] == snapshot
    assert cuplength._gain_rows(m, 5) is later  # served from the rows kept


@settings(max_examples=60, deadline=None)
@given(m=st.integers(1, 40), s=st.integers(2, 4))
def test_dp_matches_enumerator_property(m, s):
    assert zcl_exact(m, s) == enumerate_zcl(m, s)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), m=st.integers(1, 100), s=st.integers(2, 12))
def test_no_nonzero_word_is_longer_than_zcl(data, m, s):
    # words drawn near the top of [0, 2m], where long nonzero words live
    word = data.draw(st.lists(st.integers(m // 2, 2 * m),
                              min_size=s - 1, max_size=s - 1))
    if sum(word) <= s * m and word_nonzero(m, s, word)[0]:
        assert sum(word) <= zcl_exact(m, s).value


def test_zcl_input_validation():
    with pytest.raises(ValueError):
        zcl_exact(0, 2)
    with pytest.raises(ValueError):
        zcl_exact(3, 1)


def test_brute_force_reduction_sanity():
    # arbitrary nonzero homogeneous zero-divisors realize the same maximum
    # as pivot-form generator words
    for m, s in [(1, 2), (2, 2), (1, 3)]:
        assert brute_force_zcl(m, s) == zcl_exact(m, s).value, (m, s)


# -- witnesses ----------------------------------------------------------------------

def test_witness_validation():
    with pytest.raises(ValueError):
        Witness(2, 3, ((3, 1, 2),), (0, 0, 0))     # i >= j
    with pytest.raises(ValueError):
        Witness(2, 3, ((1, 3, 0),), (0, 0, 0))     # exponent 0
    with pytest.raises(ValueError):
        Witness(2, 3, ((1, 3, 2),), (0, 0))        # bad certificate arity
    with pytest.raises(ValueError):
        Witness(2, 3, ((1, 3, 2),), (3, 0, 0))     # certificate exponent > m


def test_witness_rejects_non_int_entries():
    for args, message in [
            ((3.0, 3, ((1, 2, 1),), (0, 0, 0)), "m 3.0"),
            ((3, "3", ((1, 2, 1),), (0, 0, 0)), "s '3'"),
            ((3, 3, ((1.0, 2, 1),), (0, 0, 0)), "factor index 1.0"),
            ((3, 3, ((1, 2.0, 1),), (0, 0, 0)), "factor index 2.0"),
            ((3, 3, ((1, 2, 1.5),), (0, 0, 0)), "factor exponent 1.5"),
            ((3, 3, ((1, 2, 1),), (0, 0.5, 0)), "certificate exponent 0.5")]:
        with pytest.raises(ValueError) as info:
            Witness(*args)
        assert str(info.value) == f"{message} is not an integer"


def test_verify_witness_rejects_dead_factor():
    # a factor power above 2m vanishes, so the product cannot contain anything
    w = Witness(2, 3, ((1, 3, 5), (2, 3, 1)), (2, 2, 2))
    assert not verify_witness(w)


def test_verify_witness_empty_product():
    # no factor: the product is 1, which contains only the empty monomial
    assert verify_witness(Witness(2, 3, (), (0, 0, 0)))
    assert not verify_witness(Witness(2, 3, (), (0, 1, 0)))


@settings(max_examples=150, deadline=None)
@given(data=st.data(), m=st.integers(1, 7), s=st.integers(2, 4))
def test_sparse_verifier_equals_dense_oracle(data, m, s):
    # up to four factors, none at all included, on any variable pair (so
    # some variables go unused) with exponents up to 2m + 2 (above 2m a
    # factor vanishes).  The certificate is one term picked from each
    # factor's expansion, capped at m, so it is often a monomial that
    # cancels mod 2 or nearly fits, or else an arbitrary one
    pair = st.integers(1, s - 1).flatmap(
        lambda i: st.tuples(st.just(i), st.integers(i + 1, s)))
    factors = tuple((i, j, e) for (i, j), e in data.draw(st.lists(
        st.tuples(pair, st.integers(1, 2 * m + 2)), max_size=4)))
    if data.draw(st.booleans()):
        exponents = [0] * s
        for i, j, e in factors:
            t = data.draw(st.integers(0, e))
            exponents[i - 1] += t
            exponents[j - 1] += e - t
        certificate = tuple(min(x, m) for x in exponents)
    else:
        certificate = data.draw(st.tuples(*[st.integers(0, m)] * s))
    w = Witness(m, s, factors, certificate)
    assert verify_witness(w) == dense_verify_witness(w)


def test_sparse_verifier_equals_dense_oracle_on_table_grid():
    # every DP witness of the report grid m <= 15, s <= 6 within the dense
    # oracle's cap, and the same words with the certificate's x_s exponent
    # lowered
    for m in range(1, 16):
        for s in range(2, 7):
            if (m + 1) ** s > DENSE_RING_BITS:
                continue
            w = zcl_exact(m, s).witness
            product = set(dense_factor_product(m, s, w.factors).monomials())
            assert verify_witness(w) and w.certificate in product, (m, s)
            *rest, top = w.certificate
            if top:
                lowered = Witness(m, s, w.factors, (*rest, top - 1))
                assert verify_witness(lowered) == (lowered.certificate in product)


@pytest.mark.parametrize("m,s", [(14, 6), (15, 6), (31, 8), (45, 8),
                                 (100, 100), (511, 200)])
def test_dp_witnesses_past_the_dense_oracle(m, s):
    # shapes no dense ring can hold: the witness verifies, and a certificate
    # moved by one unit in one coordinate, whose total degree then differs
    # from the witness length, does not
    w = zcl_exact(m, s).witness
    assert verify_witness(w)
    for v in range(s):
        for step in (-1, 1):
            moved = list(w.certificate)
            moved[v] += step
            if 0 <= moved[v] <= m:
                assert not verify_witness(
                    Witness(m, s, w.factors, tuple(moved))), (v, step)


def test_dp_witness_bound_within_its_dp_size():
    # at the largest s the DP cap admits, the check of the DP witness meets
    # only x_s open, so its bound is at most (s-1)(m+1), within the DP size
    for m in [2 ** b - 1 for b in range(4, 11)] + [16, 64, 256, 512,
                                                   100, 300, 700, 1000]:
        cells = (m + 1) * ((1 << m.bit_length()) - m)
        s = MAX_DP_CELLS // cells + 1
        w = zcl_exact(m, s).witness
        assert cuplength._work_bound(w) <= (s - 1) * (m + 1) <= MAX_DP_CELLS, m
    assert verify_witness(w)


def test_long_dp_witness_verifies_fast():
    # terms carry only the open variables, so s = 20000 costs little
    w = zcl_exact(1, 20000).witness
    t0 = time.perf_counter()
    assert verify_witness(w)
    assert time.perf_counter() - t0 < 1.0


def test_verify_witness_work_cap(monkeypatch):
    # bounded from the factor list before any product; the cap is inclusive
    def no_terms(m, k):
        raise AssertionError("factor terms read for a witness over the cap")

    w = Witness(1023, 1026, tuple((i, 1026, 1023) for i in range(1, 1026)),
                (1023,) * 1025 + (0,))
    monkeypatch.setattr(cuplength, "_binomial_terms", no_terms)
    with pytest.raises(UndeterminedError, match="over the cap of 1048576"):
        verify_witness(w)
    monkeypatch.undo()
    fits = Witness(1023, 1025, tuple((i, 1025, 1023) for i in range(1, 1025)),
                   (1023,) * 1024 + (0,))
    assert cuplength._work_bound(fits) == MAX_DP_CELLS
    assert verify_witness(fits)


def test_explicit_work_bound_matches_the_verifier():
    # the closed-form bound of explicit_witness is verify_witness's bound
    # of the witness it builds, and a shape over the cap is refused before
    # its factors exist
    shapes = [(m, s) for m in range(1, 40) for s in range(2, 40)]
    shapes += [(255, 300), (383, 400), (1023, 1025), (1023, 1026),
               (1024, 1025), (1024, 1026), (1000, 2000)]
    for m, s in shapes:
        bound = cuplength._explicit_work(m, s)
        if bound > MAX_DP_CELLS:
            with pytest.raises(UndeterminedError, match="over the cap"):
                explicit_witness(m, s)
            continue
        w = explicit_witness(m, s)
        assert bound == (0 if w is None else cuplength._work_bound(w)), (m, s)
    t0 = time.perf_counter()
    with pytest.raises(UndeterminedError) as exc:
        explicit_witness(1, 2_000_000)
    assert time.perf_counter() - t0 < 0.1
    assert str(exc.value) == (
        "witness(1,2000000): the check's work bound reaches 3999998 term "
        "products, over the cap of 1048576")
    with pytest.raises(UndeterminedError, match="reaches 126063936 term"):
        explicit_witness(1000, 2000)


def test_explicit_witness_block_case():
    w = explicit_witness(5, 3)
    assert w.factors == ((1, 3, 7), (2, 3, 7))
    assert w.length == 14
    assert w.certificate == (5, 5, 4)
    assert verify_witness(w)

    w11 = explicit_witness(11, 3)
    assert w11.length == 30
    assert verify_witness(w11)


def test_explicit_witness_all_ones_case():
    w = explicit_witness(3, 3)
    assert w.factors == ((1, 3, 3), (2, 3, 3))
    assert w.length == 6
    assert w.certificate == (3, 3, 0)
    assert verify_witness(w)

    w1 = explicit_witness(1, 5)
    assert w1.length == 4
    assert verify_witness(w1)


def test_explicit_witness_extension_case():
    w = explicit_witness(5, 4)
    assert w.length == 19
    assert ((1, 4, 5) in w.factors) and w.certificate == (5, 5, 4, 5)
    assert verify_witness(w)


def test_explicit_witness_absent_below_block_width():
    assert explicit_witness(5, 2) is None
    assert explicit_witness(2, 2) is None
    assert explicit_witness(4, 3) is None       # sigma = 5 > 3


def test_explicit_witness_even_m_collapse():
    # for even m at s = m+1 the construction reaches the top degree
    for m in (2, 4):
        w = explicit_witness(m, m + 1)
        assert w.length == (m + 1) * m
        assert verify_witness(w)


def test_zcl_dominates_explicit_witness():
    for m in range(1, 7):
        for s in range(2, 5):
            w = explicit_witness(m, s)
            if w is not None:
                assert zcl_exact(m, s).value >= w.length


def test_monotone_extension():
    # a nonzero product stays nonzero after appending (x_1 + x_{s+1})^m
    for m, s in [(2, 2), (3, 2), (2, 3), (5, 3)]:
        res = zcl_exact(m, s)
        product = ring_word_product(m, s, [e for _, _, e in res.witness.factors])
        assert not product.is_zero
        bigger = get_ring(m, s + 1).poly(product.bits)  # ranks carry over
        extended = dense_mul(bigger, bigger.ring.binomial_pow(1, s + 1, m))
        assert not extended.is_zero
        assert zcl_exact(m, s + 1).value >= res.value + m


# -- gap sequence ---------------------------------------------------------------------

def test_g_value_examples():
    assert zcl_exact(2, 3).g == 0
    for s in range(2, 5):
        assert zcl_exact(3, s).g == 3
    assert zcl_exact(5, 3).g == 1


def test_gap_probe_values():
    p1 = g_stabilization_probe(1, 5)
    assert p1.g_values == (1, 1, 1, 1)
    assert p1.stable_gap == 1 and p1.reached_stable

    p2 = g_stabilization_probe(2, 5)
    assert p2.g_values == (1, 0, 0, 0)
    assert p2.stable_gap == 0 and p2.reached_stable

    p5 = g_stabilization_probe(5, 4)
    assert p5.g_values == (3, 1, 1)
    assert p5.reached_stable and p5.stable_gap == 1


def test_gap_probe_monotone():
    for m in range(1, 7):
        probe = g_stabilization_probe(m, 5)
        gs = probe.g_values
        assert all(a >= b >= 0 for a, b in zip(gs, gs[1:]))
        assert probe.as_dict()["g"] == list(gs)
