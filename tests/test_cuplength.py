import copy
import itertools
import pickle
import random
import re
import time
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from zclrp import (MAX_DP_CELLS, UndeterminedError, Witness, ZclResult,
                   build_row, g_stabilization_probe, trailing_ones,
                   verify_witness, word_nonzero, z_of, zcl_exact)
from zclrp import cuplength, errors

from oracles import (DENSE_RING_BITS, brute_force_zcl, counted_verify_witness,
                     dense_factor_product, dense_mul, dense_verify_witness,
                     dp_zcl, enumerate_zcl, explicit_witness, explicit_work,
                     gain_rows, get_ring, knapsack_zcl, ListedWitness,
                     maximal_runs, min_residues_by_submasks,
                     min_residues_closed_form, peel,
                     probe_gaps, runs_charge, set_product_verify_witness,
                     set_product_work_bound, uses_of)


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


def test_zcl_witness_is_read_off_the_digits():
    # at (4, 3) both (5, 7) and (6, 6) attain 12; the greedy takes bit 1 of
    # C = 0b11 twice, so both positions take 4 | 2
    r = zcl_exact(4, 3)
    assert r.value == 12
    assert r.witness.factors == ((1, 3, 6), (2, 3, 6))


def assert_certified(result):
    """result is exact and its witness a nonzero word of its length, by the
    criterion and by ring arithmetic."""
    w = result.witness
    word = [e for _, _, e in w.factors]
    assert result.method == "exact" and sum(word) == result.value
    assert word_nonzero(w.m, w.s, word) == (True, w.certificate)
    assert verify_witness(w)


def check_digit_words(m_max, s_max):
    # the word is sorted, its length is (s-1)m + H(s-1, m), and each entry
    # is m | x for a submask x of C, in at most L+1 runs
    for m in range(1, m_max + 1):
        free = ~m & ((1 << m.bit_length()) - 1)
        for s in range(2, s_max + 1):
            result = zcl_exact(m, s)
            word = [e for _, _, e in result.witness.factors]
            assert len(word) == s - 1 and word == sorted(word), (m, s)
            assert sum(word) == result.value == (
                (s - 1) * m + cuplength._gain(m, s - 1, m)), (m, s)
            assert all(e & m == m and (e ^ m) & ~free == 0 for e in word), \
                (m, s)
            assert len(set(word)) <= m.bit_length() + 1, (m, s)
            # each residue is a submask of the next: position i of the
            # digits takes the bits j with i < a_j
            assert all(a & b == a for a, b in zip(word, word[1:])), (m, s)


def test_digit_words():
    check_digit_words(64, 12)


@pytest.mark.slow
def test_digit_words_below_300_by_40():
    check_digit_words(299, 39)


@pytest.mark.parametrize("m,s", [(349524, 4), (393216, 3), (363520, 3),
                                 (87381, 12)])
def test_zcl_exact_does_no_m_sized_work(monkeypatch, m, s):
    # shapes whose witnesses sit far above m: the greedy and the residue
    # are called O(s + L) times, not once per exponent in (m, 2m]
    calls = []
    for name in ("_largest_submask", "_gain"):
        def counted(*args, _inner=getattr(cuplength, name)):
            calls.append(args)
            return _inner(*args)
        monkeypatch.setattr(cuplength, name, counted)
    result = zcl_exact(m, s)
    assert len(calls) <= 2 * (s + m.bit_length())
    assert_certified(result)


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
    # the charge needs no greedy, so a shape over the cap gets nothing: no
    # _digits call, no word, no word_nonzero call, no Witness
    def no_work(*args):
        raise AssertionError("the greedy ran or a word was built over the cap")

    for name in ("_digits", "word_nonzero", "Witness"):
        monkeypatch.setattr(cuplength, name, no_work)
    for run in (zcl_exact, g_stabilization_probe):
        for m, s in [(1_000_000, 600_000),
                     (1, 524_290),            # 2*(s-1), linear in s alone
                     (MAX_DP_CELLS, 2)]:      # a huge m: (s-1)*(m+1)
            with pytest.raises(UndeterminedError, match="cap"):
                run(m, s)


def residues(m):
    """The residue zcl_exact and word_nonzero compute on the fly, for
    v = 0..2m."""
    return tuple(v - cuplength._largest_submask(v, m)
                 for v in range(2 * m + 1))


def test_min_residues_match_submask_definition():
    for m in range(1, 130):
        assert residues(m) == min_residues_by_submasks(m), m


def test_min_residues_match_the_old_closed_form():
    for m in range(1, 513):
        assert residues(m) == min_residues_closed_form(m), m


@pytest.mark.slow
def test_min_residues_match_the_old_closed_form_to_4096():
    for m in range(1, 4097):
        assert residues(m) == min_residues_closed_form(m), m


def check_gain_against_dp_rows(m_max, p_max):
    # every entry H[p][r] of the stateless DP, whose rows repeat their last
    # one past the list
    for m in range(1, m_max + 1):
        rows = gain_rows(m, p_max)
        for p in range(p_max + 1):
            row = rows[min(p, len(rows) - 1)]
            assert [cuplength._gain(m, p, r) for r in range(m + 1)] == row, \
                (m, p)


def test_gain_matches_the_dp_rows():
    check_gain_against_dp_rows(64, 12)


@pytest.mark.slow
def test_gain_matches_the_dp_rows_to_1199():
    check_gain_against_dp_rows(1199, 12)


def test_dp_matches_enumerator_oracle():
    # the enumerator's value; its witness is the lexicographically smallest
    # sorted word, so the digit word is certified on its own
    for m in range(1, 17):
        for s in range(2, 7):
            result = zcl_exact(m, s)
            assert result.value == enumerate_zcl(m, s).value, (m, s)
            assert_certified(result)


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
    # two m in turn
    alternating = [(m, s) for low in range(1, 21) for s in range(2, 13)
                   for m in (low, 41 - low)]
    return {"ascending": SHARED_SHAPES, "descending": SHARED_SHAPES[::-1],
            "shuffled": shuffled, "alternating": alternating}


def test_shared_dp_matches_the_stateless_dp_in_any_call_order():
    # the greedy keeps no state between calls, so every call order gives
    # the stateless DP's value and gap sequence, with a certified witness
    expected = {}
    for m, s in SHARED_SHAPES:
        expected[m, s] = dp_zcl(m, s)
        assert expected[m, s].value == knapsack_zcl(m, s), (m, s)
    for name, order in _call_orders().items():
        assert sorted(order) == SHARED_SHAPES, name
        for m, s in order:
            result = zcl_exact(m, s)
            assert result.value == expected[m, s].value, (name, m, s)
            assert_certified(result)
            probe = g_stabilization_probe(m, s)
            assert probe.zcl_values == tuple(
                expected[m, t].value for t in range(2, s + 1)), (name, m, s)


@settings(max_examples=60, deadline=None)
@given(m=st.integers(1, 40), s=st.integers(2, 4))
def test_dp_matches_enumerator_property(m, s):
    result = zcl_exact(m, s)
    assert result.value == enumerate_zcl(m, s).value
    assert_certified(result)


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


def test_witness_stores_tuples():
    # lists are stored as tuples: the witness equals and hashes as the one
    # built from tuples, and so does a result that holds it
    w = Witness(3, 3, ((1, 3, 3), (2, 3, 3)), (3, 3, 0))
    listed = Witness(3, 3, [[1, 3, 3], [2, 3, 3]], [3, 3, 0])
    assert listed == w and hash(listed) == hash(w) and verify_witness(listed)
    assert (listed.factors, listed.certificate) == (w.factors, w.certificate)
    assert type(listed.factors[0]) is type(listed.certificate) is tuple
    result = ZclResult(3, 3, 6, "exact", listed)
    assert result == zcl_exact(3, 3) and hash(result) == hash(zcl_exact(3, 3))


def factor_list(data, m, s, exponent=None):
    """Up to five blocks of factors (x_i + x_j)^e ... (x_(i+n-1) + x_j)^e
    over consecutive i, e drawn from exponent (default 1..2m+2).  Each
    block after the first goes on from the one before it, or starts right
    after it with a new j or a new exponent, or leaves a gap in i, or
    starts anywhere, so that neighbouring blocks join into one run or are
    cut in every way a run can be."""
    factors, (i, j, e, n) = [], (0, 0, 0, 0)
    for _ in range(data.draw(st.integers(0, 5))):
        link = data.draw(st.sampled_from(["on", "new j", "new e", "gap", "any"]))
        after = i + n + (link == "gap")
        if link == "any" or not 1 <= after < s or (link != "new j" and after >= j):
            after, link = data.draw(st.integers(1, s - 1)), "any"
        i = after
        if link in ("new j", "any"):
            j = data.draw(st.integers(i + 1, s))
        if link in ("new e", "any") or not e:
            e = data.draw(st.integers(1, 2 * m + 2) if exponent is None
                          else exponent)
        n = data.draw(st.integers(1, j - i))
        factors += [(i + k, j, e) for k in range(n)]
    return factors


@settings(max_examples=200, deadline=None)
@given(data=st.data(), m=st.integers(1, 7), s=st.integers(2, 9))
def test_runs_are_lossless(data, m, s):
    # a witness held as runs reads, compares, hashes, prints, pickles and
    # copies as the one that holds its factors one by one, whether they
    # are passed as tuples or as lists
    factors = factor_list(data, m, s)
    certificate = data.draw(st.tuples(*[st.integers(0, m)] * s))
    if data.draw(st.booleans()):
        args = ([list(f) for f in factors], list(certificate))
    else:
        args = (tuple(factors), certificate)
    w, listed = Witness(m, s, *args), ListedWitness(m, s, *args)
    assert w.runs == tuple(maximal_runs(factors))
    assert w.factors == listed.factors and type(w.factors) is tuple
    assert all(type(f) is tuple for f in w.factors)
    assert w.length == listed.length and w.as_dict() == listed.as_dict()
    assert hash(w) == hash(listed) == hash((m, s, tuple(factors), certificate))
    assert repr(w) == repr(listed).replace("ListedWitness(", "Witness(")
    other = factor_list(data, m, s)
    assert (Witness(m, s, other, certificate) == w) == (
        ListedWitness(m, s, other, certificate) == listed)
    for twin in (pickle.loads(pickle.dumps(w)), copy.copy(w),
                 copy.deepcopy(w)):
        assert type(twin) is Witness and twin == w and twin.runs == w.runs
        assert twin.factors == listed.factors and hash(twin) == hash(w)


@settings(max_examples=150, deadline=None)
@given(data=st.data(), m=st.integers(1, 7), s=st.integers(2, 9))
def test_runs_refuse_bad_factors_as_listed_factors_did(data, m, s):
    # one or two bad factors anywhere among good ones: the first bad one
    # raises what a witness holding its factors one by one raised
    bad = st.one_of(
        st.tuples(st.sampled_from([1.0, 2.0, 1.5]), st.just(s), st.just(1)),
        st.tuples(st.just(1), st.sampled_from([float(s), "2"]), st.just(1)),
        st.tuples(st.integers(1, s - 1), st.just(s), st.sampled_from([1.0, 2.5])),
        st.tuples(st.integers(1, s), st.integers(0, s), st.just(1)).filter(
            lambda f: f[0] >= f[1]),
        st.tuples(st.integers(1, s - 1), st.just(s + 1), st.just(1)),
        st.tuples(st.integers(-1, 0), st.just(s), st.just(1)),
        st.tuples(st.integers(1, s - 1), st.just(s), st.integers(-2, 0)),
        st.just((1, s)), st.just((1, s, 1, 1)), st.just(5))
    factors = factor_list(data, m, s)
    for _ in range(data.draw(st.integers(1, 2))):
        factors.insert(data.draw(st.integers(0, len(factors))), data.draw(bad))
    with pytest.raises((ValueError, TypeError)) as listed:
        ListedWitness(m, s, factors, (0,) * s)
    with pytest.raises(type(listed.value)) as held:
        Witness(m, s, factors, (0,) * s)
    assert str(held.value) == str(listed.value)


def test_zcl_exact_builds_maximal_runs():
    # zcl_exact builds its runs without spelling out a factor; they are
    # the runs Witness makes of the factors, at most L+1 of them
    for m in range(1, 130):
        for s in range(2, 40):
            w = zcl_exact(m, s).witness
            assert w.runs == Witness(m, s, w.factors, w.certificate).runs
            assert len(w.runs) <= m.bit_length() + 1, (m, s)


def test_word_nonzero_takes_runs():
    # a word given as runs gives what its entries spelled out give, and
    # is refused with the same messages
    for m in range(1, 20):
        for s in range(2, 8 if m <= 2 else 4):
            for word in itertools.product(range(2 * m + 1), repeat=s - 1):
                if sum(word) > s * m:
                    continue
                runs = [(b, len(list(group)))
                        for b, group in itertools.groupby(word)]
                exponents, counts = zip(*runs)
                assert word_nonzero(m, s, exponents, counts) == \
                    word_nonzero(m, s, word), (m, s, word)
    for exponents, counts in [((3, 5), (1, 1)), ((3,), (3,)), ((4,), (2,)),
                              ((2,), (1,))]:
        with pytest.raises(ValueError) as held:
            word_nonzero(2, 3, exponents, counts)
        with pytest.raises(ValueError) as listed:
            word_nonzero(2, 3, [b for b, n in zip(exponents, counts)
                                for _ in range(n)])
        assert str(held.value) == str(listed.value)


@pytest.mark.parametrize("build, m", [(build_row, 1048575), (zcl_exact, 1),
                                      (zcl_exact, 1048575), (build_row, 2)])
def test_cap_shapes_build_and_check_their_witness_in_runs(build, m):
    # at the largest admitted s the row, or the result, is made from at
    # most L+1 runs: no list of s-1 factors or exponents is ever spelled
    # out, so the peak is the s-entry certificate and a copy of it
    s = 524289
    tracemalloc.start()
    try:
        build(m, s)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 << 20
    w = zcl_exact(m, s).witness
    assert len(w.runs) <= m.bit_length() + 1 and verify_witness(w)


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


def verdict(check, w):
    """check(w), or the refusal's text when its work is over the cap."""
    try:
        return check(w)
    except UndeterminedError as exc:
        return str(exc)


def star_witness(data, m, s):
    """Up to seven factors, at least half of them stars (x_i + x_s)^e as in
    zcl_exact's witnesses, each the only user of its x_i unless i is drawn
    twice; the others on any pair.  The certificate is one term picked
    from each factor's expansion, capped at m, or an arbitrary one."""
    star = st.tuples(st.integers(1, s - 1), st.just(s))
    pair = st.integers(1, s - 1).flatmap(
        lambda i: st.tuples(st.just(i), st.integers(i + 1, s)))
    count = data.draw(st.integers(0, 7))
    stars = data.draw(st.integers((count + 1) // 2, count))
    pairs = data.draw(st.permutations(
        [data.draw(star) for _ in range(stars)]
        + [data.draw(pair) for _ in range(count - stars)]))
    factors = tuple((i, j, data.draw(st.integers(1, 2 * m + 2)))
                    for i, j in pairs)
    if data.draw(st.booleans()):
        exponents = [0] * s
        for i, j, e in factors:
            t = data.draw(st.integers(0, e))
            exponents[i - 1] += t
            exponents[j - 1] += e - t
        certificate = tuple(min(x, m) for x in exponents)
    else:
        certificate = data.draw(st.tuples(*[st.integers(0, m)] * s))
    return Witness(m, s, factors, certificate)


def work_bound(w):
    """The bound verify_witness charges for w's set product, with no cap;
    None when the peel decides w."""
    peeled = peel(w)
    if peeled is None:
        return None
    factors, target = peeled
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cuplength, "MAX_DP_CELLS", 1 << 64)
        return cuplength._work_bound(w.m, factors, target, uses_of(factors))


@settings(max_examples=150, deadline=None)
@given(data=st.data(), m=st.integers(1, 7), s=st.integers(2, 8))
def test_peeled_verifier_equals_the_set_product(data, m, s):
    # the bound after the peel is at most the set product's bound of the
    # whole factor list, so every witness that check decides gets its
    # verdict, and none is refused
    w = star_witness(data, m, s)
    bound, whole = work_bound(w), set_product_work_bound(w)
    assert bound is None or bound <= whole or whole > MAX_DP_CELLS
    got = verdict(verify_witness, w)
    whole_got = verdict(set_product_verify_witness, w)
    if isinstance(whole_got, bool):
        assert got == whole_got
    if (m + 1) ** s <= DENSE_RING_BITS and isinstance(got, bool):
        assert got == dense_verify_witness(w)


@settings(max_examples=150, deadline=None)
@given(data=st.data(), m=st.integers(1, 7), s=st.integers(2, 8))
def test_work_bound_is_never_below_the_counted_steps(data, m, s):
    # the step-counting copy gives the package's verdict, its set product
    # takes no more steps than the bound verify_witness charges for it,
    # and under a cap one below those steps the witness is refused
    w = star_witness(data, m, s)
    got, steps = counted_verify_witness(w)
    package = verdict(verify_witness, w)
    assert package == got or not isinstance(package, bool)
    assert steps <= (work_bound(w) or 0)
    if steps:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr("zclrp.errors.MAX_DP_CELLS", steps - 1)
            patch.setattr(cuplength, "MAX_DP_CELLS", steps - 1)
            with pytest.raises(UndeterminedError, match="over the cap"):
                verify_witness(w)


def runs_witness(data, m, s):
    """A witness of up to five blocks of factors (see factor_list), often
    all of them stars (x_i + x_s)^e as in zcl_exact's witnesses, and often
    with exponents m, m+1 or m+2, whose least residues are small, so that
    the product often reaches the certificate.  That takes one term
    x_i^t x_j^(e-t) of each factor, capped at m, mostly one of the few with
    the largest t whose C(e, t) is odd and whose exponents are at most m;
    a run takes one t for all its factors or one per factor, so that runs come with C one exponent
    on their x_i and with C varying there.  One witness in four has an
    arbitrary certificate instead."""
    factors = factor_list(data, m, s, st.one_of(
        st.integers(1, 2 * m + 2), st.integers(m + 1, m + 2)))
    if data.draw(st.booleans()):
        factors = [(i, s, e) for i, _, e in factors]
    if not data.draw(st.integers(0, 3)):
        return Witness(m, s, factors, data.draw(st.tuples(*[st.integers(0, m)] * s)))
    exponents = [0] * s
    for i, j, e, n in maximal_runs(factors):
        terms = cuplength._binomial_terms(m, e)  # the largest t first
        exponent = st.sampled_from(terms[:data.draw(st.integers(1, 3))]) \
            if terms and data.draw(st.integers(0, 4)) else st.integers(0, e)
        one, t = data.draw(st.booleans()), data.draw(exponent)
        for k in range(n):
            t = t if one or not k else data.draw(exponent)
            exponents[i + k - 1] += t
            exponents[j - 1] += e - t
    return Witness(m, s, factors, tuple(min(x, m) for x in exponents))


@settings(max_examples=300, deadline=None)
@given(data=st.data(), m=st.integers(1, 7), s=st.integers(2, 10))
def test_verifier_on_runs_equals_the_set_product(data, m, s):
    # verify_witness, which takes a run of single-use factors in one step,
    # gives the verdict of the set product over the factors spelled out
    # wherever that one gives one, and of the dense product where it fits
    w = runs_witness(data, m, s)
    got = verdict(verify_witness, w)
    whole = verdict(set_product_verify_witness, w)
    if isinstance(whole, bool):
        assert got == whole
    if (m + 1) ** s <= DENSE_RING_BITS and isinstance(got, bool):
        assert got == dense_verify_witness(w)


def test_verifier_on_varied_greedy_runs_equals_the_set_product():
    # every greedy witness, and every one with the first or last factor of
    # a run moved to another of its terms, C_s moved to match, so that C
    # is no longer one exponent on that run's x_i: the verifier gives the
    # set product's verdict
    for m in range(1, 13):
        for s in range(2, 8):
            w = zcl_exact(m, s).witness
            cases = [w]
            for i, j, e, n in w.runs:
                for v in {i, i + n - 1}:
                    for t in cuplength._binomial_terms(m, e):
                        c = list(w.certificate)
                        c[j - 1] += c[v - 1] - t
                        c[v - 1] = t
                        if c[j - 1] <= m:
                            cases.append(Witness(m, s, w.factors, c))
            for x in cases:
                assert verify_witness(x) == set_product_verify_witness(x), x


@pytest.mark.parametrize("m, s, factors", [
    (2, 5, ((1, 5, 3), (2, 5, 3), (3, 5, 3), (4, 5, 2))),  # rising stars
    (2, 4, ((1, 4, 3), (2, 4, 3), (1, 4, 3))),             # runs that overlap
    (2, 5, ((1, 3, 2), (2, 5, 3), (3, 5, 3))),             # an x_j in a run
    (2, 5, ((3, 5, 3), (4, 5, 3), (1, 5, 3), (2, 5, 3))),  # falling runs
    (3, 4, ((1, 4, 4), (2, 4, 4), (3, 4, 2), (1, 3, 1))),  # x_i used again
    (2, 5, ((1, 4, 3), (2, 4, 3), (3, 5, 2), (4, 5, 1))),  # two j's
    (2, 4, ((3, 4, 2), (3, 4, 3))),                        # one x_i, two runs
    (5, 3, ((1, 3, 2), (2, 3, 2))),                        # C varies on a run
])
def test_verifier_on_run_layouts_equals_the_dense_product(m, s, factors):
    # every certificate of (m+1)^s, against the dense product, on layouts
    # where a run is taken in one step and where it must go factor by
    # factor
    product = dense_factor_product(m, s, factors)
    present = set(product.monomials())
    for certificate in itertools.product(range(m + 1), repeat=s):
        w = Witness(m, s, factors, certificate)
        assert verify_witness(w) == (certificate in present), certificate


def test_a_factor_with_no_terms_ends_the_set_product(monkeypatch):
    # (x1 + x2)^10 has no term in A(5, 2), so the product ends there and
    # the bound stops before it: 4 steps for the 4 terms of (x1 + x2)^3,
    # none for the 4 live terms the second factor would try
    w = Witness(5, 2, ((1, 2, 3), (1, 2, 10)), (5, 5))
    assert counted_verify_witness(w) == (False, 4)
    assert work_bound(w) == 4 and not verify_witness(w)
    monkeypatch.setattr("zclrp.errors.MAX_DP_CELLS", 3)
    with pytest.raises(UndeterminedError, match="reaches 4 term products"):
        verify_witness(w)


def test_peeled_verifier_equals_the_set_product_exhaustively():
    # every witness of at most two factors where (m+1)^s <= 27, with
    # exponents up to 2m + 1 (above 2m a factor vanishes), against every
    # certificate
    for m, s in [(1, 2), (2, 2), (3, 2), (1, 3), (2, 3)]:
        single = [(i, j, e) for i in range(1, s) for j in range(i + 1, s + 1)
                  for e in range(1, 2 * m + 2)]
        lists = [()] + [(f,) for f in single] + list(
            itertools.product(single, repeat=2))
        for certificate in itertools.product(range(m + 1), repeat=s):
            for factors in lists:
                w = Witness(m, s, factors, certificate)
                assert verify_witness(w) == set_product_verify_witness(w), w


def test_peeled_verifier_equals_the_set_product_on_closed_form_witnesses():
    # every closed-form witness of m, s < 40, most of whose factors alone
    # use one of their variables, and the same witness with one unit of its
    # certificate moved from one coordinate to another
    for m in range(1, 40):
        for s in range(2, 40):
            w = explicit_witness(m, s)
            if w is None:
                continue
            assert verify_witness(w) and set_product_verify_witness(w), (m, s)
            for a, b in ((0, s - 1), (s - 1, 0), (s - 2, s - 1)):
                moved = list(w.certificate)
                moved[a] -= 1
                moved[b] += 1
                if 0 <= moved[a] and moved[b] <= m:
                    lowered = Witness(m, s, w.factors, moved)
                    assert verify_witness(lowered) == \
                        set_product_verify_witness(lowered), (m, s, a, b)


def test_sparse_verifier_equals_dense_oracle_on_table_grid():
    # every zcl_exact witness, the digit greedy's word, of the report grid
    # m <= 15, s <= 6 within the dense oracle's cap, and the same words with
    # the certificate's x_s exponent lowered
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
def test_greedy_witnesses_past_the_dense_oracle(m, s):
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


def charged(m, s):
    """The work _check_cells charges (m, s), read off its refusal under a
    cap of 0."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("zclrp.errors.MAX_DP_CELLS", 0)
        with pytest.raises(UndeterminedError) as exc:
            cuplength._check_cells(m, s)
    return int(re.search(r"needs (\d+) steps", str(exc.value))[1])


def test_greedy_witness_bound_within_its_charge(monkeypatch):
    # zcl_exact is charged 2*(s-1), at most the charges before it, the
    # runs' term counts and (s-1)(m+1).  The check of its witness leaves no
    # factor to the set product, so its bound is 0: no witness the charge
    # admits is refused by its check, even under a cap of 0
    shapes = [(m, MAX_DP_CELLS // (m + 1) + 1) for m in
              [2 ** b - 1 for b in range(4, 11)] + [16, 64, 256, 512,
                                                   100, 300, 700, 1000]]
    for m, s in shapes + [(1048575, 3), (699050, 1000), (349524, 4)]:
        w = zcl_exact(m, s).witness
        assert charged(m, s) == 2 * (s - 1) <= runs_charge(m, s) \
            <= (s - 1) * (m + 1), (m, s)
        assert peel(w) == ([], [0] * s), (m, s)
        with monkeypatch.context() as patch:
            patch.setattr("zclrp.errors.MAX_DP_CELLS", 0)
            assert verify_witness(w), (m, s)
    with pytest.raises(UndeterminedError, match="cap"):
        zcl_exact(1, 524290)             # 2*(s-1) = 2^20 + 2


def test_charge_admits_every_shape_the_old_charge_admitted():
    # every factor (x_i + x_s)^(m|x) of the greedy's witness has at least
    # the two terms t = m and t = x, so 2*(s-1) is at most the old charge,
    # the runs' term counts.  Checked for every m <= 2^12 where the old
    # charge crosses the cap (found by bisection; it is not monotone in s)
    # and shape by shape on m, s <= 64
    for m in range(1, 2 ** 12 + 1):
        low, high = 2, 524290
        while high - low > 1:
            mid = (low + high) // 2
            low, high = (mid, high) if runs_charge(m, mid) <= MAX_DP_CELLS \
                else (low, mid)
        assert 2 * (low - 1) <= runs_charge(m, low) <= MAX_DP_CELLS, m
        cuplength._check_cells(m, low)
    assert zcl_exact(1000, 2000).value == 2000 * 1000
    assert runs_charge(1000, 2000) == 131900
    for m in range(1, 65):
        for s in range(2, 65):
            assert charged(m, s) == 2 * (s - 1) <= runs_charge(m, s), (m, s)


def test_charge_within_the_closed_form_bound(monkeypatch):
    # wherever the closed-form witness exists, zcl_exact's charge is at
    # most that witness's check, shape by shape: under a cap equal to the
    # closed-form bound the charge admits the shape
    monkeypatch.setattr(errors, "MAX_DP_CELLS", 0)    # restored after
    for m in range(1, 2 ** 8 + 1):
        for s in range(2, 400):
            bound = explicit_work(m, s)
            if bound:
                errors.MAX_DP_CELLS = bound
                cuplength._check_cells(m, s)


def test_zcl_exact_admits_every_closed_form_shape():
    # the largest s whose closed-form witness fits the cap: zcl_exact's
    # charge admits it too, so the closed form covers no shape zcl_exact
    # refuses
    for m in range(1, 2 ** 12 + 1):
        sigma = (m + 1) >> trailing_ones(m)
        low, high = max(2, sigma), MAX_DP_CELLS + sigma + 2
        if explicit_work(m, low) > MAX_DP_CELLS:
            continue
        while high - low > 1:            # explicit_work rises from sigma on
            mid = (low + high) // 2
            low, high = (mid, high) if explicit_work(m, mid) <= MAX_DP_CELLS \
                else (low, mid)
        cuplength._check_cells(m, low)


def test_long_greedy_witness_verifies_fast():
    # each factor alone uses its x_i and is multiplied out on its own, so
    # s = 20000 costs little
    w = zcl_exact(1, 20000).witness
    t0 = time.perf_counter()
    assert verify_witness(w)
    assert time.perf_counter() - t0 < 1.0


def test_verify_witness_work_cap(monkeypatch):
    # bounded from the factors the peel leaves, before any product: no
    # factor here alone uses a variable, the first has 2 terms and the
    # middle one leaves x1 and x3 open, with 1024 live terms times its 1024
    # terms, which takes the sum past the cap
    def no_terms(m, k):
        raise AssertionError("factor terms read for a witness over the cap")

    w = Witness(1023, 3, ((1, 3, 1), (1, 3, 1023), (1, 3, 1022)),
                (1023, 0, 1023))
    monkeypatch.setattr(cuplength, "_binomial_terms", no_terms)
    with pytest.raises(UndeterminedError, match="reaches 1048578 term "
                       "products, over the cap of 1048576"):
        verify_witness(w)
    monkeypatch.undo()
    # the cap is inclusive: 64 terms, then 16 live terms each tried once
    fits = Witness(1023, 3, ((1, 3, 1000), (1, 3, 23)), (1008, 0, 15))
    assert work_bound(fits) == 80
    monkeypatch.setattr("zclrp.errors.MAX_DP_CELLS", 80)
    assert verify_witness(fits)
    monkeypatch.setattr("zclrp.errors.MAX_DP_CELLS", 79)
    with pytest.raises(UndeterminedError, match="reaches 80 term products"):
        verify_witness(fits)


def test_explicit_work_bound_matches_the_verifier():
    # the closed-form bound of explicit_witness is the set product's bound
    # of the witness it builds, and a shape over the cap is refused before
    # its factors exist
    shapes = [(m, s) for m in range(1, 40) for s in range(2, 40)]
    shapes += [(255, 300), (383, 400), (1023, 1025), (1023, 1026),
               (1024, 1025), (1024, 1026), (1000, 2000)]
    for m, s in shapes:
        bound = explicit_work(m, s)
        if bound > MAX_DP_CELLS:
            with pytest.raises(UndeterminedError, match="over the cap"):
                explicit_witness(m, s)
            continue
        w = explicit_witness(m, s)
        assert bound == (0 if w is None else set_product_work_bound(w)), \
            (m, s)
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


@pytest.mark.parametrize("s_maxes", [
    (2, 3, 5, 9, 17, 40),
    pytest.param((2, 3, 5, 9, 17, 40, 200, 1500), marks=pytest.mark.slow)])
def test_gap_probe_matches_the_greedy_at_every_s(s_maxes):
    # the probe stops its greedy once the gap settles; the gaps are those
    # of one greedy per s, for every m <= 1024
    for m in range(1, 1025):
        gaps = probe_gaps(m, s_maxes[-1])
        for s_max in s_maxes:
            probe = g_stabilization_probe(m, s_max)
            assert probe.g_values == gaps[:s_max - 1], (m, s_max)


def test_gap_probe_monotone():
    for m in range(1, 7):
        probe = g_stabilization_probe(m, 5)
        gs = probe.g_values
        assert all(a >= b >= 0 for a, b in zip(gs, gs[1:]))
        assert probe.as_dict()["g"] == list(gs)
