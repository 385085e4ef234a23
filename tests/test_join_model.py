import copy
import pickle
import random
import re
from decimal import Decimal
from fractions import Fraction
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from zclrp import (JoinPoint, act, component_key, in_U, join_point,
                   sample_report, segment_in_component, vertex)
from zclrp import join_model
from zclrp.join_model import _labels_compatible, sample_point


def test_labels_are_ints_in_range_with_xor_as_group_law():
    p = vertex(4, 1, 0, 0b101)
    assert component_key(act(0b011, p), 0) == 0b110
    assert act(0b101, p) == vertex(4, 1, 0, 0)
    assert act(0, p) == p
    for bad in (8, -1):  # labels of s = 4 lie in [0, 8)
        with pytest.raises(ValueError, match=f"^label {bad} outside \\[0, 2\\^3\\)$"):
            vertex(4, 1, 0, bad)
        with pytest.raises(ValueError, match=f"^label {bad ^ 0b101} outside"):
            act(bad, p)
    with pytest.raises(ValueError):  # a label of s = 4 is too big for s = 3
        vertex(3, 1, 0, 4)
    with pytest.raises(ValueError, match="^need s >= 2$"):
        JoinPoint(1, 0, ((1, 0),))


def test_join_point_rejects_non_int_s_and_k():
    # checked before 1 << (s - 1) can raise TypeError on a float s
    with pytest.raises(ValueError, match=r"^s 3\.0 is not an integer$"):
        JoinPoint(3.0, 0, ((1, 0),))
    with pytest.raises(ValueError, match=r"^k 0\.0 is not an integer$"):
        JoinPoint(3, 0.0, ((1, 0),))


def test_join_point_validation():
    half = Fraction(1, 2)
    ok = join_point(3, 1, {0: (half, 1), 1: (half, 2)})
    assert ok.s == 3
    with pytest.raises(ValueError):  # does not sum to 1
        join_point(3, 1, {0: (half, 1)})
    with pytest.raises(ValueError):  # label at a zero coordinate
        JoinPoint(3, 1, ((1, 0), (0, 1)))
    with pytest.raises(ValueError):  # weights must be integers
        JoinPoint(3, 1, ((Fraction(1, 2), 0), (Fraction(1, 2), 1)))
    with pytest.raises(ValueError):  # negative coordinate
        join_point(3, 1, {0: (Fraction(3, 2), 0), 1: (-half, 1)})
    with pytest.raises(ValueError):  # a label outside the point's group
        join_point(3, 1, {0: (half, 0), 1: (half, 4)})
    with pytest.raises(ValueError, match=r"^label 1\.0 is not an integer$"):
        JoinPoint(3, 0, ((1, 1.0),))
    with pytest.raises(ValueError, match=r"^denominator 1\.0 is not an integer$"):
        JoinPoint(3, 0, ((1, 0),), 1.0)
    # bools are ints, as they are for weights
    assert JoinPoint(3, 0, ((True, True),), True).entries == ((1, 1),)
    for level in (-1, 2):  # levels run 0..k
        with pytest.raises(ValueError, match=f"level {level} outside \\[0, 1\\]"):
            join_point(3, 1, {level: (1, 1)})
    with pytest.raises(ValueError):
        vertex(3, 2, 3, 1)
    assert join_point(3, 1, {1: (1, 1)}).entries == ((0, None), (1, 1))


@pytest.mark.parametrize("entries", [[(1, 0), (0, None)], [[1, 0], [0, None]],
                                     ([1, 0], (0, None))])
def test_join_point_stores_entries_as_tuples(entries):
    # a list kept as given made == depend on the container and hash() fail
    p = JoinPoint(3, 1, entries)
    assert p.entries == ((1, 0), (0, None))
    assert type(p.entries) is tuple
    assert all(type(e) is tuple for e in p.entries)
    assert p == JoinPoint(3, 1, ((1, 0), (0, None)))
    assert hash(p) == hash(JoinPoint(3, 1, ((1, 0), (0, None))))
    assert JoinPoint(3, 0, [(1, 0)]) == JoinPoint(3, 0, ((1, 0),))


@pytest.mark.parametrize("g", [1.0, "x", None])
def test_act_refuses_a_label_that_is_no_int(g):
    # checked before g ^ h, which would raise TypeError
    p = vertex(3, 0, 0, 0)
    with pytest.raises(ValueError, match=f"^{re.escape(f'label {g!r}')} "
                                         "is not an integer$"):
        act(g, p)
    assert act(True, p) == vertex(3, 0, 0, 1)  # bools are ints


@pytest.mark.parametrize("t", [0.5, Decimal("0.5"), "1/2", None,
                               SimpleNamespace(numerator=0.5, denominator=1),
                               SimpleNamespace(numerator=1, denominator=0.5)])
def test_join_point_names_a_coordinate_that_is_no_ratio_of_ints(t):
    # a float has no .numerator; it is bad input, not an AttributeError
    with pytest.raises(ValueError, match=f"^{re.escape(f'coordinate {t!r}')} "
                                         "has no int numerator and denominator$"):
        join_point(3, 1, {0: (t, 1), 1: (t, 2)})


@pytest.mark.parametrize("denom", [0, 1])
def test_point_needs_a_positive_weight(denom):
    for k in (0, 2):
        with pytest.raises(ValueError):
            JoinPoint(3, k, ((0, None),) * (k + 1), denom)
    with pytest.raises(ValueError):
        join_point(3, 2, {})


def coordinates(p):
    return [(Fraction(w, p.denom), g) for w, g in p.entries]


def oracle_coordinates(fp):
    """An oracle point's entries with each GroupElem read as its bits."""
    return [(t, None if g is None else g.bits) for t, g in fp.entries]


def test_act_is_an_action_preserving_coordinates():
    rng, twin = random.Random(0), random.Random()
    for _ in range(50):
        s, k = rng.randint(2, 5), rng.randint(0, 4)
        j = rng.randrange(k + 1)
        twin.setstate(rng.getstate())
        p = sample_point(rng, s, k, j)
        fp = oracles.sample_point(twin, s, k, j)
        g = rng.randrange(1 << (s - 1))
        h = rng.randrange(1 << (s - 1))
        assert act(0, p) == p
        assert act(g, act(g, p)) == p
        assert act(g ^ h, p) == act(g, act(h, p))
        assert [t for t, _ in act(g, p).entries] == [t for t, _ in p.entries]
        assert act(g, p).denom == p.denom
        assert sum(w for w, _ in act(g, p).entries) == p.denom
        assert (coordinates(act(g, p))
                == oracle_coordinates(oracles.act(oracles.GroupElem(s, g), fp)))


@pytest.mark.parametrize("s,k,j,message", [
    (2, 1, 2, r"level 2 outside \[0, 1\]"),
    (2, 1, -1, r"level -1 outside \[0, 1\]"),
    (2, 1, 5, r"level 5 outside \[0, 1\]"),
    (1, 1, 0, "need s >= 2"),
    (2, -1, 0, "need k >= 0"),
])
def test_sample_point_refuses_a_bad_shape_before_any_draw(s, k, j, message):
    # unchecked, a j outside [0, k] gives a point outside U_j, s = 1 a point
    # of no join and k < 0 a zero denominator
    rng = random.Random(0)
    state = rng.getstate()
    with pytest.raises(ValueError, match=f"^{message}$"):
        sample_point(rng, s, k, j)
    assert rng.getstate() == state


def _assert_canonical(p):
    q = JoinPoint(p.s, p.k, p.entries, p.denom)
    assert (q.s, q.k, q.entries, q.denom) == (p.s, p.k, p.entries, p.denom)
    assert type(p.entries) is tuple


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 10), st.integers(0, 12), st.integers(0, 2**32))
@example(3, 12, 0)  # routes segments through the vertex
def test_points_built_without_checks_are_canonical(s, k, seed):
    # every point sample_point, act and segment_in_component build without
    # JoinPoint's checks passes them unchanged, gcd-reduced already
    built, trusted = [], join_model._trusted_point

    def recording(*fields):
        built.append(trusted(*fields))
        return built[-1]

    rng = random.Random(seed)
    n_keys = 1 << (s - 1)
    with mock.patch("zclrp.join_model._trusted_point", recording):
        for j in range(k + 1):
            p, q = sample_point(rng, s, k, j), sample_point(rng, s, k, j)
            q = act(component_key(p, j) ^ component_key(q, j), q)
            act(rng.randrange(n_keys), p)
            before = len(built)
            assert segment_in_component(p, q, j)
            routed = built[before:]
            assert routed == ([] if _labels_compatible(p, q)
                              else [vertex(s, k, j, component_key(p, j))])
            h = next(h for _, h in p.entries if h is not None)
            for g in (-1 - rng.randrange(n_keys), n_keys + rng.randrange(n_keys)):
                with pytest.raises(ValueError, match=f"^label {g ^ h} outside "
                                                     f"\\[0, 2\\^{s - 1}\\)$"):
                    act(g, p)
    assert len(built) >= 4 * (k + 1)  # two draws and two actions per level
    for p in built:
        _assert_canonical(p)


# 1..300 covers every bit length of a label or weight the CLI draws; the
# others straddle the 32-bit words getrandbits is built from
_BELOW_BOUNDS = [*range(1, 301), 2**31, 2**32 - 1, 2**32, 2**32 + 1,
                 2**64 + 7, 2**100]


@pytest.mark.parametrize("seed", range(10))
def test_below_takes_the_draws_of_randrange(seed):
    # sample_point and sample_report draw through _below; were a CPython's
    # randrange to draw otherwise, verify join output would drift unseen
    rng, twin = random.Random(seed), random.Random(seed)
    below = join_model._below
    for n in _BELOW_BOUNDS:
        assert below(rng.getrandbits, n) == twin.randrange(n), n
        assert rng.getstate() == twin.getstate(), n
        assert 1 + below(rng.getrandbits, n) == twin.randrange(1, n + 1), n
        assert rng.getstate() == twin.getstate(), n


@pytest.mark.parametrize("s", [2, 3, 5, 33, 34, 65, 100])
def test_sample_point_takes_the_draws_of_the_fraction_oracle(s):
    # labels of one to four 32-bit words, and k + 1 = 1, 2, 4, 8 and 16
    rng, twin = random.Random(s), random.Random(s)
    for k in range(17):
        for j in range(k + 1):
            p, fp = sample_point(rng, s, k, j), oracles.sample_point(twin, s, k, j)
            assert coordinates(p) == oracle_coordinates(fp), (s, k, j)
            assert rng.getstate() == twin.getstate(), (s, k, j)


def _trusted_points():
    """Points sample_point, act and the routing vertex of
    segment_in_component build through _trusted_point."""
    built, trusted = [], join_model._trusted_point

    def recording(*fields):
        built.append(trusted(*fields))
        return built[-1]

    rng = random.Random(8)
    half = Fraction(1, 2)
    with mock.patch("zclrp.join_model._trusted_point", recording):
        for s, k in [(2, 0), (3, 2), (5, 4), (34, 3)]:
            for j in range(k + 1):
                act(rng.randrange(1 << (s - 1)), sample_point(rng, s, k, j))
        # same key at level 0, clashing labels at level 1: routed
        assert segment_in_component(join_point(3, 1, {0: (half, 1), 1: (half, 2)}),
                                    join_point(3, 1, {0: (half, 1), 1: (half, 3)}), 0)
    return built


def test_trusted_points_behave_like_checked_ones():
    points = _trusted_points()
    assert len(points) == 2 * (1 + 3 + 5 + 4) + 1
    assert points[-1] == vertex(3, 1, 0, 1)
    for p in points:
        checked = JoinPoint(p.s, p.k, p.entries, p.denom)
        assert p == checked and hash(p) == hash(checked)
        for twin in (pickle.loads(pickle.dumps(p)), copy.copy(p), copy.deepcopy(p)):
            assert twin == p and hash(twin) == hash(p)
        for field in JoinPoint.__slots__:
            with pytest.raises(AttributeError, match=f"^cannot assign to field '{field}'$"):
                setattr(p, field, getattr(p, field))
            with pytest.raises(AttributeError, match=f"^cannot delete field '{field}'$"):
                delattr(p, field)


def test_in_U_examples():
    v = vertex(2, 3, 2, 1)
    assert in_U(v, 2)
    assert not in_U(v, 0) and not in_U(v, 1) and not in_U(v, 3)
    with pytest.raises(ValueError):
        in_U(v, 4)


def test_in_U_is_action_invariant():
    rng = random.Random(1)
    for _ in range(50):
        s, k = rng.randint(2, 4), rng.randint(0, 4)
        p = sample_point(rng, s, k, rng.randrange(k + 1))
        g = rng.randrange(1 << (s - 1))
        for j in range(k + 1):
            assert in_U(p, j) == in_U(act(g, p), j)


def test_component_key_equivariance():
    rng = random.Random(2)
    for _ in range(50):
        s, k = rng.randint(2, 5), rng.randint(0, 4)
        j = rng.randrange(k + 1)
        p = sample_point(rng, s, k, j)
        g = rng.randrange(1 << (s - 1))
        assert component_key(act(g, p), j) == g ^ component_key(p, j)
    with pytest.raises(ValueError):
        component_key(vertex(2, 2, 0, 0), 1)


def test_keys_realized_and_action_transitive():
    rng = random.Random(3)
    for s in range(2, 6):
        for k in range(0, 5):
            j = rng.randrange(k + 1)
            keys = {component_key(sample_point(rng, s, k, j), j)
                    for _ in range(300)}
            assert keys == set(range(1 << (s - 1))), (s, k)
            # the action on keys is simply transitive: one orbit, free
            base = 0
            orbit = {(g, g ^ base) for g in range(1 << (s - 1))}
            assert {t for _, t in orbit} == set(range(1 << (s - 1)))


def test_segment_trivial_cases():
    p = join_point(3, 2, {0: (Fraction(1, 3), 1), 1: (Fraction(2, 3), 2)})
    assert segment_in_component(p, p, 0)
    q = vertex(3, 2, 0, 1)
    assert segment_in_component(p, q, 0)


def test_segment_routed_through_vertex():
    half = Fraction(1, 2)
    # same key at level 0, clashing labels at level 1
    p = join_point(3, 1, {0: (half, 1), 1: (half, 2)})
    q = join_point(3, 1, {0: (half, 1), 1: (half, 3)})
    assert segment_in_component(p, q, 0)


def test_segment_preconditions():
    half = Fraction(1, 2)
    p = join_point(3, 1, {0: (half, 1), 1: (half, 2)})
    bad_key = join_point(3, 1, {0: (half, 0), 1: (half, 2)})
    with pytest.raises(ValueError):
        segment_in_component(p, bad_key, 0)
    outside = vertex(3, 1, 1, 0)
    with pytest.raises(ValueError):
        segment_in_component(p, outside, 0)


def test_segment_refuses_points_of_different_joins():
    # the same level-0 key, but another k, then another s: the entries
    # must not be zipped, nor the labels compared, across two joins
    half = Fraction(1, 2)
    p = join_point(3, 1, {0: (half, 1), 1: (half, 2)})
    for q in (join_point(3, 3, {0: (half, 1), 3: (half, 0)}),
              join_point(4, 1, {0: (half, 1), 1: (half, 2)})):
        for a, b in [(p, q), (q, p)]:
            for j in range(4):  # checked before in_U or a key is read
                with pytest.raises(ValueError, match="^points of different joins"):
                    segment_in_component(a, b, j)


def test_segment_random_same_key_pairs():
    rng = random.Random(4)
    for _ in range(400):
        s, k = rng.randint(2, 4), rng.randint(0, 4)
        j = rng.randrange(k + 1)
        p = sample_point(rng, s, k, j)
        q = sample_point(rng, s, k, j)
        q = act(component_key(p, j) ^ component_key(q, j), q)
        assert segment_in_component(p, q, j)


def test_sample_report_deterministic():
    a = sample_report(3, 2, samples=200, seed=5)
    b = sample_report(3, 2, samples=200, seed=5)
    assert a == b
    assert a.keys_found == 4
    assert a.transitive
    assert a.segment_checks_passed == 200
    assert set(a.as_dict()) == {"s", "k", "samples", "keys_found",
                                "transitive", "segment_checks_passed"}


def test_sample_report_separates_missed_keys_from_failed_checks():
    # 16 samples for 8 keys: seed 1 misses some keys, yet every check holds
    report = sample_report(4, 2, samples=16, seed=1)
    assert report.keys_found < 8 and not report.transitive
    assert report.equivariant and report.segment_checks_passed == 16
    assert "equivariant" not in report.as_dict()
    full = sample_report(4, 2, samples=16, seed=0)
    assert full.keys_found == 8 and full.transitive and full.equivariant


def test_sample_report_needs_a_sample_per_key():
    for s, samples in [(2, 1), (4, 7), (200, 5), (3, 0), (3, -9)]:
        with pytest.raises(ValueError):
            sample_report(s, 1, samples=samples)
    assert sample_report(4, 1, samples=8).samples == 8


def test_sample_report_rejects_bad_shape(monkeypatch):
    # s < 2 or k < 0 is a ValueError in the package's words, before the
    # charge and before any draw
    def no_charge(*args):
        raise AssertionError("charged a bad shape")

    monkeypatch.setattr("zclrp.join_model.charge", no_charge)
    for s, k, samples, message in [(3, -1, 4, "need k >= 0"),
                                   (1, 0, 1, "need s >= 2"),
                                   (0, 0, 1, "need s >= 2")]:
        with pytest.raises(ValueError, match=f"^{message}$"):
            sample_report(s, k, samples=samples)


def test_points_have_reduced_integer_weights():
    p = join_point(3, 1, {0: (Fraction(2, 6), 1), 1: (Fraction(4, 6), 2)})
    assert (p.entries, p.denom) == (((1, 1), (2, 2)), 3)
    assert JoinPoint(3, 1, ((2, 1), (4, 2)), 6) == p
    # the common denominator is the lcm 12, not the largest denominator 6
    q = join_point(3, 3, {0: (Fraction(1, 4), 0), 1: (Fraction(1, 6), 1),
                          2: (Fraction(1, 3), 2), 3: (Fraction(1, 4), 3)})
    assert ([w for w, _ in q.entries], q.denom) == ([3, 2, 4, 3], 12)
    assert (vertex(2, 2, 1, 1).entries[1], vertex(2, 2, 1, 1).denom) == ((1, 1), 1)


@pytest.mark.parametrize("s", range(2, 8))
def test_sample_report_matches_fraction_oracle(s):
    # a few samples over 2^(s-1), so some keys can go unseen, too
    samples = (1 << (s - 1)) + 16
    for k in range(7):
        for seed in range(3):
            assert (sample_report(s, k, samples, seed)
                    == oracles.sample_report(s, k, samples, seed)), (s, k, seed)


def _outcome(segment, p, q, j):
    try:
        return segment(p, q, j)
    except ValueError:
        return "ValueError"


def test_points_and_segments_match_fraction_oracle():
    rng, twin = random.Random(6), random.Random(6)
    routed = 0
    for _ in range(600):
        s, k = rng.randint(2, 5), rng.randint(0, 5)
        assert (s, k) == (twin.randint(2, 5), twin.randint(0, 5))
        j = rng.randrange(k + 1)
        assert twin.randrange(k + 1) == j
        p, fp = sample_point(rng, s, k, j), oracles.sample_point(twin, s, k, j)
        q, fq = sample_point(rng, s, k, j), oracles.sample_point(twin, s, k, j)
        assert coordinates(p) == oracle_coordinates(fp)
        assert coordinates(q) == oracle_coordinates(fq)
        # q moved to p's key at j; at other levels the keys may differ or a
        # point may lie outside U, and both models must then raise
        g = component_key(p, j) ^ component_key(q, j)
        q_same, fq_same = act(g, q), oracles.act(oracles.GroupElem(s, g), fq)
        routed += not _labels_compatible(p, q_same)
        for a, b, fa, fb in [(p, q_same, fp, fq_same), (p, q, fp, fq)]:
            for level in range(k + 1):
                assert (_outcome(segment_in_component, a, b, level)
                        == _outcome(oracles.segment_in_component, fa, fb, level))
    assert routed > 50


def _labels(s):
    # in range, and out of range on either side
    return st.one_of(st.none(), st.integers(0, (1 << (s - 1)) - 1),
                     st.integers(-3, (1 << s) + 1))


@st.composite
def _join_inputs(draw):
    s, k = draw(st.integers(1, 4)), draw(st.integers(-1, 4))
    levels = sorted(draw(st.sets(st.integers(0, k)))) if k >= 0 else []
    # coordinates w/denom, each reduced on its own
    denom = draw(st.integers(1, 12))
    weights = [draw(st.integers(-1, denom)) for _ in levels]
    if weights and draw(st.booleans()):  # often make the coordinates sum to 1
        weights[-1] = denom - sum(weights[:-1])
    parts = {}
    for level, w in zip(levels, weights):
        t = Fraction(w, denom) if denom > 1 else w
        # mostly a label exactly where the coordinate is positive
        g = draw(_labels(s)) if draw(st.booleans()) else (
            draw(st.integers(0, (1 << (s - 1)) - 1)) if w > 0 else None)
        parts[level] = (t, g)
    return s, k, parts


@settings(max_examples=150, deadline=None)
@given(_join_inputs())
@example((3, 3, {0: (Fraction(1, 4), 0), 1: (Fraction(1, 6), 1),
                 2: (Fraction(1, 3), 2), 3: (Fraction(1, 4), 3)}))
def test_join_point_rejects_what_the_fraction_oracle_rejects(args):
    s, k, parts = args
    try:  # an out-of-range label fails already as a GroupElem
        expected = oracle_coordinates(oracles.join_point(k, {
            level: (t, None if g is None else oracles.GroupElem(s, g))
            for level, (t, g) in parts.items()}))
    except ValueError:
        expected = None
    try:
        got = coordinates(join_point(s, k, parts))
    except ValueError:
        got = None
    assert got == expected
