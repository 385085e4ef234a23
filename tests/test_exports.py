import copy
import pickle

import pytest

import zclrp
from zclrp import (CacheEntry, DegreeCheck, JoinPoint, RingSpec, ZclResult,
                   _kernels, build_row, cli, cuplength, errors,
                   g_stabilization_probe, gf2, ring, sample_report,
                   two_adic_profile, verify_generators_lemma, zcl_exact,
                   zero_divisors)

# Public names removed from the package -- test-only algebra, the default
# of the ring cap that became the constant MAX_RING_BITS, the dense ring
# product and then the dense ring itself, and then the row reduction and
# the rref bases of the generators check, all now oracles in
# tests/oracles.py, then the slice cap MAX_RING_BITS and its
# SizeLimitError, folded into the one work cap MAX_DP_CELLS and its
# UndeterminedError, then the union-find of the generators check and its
# slice table, then the word class whose checks word_nonzero makes itself,
# then the join model's label class, now plain ints, then the closed-form
# witness that zcl_exact made redundant, now an oracle -- and the methods
# that went with them; none may come back as a stale export.  Classes that
# left the package whole stand for the methods listed before them: Ring and
# Poly for pow, square, diagonal_restriction, mul, __pow__, __mul__,
# term_count, degree and is_homogeneous, SubspaceBasis for row_as_poly and
# polys, GroupElem for identity and __add__.
REMOVED_NAMES = ["DEFAULT_BIT_LIMIT", "UniPoly", "binom_parity", "embed",
                 "even_summands_check", "g_value", "is_zero_divisor",
                 "poly_from_bytes", "poly_from_text", "poly_to_bytes",
                 "Poly", "Ring", "get_ring", "poly_to_text", "generator",
                 "SpecMismatchError", "SubspaceBasis", "ideal_degree_basis",
                 "kernel_basis", "rref", "DegreeSlice", "degree_slice",
                 "MAX_RING_BITS", "SizeLimitError", "GeneratorWord",
                 "GroupElem", "explicit_witness"]
REMOVED_ATTRIBUTES = [
    (ring, "Ring"), (ring, "Poly"), (ring, "get_ring"),
    (ring, "poly_to_text"), (zero_divisors, "generator"),
    (errors, "SpecMismatchError"), (_kernels, "RingKernel"),
    (ZclResult, "is_exact"),
    (zero_divisors, "SubspaceBasis"), (zero_divisors, "ideal_degree_basis"),
    (zero_divisors, "kernel_basis"), (zero_divisors, "rref"), (gf2, "rref"),
    (zero_divisors, "DegreeSlice"), (zero_divisors, "degree_slice"),
    (ring, "MAX_RING_BITS"), (errors, "SizeLimitError"),
    (ring, "graded_slices"), (gf2, "find"), (gf2, "components"),
    (zero_divisors, "_ideal_forest"), (cuplength, "explicit_witness"),
    (cuplength, "_explicit_work"), (cli, "zcl_witness_cmd"),
]


def test_star_import_binds_every_export():
    namespace = {}
    exec("from zclrp import *", namespace)
    assert [n for n in zclrp.__all__ if n not in namespace] == []
    assert len(set(zclrp.__all__)) == len(zclrp.__all__) == 42


def test_removed_names_are_gone():
    assert [n for n in REMOVED_NAMES if hasattr(zclrp, n)] == []
    assert [n for n in REMOVED_NAMES if n in zclrp.__all__] == []
    assert [(owner.__name__, n) for owner, n in REMOVED_ATTRIBUTES
            if hasattr(owner, n)] == []


def _value_samples():
    # (an instance built through the public API, its fields in order, its
    # repr, and one field with another valid value)
    witness = zcl_exact(3, 3).witness
    w = "Witness(m=3, s=3, factors=((1, 3, 3), (2, 3, 3)), certificate=(3, 3, 0))"
    return [
        (RingSpec(4, 3), dict(m=4, s=3), "RingSpec(m=4, s=3)", ("s", 4)),
        (two_adic_profile(12), dict(m=12, e=0, z=4, sigma=13),
         "TwoAdicProfile(m=12, e=0, z=4, sigma=13)", ("sigma", None)),
        (witness, dict(m=3, s=3, factors=((1, 3, 3), (2, 3, 3)),
                       certificate=(3, 3, 0)), w, ("certificate", (3, 2, 1))),
        (zcl_exact(3, 3), dict(m=3, s=3, value=6, method="exact", witness=witness),
         f"ZclResult(m=3, s=3, value=6, method='exact', witness={w})",
         ("method", "witness_lower_bound")),
        (g_stabilization_probe(5, 4),
         dict(m=5, s_max=4, zcl_values=(7, 14, 19), g_values=(3, 1, 1),
              stable_gap=1, reached_stable=True),
         "GapProbe(m=5, s_max=4, zcl_values=(7, 14, 19), g_values=(3, 1, 1), "
         "stable_gap=1, reached_stable=True)", ("reached_stable", False)),
        (build_row(3, 3),
         dict(m=3, s=3, upper=9, zcl=6, zcl_method="exact", known_tc=6,
              tc_source="hopf", equality=False),
         "BoundsRow(m=3, s=3, upper=9, zcl=6, zcl_method='exact', known_tc=6, "
         "tc_source='hopf', equality=False)", ("known_tc", None)),
        (CacheEntry(3, 3, 6, "exact", witness, "test", 1.5),
         dict(m=3, s=3, zcl=6, method="exact", witness=witness,
              engine_version="test", timestamp=1.5),
         f"CacheEntry(m=3, s=3, zcl=6, method='exact', witness={w}, "
         "engine_version='test', timestamp=1.5)", ("timestamp", 2.5)),
        (JoinPoint(3, 2, ((2, 1), (0, None), (4, 3)), 6),  # reduced by 2
         dict(s=3, k=2, entries=((1, 1), (0, None), (2, 3)), denom=3),
         "JoinPoint(s=3, k=2, entries=((1, 1), (0, None), (2, 3)), denom=3)",
         ("entries", ((1, 0), (0, None), (2, 3)))),
        (sample_report(3, 1, 32),
         dict(s=3, k=1, samples=32, keys_found=4, transitive=True,
              segment_checks_passed=32, equivariant=True),
         "JoinReport(s=3, k=1, samples=32, keys_found=4, transitive=True, "
         "segment_checks_passed=32, equivariant=True)", ("keys_found", 3)),
        (verify_generators_lemma(RingSpec(2, 3))[0],
         dict(degree=1, dim_kernel=2, dim_ideal=2, passed=True, mismatch=None),
         "DegreeCheck(degree=1, dim_kernel=2, dim_ideal=2, passed=True, "
         "mismatch=None)", ("mismatch", "x_1")),
    ]


def test_value_classes_compare_hash_print_and_copy_as_frozen_records():
    samples = _value_samples()
    assert len({type(x) for x, *_ in samples}) == 10
    for x, fields, text, (name, other) in samples:
        cls, values = type(x), tuple(fields.values())
        assert x == cls(**fields) == cls(*values) and not x != cls(**fields)
        assert x != cls(**{**fields, name: other})
        assert x != values and hash(x) == hash(values)
        assert repr(x) == text
        for f in fields:
            with pytest.raises(AttributeError):
                setattr(x, f, getattr(x, f))
            with pytest.raises(AttributeError):
                delattr(x, f)
        for twin in (pickle.loads(pickle.dumps(x)), copy.copy(x),
                     copy.deepcopy(x)):
            assert type(twin) is cls and twin == x and repr(twin) == text
    assert DegreeCheck(1, 2, 2, True) == samples[-1][0]  # mismatch=None
    assert JoinPoint(3, 0, ((1, 0),)).denom == 1


def test_value_classes_check_their_arity():
    # each constructor is called as a function of its fields: one too
    # many, one missing, an unknown name or a field given twice is a
    # TypeError, whether the class checks its fields or not
    for x, fields, *_ in _value_samples():
        cls, values, first = type(x), tuple(fields.values()), next(iter(fields))
        rest = {f: v for f, v in fields.items() if f != first}
        for args, kwargs in [(values + (None,), {}), ((), rest),
                             (values, {"unknown": None}),
                             (values, {first: fields[first]})]:
            with pytest.raises(TypeError):
                cls(*args, **kwargs)
