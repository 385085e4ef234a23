import zclrp
from zclrp import (GroupElem, ZclResult, _kernels, errors, gf2, ring,
                   zero_divisors)

# Public names removed from the package -- test-only algebra, the default
# of the ring cap that became the constant MAX_RING_BITS, the dense ring
# product and then the dense ring itself, and then the row reduction and
# the rref bases of the generators check, all now oracles in
# tests/oracles.py, then the slice cap MAX_RING_BITS and its
# SizeLimitError, folded into the one work cap MAX_DP_CELLS and its
# UndeterminedError, then the union-find of the generators check and its
# slice table -- and the methods that went with them; none may come
# back as a stale export.  Classes that left the package whole stand for
# the methods listed before them: Ring and Poly for pow, square,
# diagonal_restriction, mul, __pow__, __mul__, term_count, degree and
# is_homogeneous, SubspaceBasis for row_as_poly and polys.
REMOVED_NAMES = ["DEFAULT_BIT_LIMIT", "UniPoly", "binom_parity", "embed",
                 "even_summands_check", "g_value", "is_zero_divisor",
                 "poly_from_bytes", "poly_from_text", "poly_to_bytes",
                 "Poly", "Ring", "get_ring", "poly_to_text", "generator",
                 "SpecMismatchError", "SubspaceBasis", "ideal_degree_basis",
                 "kernel_basis", "rref", "DegreeSlice", "degree_slice",
                 "MAX_RING_BITS", "SizeLimitError"]
REMOVED_ATTRIBUTES = [
    (ring, "Ring"), (ring, "Poly"), (ring, "get_ring"),
    (ring, "poly_to_text"), (zero_divisors, "generator"),
    (errors, "SpecMismatchError"), (_kernels, "RingKernel"),
    (ZclResult, "is_exact"), (GroupElem, "identity"),
    (zero_divisors, "SubspaceBasis"), (zero_divisors, "ideal_degree_basis"),
    (zero_divisors, "kernel_basis"), (zero_divisors, "rref"), (gf2, "rref"),
    (zero_divisors, "DegreeSlice"), (zero_divisors, "degree_slice"),
    (ring, "MAX_RING_BITS"), (errors, "SizeLimitError"),
    (ring, "graded_slices"), (gf2, "find"), (gf2, "components"),
    (zero_divisors, "_ideal_forest"),
]


def test_star_import_binds_every_export():
    namespace = {}
    exec("from zclrp import *", namespace)
    assert [n for n in zclrp.__all__ if n not in namespace] == []
    assert len(set(zclrp.__all__)) == len(zclrp.__all__) == 45


def test_removed_names_are_gone():
    assert [n for n in REMOVED_NAMES if hasattr(zclrp, n)] == []
    assert [n for n in REMOVED_NAMES if n in zclrp.__all__] == []
    assert [(owner.__name__, n) for owner, n in REMOVED_ATTRIBUTES
            if hasattr(owner, n)] == []
