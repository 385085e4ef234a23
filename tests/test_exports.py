import zclrp
from zclrp import GroupElem, Poly, Ring, ZclResult, _kernels

# Public names removed from the package -- test-only algebra, the default
# of the ring cap that is now the constant MAX_RING_BITS, and the dense ring
# product, now the oracle in tests/oracles.py -- and the methods that went
# with them; none may come back as a stale export.
REMOVED_NAMES = ["DEFAULT_BIT_LIMIT", "UniPoly", "binom_parity", "embed",
                 "even_summands_check", "g_value", "is_zero_divisor",
                 "poly_from_bytes", "poly_from_text", "poly_to_bytes"]
REMOVED_ATTRIBUTES = [
    (Ring, "pow"), (Ring, "square"), (Ring, "diagonal_restriction"),
    (Poly, "__pow__"), (Poly, "term_count"), (Poly, "degree"),
    (Poly, "is_homogeneous"), (_kernels, "RingKernel"),
    (ZclResult, "is_exact"), (GroupElem, "identity"),
    (Ring, "mul"), (Poly, "__mul__"),
]


def test_star_import_binds_every_export():
    namespace = {}
    exec("from zclrp import *", namespace)
    assert [n for n in zclrp.__all__ if n not in namespace] == []
    assert len(set(zclrp.__all__)) == len(zclrp.__all__) == 58


def test_removed_names_are_gone():
    assert [n for n in REMOVED_NAMES if hasattr(zclrp, n)] == []
    assert [n for n in REMOVED_NAMES if n in zclrp.__all__] == []
    assert [(cls.__name__, n) for cls, n in REMOVED_ATTRIBUTES
            if hasattr(cls, n)] == []
