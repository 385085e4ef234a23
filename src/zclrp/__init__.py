"""Zero-divisor cup-lengths of cartesian powers of real projective spaces.

Exact computation of zcl_s(RP^m) in mod-2 cohomology -- by a residue
knapsack DP whose witnesses are cross-checked by sparse GF(2) products of
their factors' terms -- plus explicit lower-bound witnesses, structural
verifications (the generators of the zero-divisor ideal, by a closure of
rank bitsets over its two-term rows, and the join model), and bound tables
for the higher topological complexity TC_s(RP^m).
"""

__version__ = "0.1.0"

from ._kernels import BACKEND_NAME
from .bounds import (BoundsRow, CacheEntry, ENGINE_VERSION, build_row,
                     build_table, cache_get, cache_put, emit, known_tc)
from .cuplength import (GapProbe, GeneratorWord, Witness, ZclResult,
                        explicit_witness, g_stabilization_probe,
                        verify_witness, word_nonzero, zcl_exact)
from .errors import (MAX_DP_CELLS, InvariantViolationError, UndeterminedError,
                     ZclError)
from .join_model import (GroupElem, JoinPoint, JoinReport, act, component_key,
                         in_U, join_point, sample_report,
                         segment_in_component, vertex)
from .parity import (TwoAdicProfile, sigma_of, trailing_ones,
                     two_adic_profile, z_of)
from .ring import (RingSpec, monomial_from_text, monomial_to_text, rank,
                   unrank)
from .zero_divisors import DegreeCheck, verify_generators_lemma

__all__ = [
    "BACKEND_NAME", "BoundsRow", "CacheEntry", "DegreeCheck", "ENGINE_VERSION",
    "GapProbe", "GeneratorWord", "GroupElem", "InvariantViolationError",
    "JoinPoint", "JoinReport", "MAX_DP_CELLS", "RingSpec", "TwoAdicProfile",
    "UndeterminedError", "Witness", "ZclError", "ZclResult", "act",
    "build_row", "build_table", "cache_get", "cache_put", "component_key",
    "emit", "explicit_witness", "g_stabilization_probe", "in_U", "join_point",
    "known_tc", "monomial_from_text", "monomial_to_text", "rank",
    "sample_report", "segment_in_component", "sigma_of", "trailing_ones",
    "two_adic_profile", "unrank", "verify_generators_lemma", "verify_witness",
    "vertex", "word_nonzero", "z_of", "zcl_exact",
]
