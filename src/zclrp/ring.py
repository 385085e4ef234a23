"""The standard basis of A(m, s) = F2[x_1..x_s] / (x_1^(m+1), ..., x_s^(m+1)).

The basis consists of the monomials x_1^a_1 * ... * x_s^a_s with
0 <= a_i <= m.  The monomial with exponent vector (a_1, ..., a_s) sits at
rank  sum_i a_i * (m+1)^(i-1)  -- mixed radix with coordinate 1 least
significant.  This module gives ranks and the text form of a monomial; it
holds no ring elements.  The package multiplies only sparse sets of
exponent vectors (cuplength.verify_witness) or every monomial at once by a
generator, as shifts of a bitset over ranks
(zero_divisors.verify_generators_lemma); dense elements and their product
are test oracles in ``tests/oracles.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence


@dataclass(frozen=True)
class RingSpec:
    """Shape of the algebra: factor dimension m and number of factors s."""

    m: int
    s: int

    def __post_init__(self):
        if self.m < 1:
            raise ValueError(f"m must be >= 1, got {self.m}")
        if self.s < 2:
            raise ValueError(f"s must be >= 2, got {self.s}")

    @property
    def size(self) -> int:
        """Cardinality (m+1)^s of the standard monomial basis."""
        return (self.m + 1) ** self.s


def rank(spec: RingSpec, exponents: Sequence[int]) -> int:
    """Mixed-radix rank of an exponent vector, coordinate 1 least significant."""
    if len(exponents) != spec.s:
        raise ValueError(f"expected {spec.s} exponents, got {len(exponents)}")
    r = 0
    radix = spec.m + 1
    for e in reversed(exponents):
        if not 0 <= e <= spec.m:
            raise ValueError(f"exponent {e} outside [0, {spec.m}]")
        r = r * radix + e
    return r


def unrank(spec: RingSpec, r: int) -> tuple[int, ...]:
    """Inverse of :func:`rank`."""
    if not 0 <= r < spec.size:
        raise ValueError(f"rank {r} outside [0, {spec.size})")
    radix = spec.m + 1
    out = []
    for _ in range(spec.s):
        r, e = divmod(r, radix)
        out.append(e)
    return tuple(out)


# -- canonical serialization ---------------------------------------------------
#
# Text form: monomials are "xi^e" factors joined by "*" (exponent-0 variables
# omitted, the empty monomial is "1"); a sum of monomials is its terms in
# increasing rank order joined by " + ".

def monomial_to_text(exponents: Sequence[int]) -> str:
    factors = [f"x{i}^{e}" for i, e in enumerate(exponents, 1) if e]
    return "*".join(factors) if factors else "1"


def monomial_from_text(spec: RingSpec, text: str) -> tuple[int, ...]:
    exponents = [0] * spec.s
    text = text.strip()
    if text != "1":
        for factor in text.split("*"):
            name, _, exp = factor.strip().partition("^")
            if not name.startswith("x"):
                raise ValueError(f"bad monomial factor {factor!r}")
            i = int(name[1:])
            e = int(exp) if exp else 1
            if not 1 <= i <= spec.s:
                raise ValueError(f"variable x{i} outside x1..x{spec.s}")
            if not 1 <= e <= spec.m:
                raise ValueError(f"exponent {e} outside [1, {spec.m}]")
            if exponents[i - 1]:
                raise ValueError(f"variable x{i} repeated")
            exponents[i - 1] = e
    return tuple(exponents)
