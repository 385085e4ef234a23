"""Exact arithmetic in A(m, s) = F2[x_1,...,x_s] / (x_1^(m+1), ..., x_s^(m+1)).

The standard basis consists of the monomials x_1^a_1 * ... * x_s^a_s with
0 <= a_i <= m.  The monomial with exponent vector (a_1, ..., a_s) sits at
rank  sum_i a_i * (m+1)^(i-1)  -- mixed radix with coordinate 1 least
significant -- and a polynomial is the dense bit vector over ranks, held as
a Python int.  All values are immutable; operations are pure functions and
safe to call from multiple threads.

The ring offers addition, the closed-form binomial powers (x_i + x_j)^k and
the graded slices; it has no general product.  The package multiplies only
sparse sets of exponent vectors (cuplength.verify_witness) or single
monomials by generators (zero_divisors.ideal_degree_basis); the dense
product of two elements is a test oracle in ``tests/oracles.py``.  Rings
above the basis-size cap MAX_RING_BITS are rejected at construction.  The
cap bounds memory for the dense representation only; it has no
mathematical meaning.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterator, Sequence

from .errors import SizeLimitError, SpecMismatchError

MAX_RING_BITS = 1 << 23
"""Cap on the basis cardinality (m+1)^s, i.e. bits per element."""


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
        # (m+1)^s >= 2^low, from the bit length of m+1: a shape with low
        # past 64 is refused, its size given as that power of 2, before
        # (m+1)^s is built or printed in digits
        low = self.s * ((self.m + 1).bit_length() - 1)
        if low > 64:
            raise SizeLimitError(
                f"(m+1)^s >= 2^{low} exceeds the cap of {MAX_RING_BITS} "
                f"basis monomials")
        if self.size > MAX_RING_BITS:
            raise SizeLimitError(
                f"(m+1)^s = {self.size} exceeds the cap of {MAX_RING_BITS} "
                f"basis monomials")

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


class Poly:
    """Immutable element of A(m, s): a dense F2 coefficient bit vector.

    Bit r set means the basis monomial of rank r occurs (coefficient 1).
    Equality is bitwise; the zero element is the all-zeros vector.
    """

    __slots__ = ("ring", "bits")

    def __init__(self, ring: "Ring", bits: int):
        if bits < 0 or bits.bit_length() > ring.size:
            raise ValueError("coefficient vector out of range for this ring")
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "bits", bits)

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    @property
    def spec(self) -> RingSpec:
        return self.ring.spec

    @property
    def is_zero(self) -> bool:
        return self.bits == 0

    def __bool__(self) -> bool:
        return self.bits != 0

    def __eq__(self, other) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return self.spec == other.spec and self.bits == other.bits

    def __hash__(self) -> int:
        return hash((self.spec.m, self.spec.s, self.bits))

    def __add__(self, other: "Poly") -> "Poly":
        return self.ring.add(self, other)

    def __repr__(self) -> str:
        text = poly_to_text(self)
        if len(text) > 60:
            text = text[:57] + "..."
        return f"Poly({self.spec.m},{self.spec.s}: {text})"

    def support(self) -> Iterator[int]:
        """Ranks of the monomials present, in increasing order.

        Read from the top down: bit_length finds the highest rank at no
        cost, and clearing it leaves an int only as wide as the next rank,
        so each monomial costs the width up to its own rank, not a pass
        over the whole vector as clearing the lowest bit would.
        """
        bits = self.bits
        ranks = []
        while bits:
            r = bits.bit_length() - 1
            ranks.append(r)
            bits ^= 1 << r
        return reversed(ranks)

    def monomials(self) -> Iterator[tuple[int, ...]]:
        """Exponent vectors of the monomials present, in increasing rank order."""
        for r in self.support():
            yield unrank(self.spec, r)


class Ring:
    """Arithmetic context for one RingSpec.

    Holds the lazy degree tables.  Obtain instances through
    :func:`get_ring`, which caches per (m, s).
    """

    def __init__(self, spec: RingSpec):
        self.spec = spec
        self._deg_ranks: dict[int, tuple[int, ...]] | None = None

    @property
    def m(self) -> int:
        return self.spec.m

    @property
    def s(self) -> int:
        return self.spec.s

    @property
    def size(self) -> int:
        return self.spec.size

    def __repr__(self) -> str:
        return f"Ring(m={self.m}, s={self.s})"

    # -- element constructors ------------------------------------------------

    def poly(self, bits: int) -> Poly:
        return Poly(self, bits)

    @functools.cached_property
    def zero(self) -> Poly:
        return Poly(self, 0)

    @functools.cached_property
    def one(self) -> Poly:
        return Poly(self, 1)

    def gen(self, i: int) -> Poly:
        """The generator x_i (1-indexed)."""
        if not 1 <= i <= self.s:
            raise ValueError(f"generator index {i} outside [1, {self.s}]")
        return Poly(self, 1 << (self.m + 1) ** (i - 1))

    def monomial(self, exponents: Sequence[int]) -> Poly:
        return Poly(self, 1 << rank(self.spec, exponents))

    # -- arithmetic ------------------------------------------------------------

    def _check(self, p: Poly) -> None:
        if p.spec != self.spec:
            raise SpecMismatchError(
                f"element of A({p.spec.m},{p.spec.s}) used in A({self.m},{self.s})")

    def add(self, p: Poly, q: Poly) -> Poly:
        self._check(p)
        self._check(q)
        return Poly(self, p.bits ^ q.bits)

    def binomial_pow(self, i: int, j: int, k: int) -> Poly:
        """(x_i + x_j)^k by the closed form: sum over t with C(k, t) odd,
        t <= m and k - t <= m, of x_i^t x_j^(k-t).

        Must agree bit-for-bit with k-fold products of x_i + x_j; the test
        suite checks it against ``naive_pow`` in ``tests/oracles.py``.
        """
        if not 1 <= i < j <= self.s:
            raise ValueError(f"need 1 <= i < j <= s, got i={i}, j={j}")
        if k < 0:
            raise ValueError("negative exponent")
        m = self.m
        step_i = (m + 1) ** (i - 1)
        step_j = (m + 1) ** (j - 1)
        bits = 0
        for t in range(max(0, k - m), min(m, k) + 1):
            if k & t == t:  # C(k, t) odd
                bits |= 1 << (t * step_i + (k - t) * step_j)
        return Poly(self, bits)

    def degree_ranks(self, degree: int) -> tuple[int, ...]:
        """All ranks of total degree `degree`, increasing (the graded slice)."""
        if self._deg_ranks is None:
            table: dict[int, list[int]] = {}
            digits = [0] * self.s
            deg = 0
            for r in range(self.size):
                table.setdefault(deg, []).append(r)
                i = 0
                while i < self.s and digits[i] == self.m:
                    deg -= self.m
                    digits[i] = 0
                    i += 1
                if i < self.s:
                    digits[i] += 1
                    deg += 1
            self._deg_ranks = {d: tuple(v) for d, v in table.items()}
        return self._deg_ranks.get(degree, ())


@functools.lru_cache(maxsize=None)
def get_ring(m: int, s: int) -> Ring:
    """The ring A(m, s), built once per (m, s) and kept; raises
    SizeLimitError when (m+1)^s exceeds MAX_RING_BITS."""
    return Ring(RingSpec(m, s))


# -- canonical serialization ---------------------------------------------------
#
# Text form: monomials are "xi^e" factors joined by "*" (exponent-0 variables
# omitted, the empty monomial is "1"); a polynomial is its monomials in
# increasing rank order joined by " + ", with "0" for the zero element.

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


def poly_to_text(p: Poly) -> str:
    if p.is_zero:
        return "0"
    return " + ".join(monomial_to_text(e) for e in p.monomials())
