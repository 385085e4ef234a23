"""The ideal of diagonal zero-divisors in A(m, s).

An element is a zero-divisor when it dies under the substitution
x_i -> x into F2[x]/(x^(m+1)).  The ideal is generated by the degree-1
elements x_i + x_s (1 <= i <= s-1); this module checks, degree by degree,
that the span of the generator multiples equals the substitution kernel --
a linear-algebra fact the rest of the package leans on.

Every generator multiple (x_i + x_s)*M has at most two monomials, so the
multiples form a graph on the monomials, each component within one degree
(see gf2).  A set of monomials is an int whose bit r stands for the
monomial of rank r, and the rows of one generator are masks built from
rank arithmetic, so one pass of a closure crosses all of them at once.  The
kernel is known in closed form: every monomial of degree d substitutes to
x^d, which survives for d <= m and dies for d > m, so the kernel is the
even-weight vectors of the slice for d <= m and the whole slice above.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import accumulate
from typing import Iterable

from .errors import charge
from .gf2 import Family, closure, flood
from .ring import RingSpec, monomial_to_text, unrank


def _check_closure(spec: RingSpec) -> None:
    """Charge s*(m+1)^s steps, an (m+1)^s-bit mask for each generator's
    rows and one for the marks, building nothing; a charge of 2^65 or more
    by bit lengths is given as that power of 2, without computing
    (m+1)^s."""
    m, s = spec.m, spec.s
    low = s.bit_length() - 1 + s * ((m + 1).bit_length() - 1)
    work = 1 << low if low > 64 else s * spec.size
    shown = f">= 2^{low}" if low > 64 else f"= {work}"
    charge(work, "generators({},{}): the check needs s*(m+1)^s {} steps",
           m, s, shown)


def _concat(blocks: list[int], width: int) -> int:
    """The blocks laid end to end, block k at bit k*width, merged in pairs
    so that every bit is copied log(len(blocks)) times."""
    while len(blocks) > 1:
        pairs = [blocks[k] | blocks[k + 1] << width
                 for k in range(0, len(blocks) - 1, 2)]
        blocks = pairs + blocks[len(blocks) & ~1:]
        width *= 2
    return blocks[0]


def _degree_at_most(spec: RingSpec, degree: int) -> int:
    """The ranks of total degree <= degree, by recursion over coordinates:
    ranks over coordinates 1..j are (m+1) blocks of the ranks over 1..j-1,
    block a holding x_j^a."""
    m, radix = spec.m, spec.m + 1

    @cache
    def mask(j: int, t: int) -> int:
        if t >= j * m:
            return (1 << radix ** j) - 1
        if j == 1:
            return (1 << t + 1) - 1
        return _concat([mask(j - 1, t - a) for a in range(min(t, m) + 1)],
                       radix ** (j - 1))

    return mask(spec.s, degree)


def _ideal_rows(spec: RingSpec, top_degree: int,
                generators: Iterable[int]) -> tuple[list[Family], int]:
    """Shift families of the edges and the set of marks of the rows
    (x_i + x_s)*M, for i in ``generators`` and M of degree below top_degree.

    (x_i + x_s)*M is M*x_i + M*x_s: the rank plus step = (m+1)^(i-1), kept
    while M's i-th exponent is below m, and the rank plus top = (m+1)^(s-1),
    kept while r < m*top.  A row with both is an edge from r+step to r+top;
    with one, a mark.  The ranks whose i-th exponent is below m are the low
    m*step bits of each (m+1)*step-bit block, laid out by doubling.
    """
    m, s, size = spec.m, spec.s, spec.size
    radix = m + 1
    top = radix ** (s - 1)
    if top_degree == s * m:          # every rank but x1^m*...*xs^m
        domain = (1 << size - 1) - 1
    else:
        domain = _degree_at_most(spec, top_degree - 1)
    s_open = domain & (1 << m * top) - 1
    s_shut = domain ^ s_open
    families, marks = [], 0
    for i in generators:
        step = radix ** (i - 1)
        block, copies = (1 << m * step) - 1, 1
        while copies < top // step:
            block |= block << copies * radix * step
            copies *= 2
        i_open = block & (1 << size) - 1
        edges = s_open & i_open
        families.append((edges << step, edges << top, top - step))
        marks |= (s_shut & i_open) << step | (s_open & ~i_open) << top
    return families, marks


def _degree_counts(m: int, s: int) -> list[int]:
    """n_d, the number of monomials of degree d, for d = 0..s*m: the
    coefficients of (1 + x + ... + x^m)^s."""
    counts = [1]
    for _ in range(s):
        prefix = [0, *accumulate(counts)]
        n = len(counts)
        counts = [prefix[min(d + 1, n)] - prefix[max(d - m, 0)]
                  for d in range(n + m)]
    return counts


def _least_rank(m: int, d: int) -> int:
    """The least rank of degree d: x_1^m*...*x_q^m*x_(q+1)^(d-qm)."""
    q, rest = divmod(d, m)
    return (rest + 1) * (m + 1) ** q - 1


def _lowest(x: int) -> int:
    return (x & -x).bit_length() - 1


def _vector_text(spec: RingSpec, ranks: Iterable[int]) -> str:
    """Text form of the sum of the monomials at the given increasing ranks."""
    return " + ".join(monomial_to_text(unrank(spec, r)) for r in ranks)


@dataclass(frozen=True)
class DegreeCheck:
    """Per-degree comparison of kernel vs generator span."""

    degree: int
    dim_kernel: int
    dim_ideal: int
    passed: bool
    mismatch: str | None = None

    def as_dict(self) -> dict:
        return {"degree": self.degree, "dim_kernel": self.dim_kernel,
                "dim_ideal": self.dim_ideal, "pass": self.passed}


def verify_generators_lemma(spec: RingSpec,
                            max_degree: int | None = None) -> list[DegreeCheck]:
    """Check kernel == generator span in every degree 1..max_degree.

    The span is contained in the kernel unless, for d <= m, a row has odd
    weight, i.e. is a mark; containment and equal dimensions give equality.
    The seeds are the least rank of each degree, x_1 filled first.  Every
    degree is one component iff the closure of the seeds has sum n_d bits,
    and then degree d's component is marked iff its seed lies in the
    closure of the marks.  A degree fails when it is marked for d <= m or
    unmarked above; then every component is flooded (_flooded_checks).  A
    shape over the work cap raises UndeterminedError first (_check_closure).
    """
    _check_closure(spec)
    m, s = spec.m, spec.s
    top_degree = s * m if max_degree is None else max_degree
    families, marks = _ideal_rows(spec, top_degree, range(1, s))
    counts = _degree_counts(m, s)
    seeds = [_least_rank(m, d) for d in range(top_degree + 1)]
    bits = bytearray((spec.size + 7) // 8)
    for r in seeds[1:]:
        bits[r >> 3] |= 1 << (r & 7)
    seeded = closure(int.from_bytes(bits, "little"), families)
    if seeded.bit_count() == sum(counts[1:top_degree + 1]):
        hit = closure(marks, families).to_bytes(len(bits), "little")
        checks = []
        for d in range(1, top_degree + 1):
            marked = hit[seeds[d] >> 3] >> (seeds[d] & 7) & 1
            n = counts[d]
            checks.append(DegreeCheck(d, n - (d <= m), n - 1 + marked,
                                      marked == (d > m)))
        if all(c.passed for c in checks):
            return checks
    return _flooded_checks(spec, top_degree, families, marks, counts)


def _flooded_checks(spec: RingSpec, top_degree: int, families: list[Family],
                    marks: int, counts: list[int]) -> list[DegreeCheck]:
    """Every degree's check from its components, flooded one at a time.

    A failing degree reports one vector present on exactly one side (this
    would disprove the generation fact, i.e. flag a bug): for d <= m a
    marked monomial, or else the sum of the least monomials of the first
    two components; for d > m the least monomial of an unmarked component.
    """
    if top_degree == spec.s * spec.m:
        vertices = (1 << spec.size) - 2
    else:
        vertices = _degree_at_most(spec, top_degree) ^ 1
    parts: list[list[int]] = [[] for _ in range(top_degree + 1)]
    for part in flood(vertices, families):
        parts[sum(unrank(spec, _lowest(part)))].append(part)
    checks = []
    for d in range(1, top_degree + 1):
        unmarked = [p for p in parts[d] if not p & marks]
        witness = None
        if d <= spec.m:
            dim_kernel = counts[d] - 1
            odd = marks & sum(parts[d])     # the parts are disjoint
            if odd:
                witness = [_lowest(odd)]
            elif len(unmarked) > 1:
                witness = [_lowest(unmarked[0]), _lowest(unmarked[1])]
        else:
            dim_kernel = counts[d]
            if unmarked:
                witness = [_lowest(unmarked[0])]
        mismatch = None if witness is None else _vector_text(spec, witness)
        checks.append(DegreeCheck(d, dim_kernel, counts[d] - len(unmarked),
                                  witness is None, mismatch))
    return checks
