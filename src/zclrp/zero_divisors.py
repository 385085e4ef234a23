"""The ideal of diagonal zero-divisors in A(m, s).

An element is a zero-divisor when it dies under the substitution
x_i -> x into F2[x]/(x^(m+1)).  The ideal is generated by the degree-1
elements x_i + x_s (1 <= i <= s-1); this module checks, degree by degree,
that the span of the generator multiples equals the substitution kernel --
a linear-algebra fact the rest of the package leans on.

Every generator multiple (x_i + x_s)*M has at most two monomials, so the
multiples of one degree form a graph on the monomials of that degree (see
gf2), and one union-find over all degrees gives each span's dimension.
The kernel is known in closed form: every monomial of degree d substitutes
to x^d, which survives for d <= m and dies for d > m, so the kernel is the
even-weight vectors of the slice for d <= m and the whole slice above.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .errors import charge
from .gf2 import components
from .ring import RingSpec, graded_slices, monomial_to_text, unrank


def _check_forest(spec: RingSpec) -> None:
    """Charge s*(m+1)^s steps, per rank one parent and slice entry plus at
    most s-1 rows, building nothing; a charge of 2^65 or more by bit
    lengths is given as that power of 2, without computing (m+1)^s."""
    m, s = spec.m, spec.s
    low = s.bit_length() - 1 + s * ((m + 1).bit_length() - 1)
    work = 1 << low if low > 64 else s * spec.size
    shown = f">= 2^{low}" if low > 64 else f"= {work}"
    charge(work, "generators({},{}): the check needs s*(m+1)^s {} steps",
           m, s, shown)


def _ideal_forest(spec: RingSpec, slices: tuple[tuple[int, ...], ...],
                  top_degree: int,
                  generators: Iterable[int]) -> tuple[list[int], bytearray]:
    """Union-find forest (parent list over ranks) and marks of the rows
    (x_i + x_s)*M, for i in ``generators`` and M of degree below top_degree.

    Each row is built from ranks, with no ring product: (x_i + x_s)*M is
    M*x_i + M*x_s, a monomial times x_i being the rank plus (m+1)^(i-1),
    kept only while M's i-th exponent is below m.  The two monomials
    differ, so a row with both is an edge and a row with one is a mark.
    The find and link of gf2 are written out here: this loop runs once per
    row, about (s-1)(m+1)^s times.
    """
    m, radix = spec.m, spec.m + 1
    top = radix ** (spec.s - 1)
    top_open = m * top              # M's s-th exponent is below m iff r < top_open
    # (step, block, limit): M's i-th exponent is below m iff r % block < limit
    families = [(radix ** (i - 1), radix ** i, m * radix ** (i - 1))
                for i in generators]
    parent = list(range(spec.size))
    marked = bytearray(spec.size)
    for d in range(top_degree):
        for r in slices[d]:
            if r >= top_open:
                for step, block, limit in families:
                    if r % block < limit:
                        marked[r + step] = 1
                continue
            b = r + top
            while parent[b] != b:
                parent[b] = b = parent[parent[b]]
            for step, block, limit in families:
                if r % block >= limit:
                    marked[r + top] = 1
                    continue
                a = r + step
                while parent[a] != a:
                    parent[a] = a = parent[parent[a]]
                if a < b:
                    parent[b] = b = a
                elif b < a:
                    parent[a] = b
    return parent, marked


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
    A failing degree reports one vector present on exactly one side (this
    would disprove the generation fact, i.e. flag a bug): for d <= m a
    marked monomial, or else the sum of two monomials from different
    components; for d > m a monomial of a component with no mark.  A shape
    over the work cap raises UndeterminedError first (_check_forest).
    """
    _check_forest(spec)
    top_degree = spec.s * spec.m if max_degree is None else max_degree
    slices = graded_slices(spec)
    parent, marked = _ideal_forest(spec, slices, top_degree, range(1, spec.s))
    checks = []
    for d in range(1, top_degree + 1):
        ranks = slices[d]
        roots, unmarked = components(parent, marked, ranks)
        n = len(ranks)
        witness = None
        if d <= spec.m:
            dim_kernel = n - 1
            odd = next((r for r in ranks if marked[r]), None)
            if odd is not None:
                witness = [odd]
            elif len(unmarked) > 1:
                other = next(r for r, root in zip(ranks, roots)
                             if root != roots[0])
                witness = [ranks[0], other]
        else:
            dim_kernel = n
            if unmarked:
                witness = [next(r for r, root in zip(ranks, roots)
                                if root in unmarked)]
        mismatch = None if witness is None else _vector_text(spec, witness)
        checks.append(DegreeCheck(d, dim_kernel, n - len(unmarked),
                                  witness is None, mismatch))
    return checks
