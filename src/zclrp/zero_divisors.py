"""The ideal of diagonal zero-divisors in A(m, s).

An element is a zero-divisor when it dies under the substitution
x_i -> x into F2[x]/(x^(m+1)).  The ideal is generated by the degree-1
elements x_i + x_s (1 <= i <= s-1); this module gives per-degree bases of
the substitution kernel (in closed form) and of the span of generator
multiples (by F2 row reduction), and checks that they agree -- a
linear-algebra fact the rest of the package leans on.
"""

from __future__ import annotations

from dataclasses import dataclass

from .gf2 import rref
from .ring import RingSpec, graded_slices, monomial_to_text, unrank


@dataclass(frozen=True)
class DegreeSlice:
    """The graded piece of one total degree: its monomial ranks, increasing."""

    spec: RingSpec
    degree: int
    ranks: tuple[int, ...]

    @property
    def dimension(self) -> int:
        return len(self.ranks)


def degree_slice(spec: RingSpec, degree: int) -> DegreeSlice:
    if not 0 <= degree <= spec.s * spec.m:
        raise ValueError(f"degree {degree} outside [0, {spec.s * spec.m}]")
    return DegreeSlice(spec, degree, graded_slices(spec)[degree])


@dataclass(frozen=True)
class SubspaceBasis:
    """Rref basis of a subspace of one graded slice, in slice coordinates.

    Bit c of a row refers to slice.ranks[c].  Rows are the unique reduced
    echelon form, so two SubspaceBasis over the same slice describe the same
    subspace iff their rows are equal.
    """

    slice: DegreeSlice
    rows: tuple[int, ...]

    @property
    def dimension(self) -> int:
        return len(self.rows)


def kernel_basis(spec: RingSpec, degree: int) -> SubspaceBasis:
    """Basis of the degree-d zero-divisors, in closed form.

    Every monomial of total degree d substitutes to x^d, which survives for
    d <= m and dies for d > m.  So for d <= m the zero-divisors of the slice
    are its even-weight vectors, whose rref basis is e_c + e_(n-1) for
    c = 0..n-2 (n the slice dimension), and for d > m the kernel is the
    whole slice, with the unit vectors as its rref basis.
    """
    sl = degree_slice(spec, degree)
    n = sl.dimension
    if degree <= spec.m:
        last = 1 << (n - 1)
        rows = tuple((1 << c) | last for c in range(n - 1))
    else:
        rows = tuple(1 << c for c in range(n))
    return SubspaceBasis(sl, rows)


def ideal_degree_basis(spec: RingSpec, degree: int) -> SubspaceBasis:
    """Basis of the degree-d span of { (x_i + x_s) * M : M of degree d-1 }.

    Each row is built from ranks, with no ring product: (x_i + x_s) * M is
    M*x_i + M*x_s, a monomial times x_i being the rank plus (m+1)^(i-1),
    kept only while M's i-th exponent is below m.  The two monomials differ,
    so nothing cancels.
    """
    if not 1 <= degree <= spec.s * spec.m:
        raise ValueError(f"degree {degree} outside [1, {spec.s * spec.m}]")
    m, radix = spec.m, spec.m + 1
    below = graded_slices(spec)[degree - 1]
    sl = degree_slice(spec, degree)
    position = {r: c for c, r in enumerate(sl.ranks)}
    top = radix ** (spec.s - 1)
    rows = []
    for i in range(1, spec.s):
        step = radix ** (i - 1)
        for r in below:
            row = 0
            if r // step % radix < m:
                row = 1 << position[r + step]
            if r // top < m:
                row |= 1 << position[r + top]
            if row:
                rows.append(row)
    return SubspaceBasis(sl, tuple(rref(rows)))


def _row_text(sl: DegreeSlice, row: int) -> str:
    """Text form of a nonzero row: its monomials in increasing rank order."""
    return " + ".join(monomial_to_text(unrank(sl.spec, sl.ranks[c]))
                      for c in range(row.bit_length()) if (row >> c) & 1)


@dataclass(frozen=True)
class DegreeCheck:
    """Per-degree comparison of kernel vs generator-span bases."""

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

    Both sides are canonical rref bases, so subspace equality is row
    equality.  A failing degree reports one vector present on exactly one
    side (this would disprove the generation fact, i.e. flag a bug).
    """
    top = spec.s * spec.m if max_degree is None else max_degree
    checks = []
    for d in range(1, top + 1):
        ker = kernel_basis(spec, d)
        ideal = ideal_degree_basis(spec, d)
        passed = ker.rows == ideal.rows
        mismatch = None
        if not passed:
            diff = set(ker.rows).symmetric_difference(ideal.rows)
            mismatch = _row_text(ker.slice, min(diff))
        checks.append(DegreeCheck(d, ker.dimension, ideal.dimension,
                                  passed, mismatch))
    return checks
