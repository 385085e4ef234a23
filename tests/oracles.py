"""Independent reference implementations used as test oracles.

Deliberately naive: polynomials are sets of exponent tuples, products are
formed pairwise with explicit truncation, and the cup-length brute force
enumerates arbitrary kernel elements.  Nothing here shares code with the
bit-packed implementation under test.  The exceptions are the F2 row
reduction and the rref bases of the kernel and the ideal rows, and the
union-find over the ideal rows that replaced them, which the package no
longer has and which check its bitset closure over the ideal rows;
the dense ring -- its elements, binomial powers and product, which the
package no longer has and which check the sparse witness verifier and the
rank-built ideal rows; the witness check by set products alone and its
work bound, which the package had before it multiplied out the factors
that alone use a variable, and which check the verifier and its bound;
the zcl enumerator and the textbook knapsack below, which check the
knapsack against the word criterion it optimizes; the
knapsack DP rows and the DP zcl_exact the package had before the digit
greedy replaced them, which check the greedy; the closed-form
witness the package had before zcl_exact covered every shape it admits,
and that witness's work bound, which check zcl_exact and its charge; the
residue table, which checks the residue formula against the submask
definition; the F2 nullspace, which derives kernel bases by row reduction
for the closed form to match; the quadratic rref, which checks the sparse
back-substitution; and the join model over Fraction coordinates with its
GroupElem labels, which checks the integer weights and the int labels.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from zclrp import (DegreeCheck, JoinReport, RingSpec, Witness, ZclError,
                   ZclResult, cuplength, monomial_from_text, monomial_to_text,
                   rank, trailing_ones, unrank, verify_witness, word_nonzero)


def slice_table(spec: RingSpec) -> tuple[tuple[int, ...], ...]:
    """Entry d: all ranks of total degree d, increasing, for d = 0..s*m."""
    m, s = spec.m, spec.s
    table: list[list[int]] = [[] for _ in range(s * m + 1)]
    digits = [0] * s
    deg = 0
    for r in range(spec.size):
        table[deg].append(r)
        i = 0
        while i < s and digits[i] == m:
            deg -= m
            digits[i] = 0
            i += 1
        if i < s:
            digits[i] += 1
            deg += 1
    return tuple(tuple(ranks) for ranks in table)


# the oracles read one small shape's table many times, so they keep theirs;
# a sweep over large shapes calls slice_table and keeps none
graded_slices = functools.lru_cache(maxsize=None)(slice_table)


# -- the generators check by union-find ---------------------------------------
# The package's generators check before it closed bitsets of ranks: one
# union-find forest over the two-term ideal rows of every degree, built one
# row at a time from a slice table.  Tests check the bitset closure's
# DegreeCheck lists against it, with and without faults in the rows.

def find(parent: list[int], v: int) -> int:
    """Root of v's component, halving the path on the way."""
    while parent[v] != v:
        parent[v] = v = parent[parent[v]]
    return v


def components(parent: list[int], marked: bytes,
               vertices: tuple[int, ...]) -> tuple[list[int], set[int]]:
    """The root of each vertex, in order, and the roots of the components
    among them with no marked vertex.  No edge may leave ``vertices``."""
    roots = [find(parent, v) for v in vertices]
    hit = {root for v, root in zip(vertices, roots) if marked[v]}
    return roots, set(roots) - hit


def ideal_forest(spec: RingSpec, slices: tuple[tuple[int, ...], ...],
                 top_degree: int,
                 generators: Iterable[int]) -> tuple[list[int], bytearray]:
    """Union-find forest (parent list over ranks) and marks of the rows
    (x_i + x_s)*M, for i in ``generators`` and M of degree below top_degree.
    A root is the least rank of its component."""
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
            b = find(parent, r + top)
            for step, block, limit in families:
                if r % block >= limit:
                    marked[r + top] = 1
                    continue
                a = find(parent, r + step)
                if a < b:
                    parent[b] = b = a
                elif b < a:
                    parent[a] = b
    return parent, marked


def forest_lemma(spec: RingSpec, max_degree: int | None = None,
                 forest=ideal_forest, slices=None) -> list[DegreeCheck]:
    """verify_generators_lemma by union-find: each degree's span has
    dimension n_d minus its unmarked components, built through
    ``forest(spec, slices, top_degree, generators)``."""
    top_degree = spec.s * spec.m if max_degree is None else max_degree
    if slices is None:
        slices = slice_table(spec)
    parent, marked = forest(spec, slices, top_degree, range(1, spec.s))
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
        mismatch = None if witness is None else " + ".join(
            monomial_to_text(unrank(spec, r)) for r in witness)
        checks.append(DegreeCheck(d, dim_kernel, n - len(unmarked),
                                  witness is None, mismatch))
    return checks


# -- F2 row reduction and rref bases of the graded slices ---------------------
# The package's generators check before the union-find: both sides of each
# degree as canonical rref bases, compared row by row.  Tests check the
# closure's dimensions and mismatch vectors against these bases.

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


def rref(rows: list[int]) -> list[int]:
    """Reduced row echelon form over F2.

    The pivot of a row is its lowest set bit (column order 0, 1, 2, ...).
    Returns the nonzero rows sorted by pivot column; this form is unique, so
    two lists of rows span the same subspace iff their rrefs are equal.

    Back-substitution visits the pivots once, highest first, and clears a
    row only at its own set bits in pivot columns above its pivot, each with
    one XOR of an already reduced row.  It costs one XOR per such bit rather
    than a test of every pivot pair, which is quadratic in the rank even
    when, as for the ideal rows, each row has a few bits.
    """
    pivots: dict[int, int] = {}
    pivot_mask = 0
    for row in rows:
        while row:
            c = (row & -row).bit_length() - 1
            if c in pivots:
                row ^= pivots[c]
            else:
                pivots[c] = row
                pivot_mask |= 1 << c
                break
    order = sorted(pivots)
    for c in reversed(order):
        row = pivots[c]
        hits = row & pivot_mask & -(2 << c)
        while hits:
            low = hits & -hits
            hits ^= low
            row ^= pivots[low.bit_length() - 1]
        pivots[c] = row
    return [pivots[c] for c in order]


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


def ideal_rows(spec: RingSpec, degree: int, generators=None) -> list[int]:
    """The degree-d rows { (x_i + x_s) * M : M of degree d-1 }, for i in
    ``generators`` (default: all of 1..s-1), in slice coordinates.

    Each row is built from ranks, with no ring product: (x_i + x_s) * M is
    M*x_i + M*x_s, a monomial times x_i being the rank plus (m+1)^(i-1),
    kept only while M's i-th exponent is below m.  The two monomials differ,
    so nothing cancels.
    """
    if not 1 <= degree <= spec.s * spec.m:
        raise ValueError(f"degree {degree} outside [1, {spec.s * spec.m}]")
    if generators is None:
        generators = range(1, spec.s)
    m, radix = spec.m, spec.m + 1
    below = graded_slices(spec)[degree - 1]
    position = {r: c for c, r in enumerate(graded_slices(spec)[degree])}
    top = radix ** (spec.s - 1)
    rows = []
    for i in generators:
        step = radix ** (i - 1)
        for r in below:
            row = 0
            if r // step % radix < m:
                row = 1 << position[r + step]
            if r // top < m:
                row |= 1 << position[r + top]
            if row:
                rows.append(row)
    return rows


def ideal_degree_basis(spec: RingSpec, degree: int,
                       generators=None) -> SubspaceBasis:
    """Rref basis of the span of ideal_rows(spec, degree, generators)."""
    rows = ideal_rows(spec, degree, generators)
    return SubspaceBasis(degree_slice(spec, degree), tuple(rref(rows)))


def in_span(reduced: Sequence[int], row: int) -> bool:
    """Whether a row lies in the span of rows in rref."""
    for b in reduced:
        if (row >> pivot_of(b)) & 1:
            row ^= b
    return row == 0


def vector_from_text(spec: RingSpec, sl: DegreeSlice, text: str) -> int:
    """A sum of monomials in text form, as a row in slice coordinates."""
    position = {r: c for c, r in enumerate(sl.ranks)}
    row = 0
    for term in text.split(" + "):
        row ^= 1 << position[rank(spec, monomial_from_text(spec, term))]
    return row


# -- the dense ring ------------------------------------------------------------
# The package's elements of A(m, s) before it certified witnesses without
# them: a polynomial is the dense bit vector over ranks, held as a Python
# int.  Rings above DENSE_RING_BITS basis monomials are refused.

DENSE_RING_BITS = 1 << 23
"""Cap on the basis cardinality (m+1)^s of a dense ring, bits per element."""


class SpecMismatchError(ZclError, ValueError):
    """Operands belong to different rings."""


class DenseSizeError(ZclError, ValueError):
    """The dense ring A(m, s) would hold (m+1)^s bits per element, over
    DENSE_RING_BITS."""


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
        """Ranks of the monomials present, in increasing order, read from
        the top bit down."""
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
    """Element constructors, addition and binomial powers for one RingSpec.

    Obtain instances through :func:`get_ring`, which caches per (m, s).
    """

    def __init__(self, spec: RingSpec):
        if spec.size > DENSE_RING_BITS:
            raise DenseSizeError(
                f"(m+1)^s = {spec.size} exceeds the dense oracle's cap of "
                f"{DENSE_RING_BITS} basis monomials")
        self.spec = spec

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
        t <= m and k - t <= m, of x_i^t x_j^(k-t)."""
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


@functools.lru_cache(maxsize=None)
def get_ring(m: int, s: int) -> Ring:
    """The dense ring A(m, s), built once per (m, s) and kept; raises
    DenseSizeError when (m+1)^s exceeds DENSE_RING_BITS."""
    return Ring(RingSpec(m, s))


def poly_to_text(p: Poly) -> str:
    """The monomials' text forms in increasing rank order, joined by
    " + "; "0" for the zero element."""
    if p.is_zero:
        return "0"
    return " + ".join(monomial_to_text(e) for e in p.monomials())


def generator(spec: RingSpec, i: int) -> Poly:
    """The i-th ideal generator x_i + x_s, for 1 <= i <= s-1."""
    if not 1 <= i <= spec.s - 1:
        raise ValueError(f"generator index {i} outside [1, {spec.s - 1}]")
    ring = get_ring(spec.m, spec.s)
    return ring.gen(i) + ring.gen(spec.s)


def row_as_poly(basis: SubspaceBasis, row: int) -> Poly:
    """A row of a basis, in slice coordinates, as a dense element."""
    ring = get_ring(basis.slice.spec.m, basis.slice.spec.s)
    bits = 0
    for c in range(row.bit_length()):
        if (row >> c) & 1:
            bits |= 1 << basis.slice.ranks[c]
    return ring.poly(bits)


def polys(basis: SubspaceBasis) -> list[Poly]:
    return [row_as_poly(basis, r) for r in basis.rows]


def poly_to_set(p):
    return set(p.monomials())


def set_to_poly(ring, monos):
    bits = 0
    for exps in monos:
        bits ^= 1 << rank(ring.spec, exps)
    return ring.poly(bits)


def naive_mul(m, a, b):
    """Product of two sets of exponent tuples, truncating at x_i^(m+1)."""
    out = set()
    for ea in a:
        for eb in b:
            e = tuple(x + y for x, y in zip(ea, eb))
            if all(v <= m for v in e):
                out ^= {e}
    return out


def naive_pow(m, s, a, k):
    out = {(0,) * s}
    for _ in range(k):
        out = naive_mul(m, out, a)
    return out


def naive_diagonal(m, a):
    """Substitute x_i -> x; returns the set of surviving degrees mod 2."""
    out = set()
    for e in a:
        d = sum(e)
        if d <= m:
            out ^= {d}
    return out


# -- the dense ring product ---------------------------------------------------
# The package's product of two elements before it multiplied only sparse
# term sets, kept verbatim: bit vectors are rank-indexed Python ints.

def _tile(unit: int, period: int, reps: int) -> int:
    """Concatenate reps copies of a period-bit pattern, by doubling."""
    out = unit
    have = 1
    while have < reps:
        take = min(have, reps - have)
        out |= (out & ((1 << (take * period)) - 1)) << (have * period)
        have += take
    return out


class _MaskRow(dict):
    """The masks of one digit position i: c -> the ranks whose i-th digit is
    <= c, tiled the first time c is looked up and kept from then on."""

    __slots__ = ("block", "period", "reps")

    def __init__(self, block: int, radix: int, size: int):
        super().__init__()
        self.block = block
        self.period = block * radix
        self.reps = size // self.period

    def __missing__(self, c: int) -> int:
        unit = (1 << ((c + 1) * self.block)) - 1
        mask = self[c] = _tile(unit, self.period, self.reps)
        return mask


class RingKernel:
    """Products in F2[x_1..x_s]/(x_i^(m+1)) on rank-indexed bits.

    A product is computed by scanning the set bits of the sparser operand.
    For a factor monomial with digit vector d, the surviving monomials of the
    other operand are AND_i masks[i][m - d_i], where masks[i][c] keeps the
    ranks whose i-th digit is <= c; the surviving block then shifts by the
    factor's rank, which adds digit vectors in mixed radix without carries
    (every digit sum is <= m by construction).

    Each mask is as wide as the ring, and a product reads only the masks of
    the digits its factors have, so masks are built on first use and kept
    for the life of the kernel; building the kernel costs no tiling.
    """

    def __init__(self, m: int, s: int):
        self.m = m
        self.s = s
        self.size = (m + 1) ** s
        radix = m + 1
        self.masks = tuple(_MaskRow(radix ** i, radix, self.size)
                           for i in range(s))

    def mul(self, a: int, b: int) -> int:
        if a.bit_count() > b.bit_count():
            a, b = b, a
        m = self.m
        radix = m + 1
        masks = self.masks
        acc = 0
        while a:
            low = a & -a
            a ^= low
            r = low.bit_length() - 1
            allowed = b
            rest = r
            i = 0
            while rest:
                rest, d = divmod(rest, radix)
                if d:
                    allowed &= masks[i][m - d]
                i += 1
            if allowed:
                acc ^= allowed << r
        return acc


def dense_mul(p, q):
    """The dense product p*q of two elements of one ring."""
    if p.spec != q.spec:
        raise SpecMismatchError(
            f"element of A({q.spec.m},{q.spec.s}) used in "
            f"A({p.spec.m},{p.spec.s})")
    return p.ring.poly(RingKernel(p.spec.m, p.spec.s).mul(p.bits, q.bits))


def dense_factor_product(m, s, factors):
    """The product of the factor powers (x_i + x_j)^e, by dense products in
    the full ring A(m, s)."""
    ring = get_ring(m, s)
    kernel = RingKernel(m, s)
    bits = 1
    for i, j, e in factors:
        if not bits:
            break
        bits = kernel.mul(bits, ring.binomial_pow(i, j, e).bits)
    return ring.poly(bits)


def dense_verify_witness(w):
    """The witness check by dense products: the certificate monomial's
    coefficient in the dense product of the factor powers."""
    product = dense_factor_product(w.m, w.s, w.factors)
    return bool((product.bits >> rank(product.spec, w.certificate)) & 1)


# -- the witness check by set products alone -------------------------------
# The package's verify_witness before it multiplied out on their own the
# factors that alone use a variable: every factor goes through the product
# of term sets, and the work bound recomputes its live terms at every
# factor.  Tests check the verifier and its bound against these.

def set_product_work_bound(w: Witness, uses=None) -> int:
    """verify_witness's bound on its term products, summed up to the first
    factor that takes it past MAX_DP_CELLS (see there).  uses is
    cuplength._uses(w.factors), when the caller has it already."""
    first, last = cuplength._uses(w.factors) if uses is None else uses
    work, sizes = 0, {}
    for n, (i, j, e) in enumerate(w.factors):
        count = cuplength._term_count(w.m, e)
        if not count:
            break
        live = math.prod(sizes.values()) // max(sizes.values(), default=1)
        work += live * count
        if work > cuplength.MAX_DP_CELLS:
            break
        for v in (i, j):
            if last[v] == n:
                sizes.pop(v, None)
            elif first[v] == n and w.certificate[v - 1]:
                sizes[v] = w.certificate[v - 1] + 1
    return work


def set_product_verify_witness(w: Witness) -> bool:
    """Check a witness by plain ring arithmetic: multiply the factor powers
    and test the certificate monomial's coefficient.

    Independent of word_nonzero -- this is the oracle that cross-validates
    the combinatorial criterion.  Each factor's terms come from the closed
    form of (x_i + x_j)^k (see _binomial_terms), and the product runs over
    sets of exponent vectors, each new term cancelling an equal one mod 2.
    Only the terms that can still reach the certificate C are kept: a term
    must divide C, since exponents only grow, and once the last factor using
    a variable is multiplied in, its exponent on that variable must equal
    C's.  So a term is kept only over the open variables, those used by an
    earlier factor and by a later one; a variable no factor uses must have
    exponent 0 in C.  This drops nothing the coefficient of C depends on,
    and the truncation x_i^(m+1) = 0 never bites, as C's exponents are at
    most m.  No ring is built.

    The work is bounded from the factor list before any product, and over
    MAX_DP_CELLS raises UndeterminedError: every term before a factor has
    the same total degree, so with k open variables at most the product of
    C_v + 1 over all but the largest of them are live, each multiplied by
    the factor's terms.  A factor with no term ends the product, and the
    bound with it.  A zcl_exact witness keeps only x_s open, so its bound
    is the charge zcl_exact passed (see _check_cells).
    """
    target = w.certificate
    first, last = uses = cuplength._uses(w.factors)
    if any(c and v not in first for v, c in enumerate(target, 1)):
        return False
    cuplength._check_work(w.m, w.s, set_product_work_bound(w, uses))
    layout, terms = (), {()}
    for n, (i, j, e) in enumerate(w.factors):
        ci, cj = target[i - 1], target[j - 1]
        keep = [p for p, v in enumerate(layout) if v != i and v != j]
        at_i = layout.index(i) if i in layout else None
        at_j = layout.index(j) if j in layout else None
        open_i, open_j = last[i] > n, last[j] > n
        # a variable this factor closes leaves one exponent t to try per
        # term; only when both stay open are all of the factor's terms read
        every_t = cuplength._binomial_terms(w.m, e) if open_i and open_j else ()
        product = set()
        for term in terms:
            rest = tuple(term[p] for p in keep)
            have_i = 0 if at_i is None else term[at_i]
            have_j = 0 if at_j is None else term[at_j]
            if not open_i:
                choices = (ci - have_i,)
            elif not open_j:
                choices = (e - cj + have_j,)
            else:
                choices = every_t
            for t in choices:
                a, b = have_i + t, have_j + e - t
                if (e & t != t or not e - w.m <= t <= w.m or a > ci
                        or b > cj or (not open_i and a != ci)
                        or (not open_j and b != cj)):
                    continue
                product ^= {rest + (a,) * open_i + (b,) * open_j}
        layout = tuple(layout[p] for p in keep) + (i,) * open_i + (j,) * open_j
        terms = product
        if not terms:
            return False
    return bool(terms)


def ideal_basis_by_products(spec, degree):
    """Rref basis of the degree-d generator multiples, each row the dense
    product of a generator x_i + x_s with a degree-(d-1) monomial."""
    ring = get_ring(spec.m, spec.s)
    sl = degree_slice(spec, degree)
    position = {r: c for c, r in enumerate(sl.ranks)}
    rows = []
    for i in range(1, spec.s):
        gen = generator(spec, i)
        for mono_rank in degree_slice(spec, degree - 1).ranks:
            prod = dense_mul(gen, ring.poly(1 << mono_rank))
            row = 0
            for r in prod.support():
                row |= 1 << position[r]
            if row:
                rows.append(row)
    return SubspaceBasis(sl, tuple(rref(rows)))


def random_poly_set(rng, m, s, max_terms=6):
    monos = set()
    for _ in range(rng.randint(0, max_terms)):
        monos.add(tuple(rng.randint(0, m) for _ in range(s)))
    return monos


def all_kernel_elements(m, s):
    """Every nonzero homogeneous zero-divisor, from the kernel spans."""
    spec = RingSpec(m, s)
    elements = []
    for d in range(1, s * m + 1):
        basis = kernel_basis(spec, d)
        rows = basis.rows
        for mask in range(1, 1 << len(rows)):
            row = 0
            for t in range(len(rows)):
                if (mask >> t) & 1:
                    row ^= rows[t]
            elements.append(row_as_poly(basis, row))
    return elements


def brute_force_zcl(m, s):
    """Largest multiset of nonzero homogeneous zero-divisors with nonzero
    product, by depth-first enumeration with live products."""
    ring = get_ring(m, s)
    elements = all_kernel_elements(m, s)
    best = 0

    def extend(product, start, depth):
        nonlocal best
        if depth > best:
            best = depth
        for idx in range(start, len(elements)):
            q = dense_mul(product, elements[idx])
            if q.bits:
                extend(q, idx, depth + 1)

    extend(ring.one, 0, 0)
    return best


def min_residues_by_submasks(m):
    """For v = 0..2m: the least submask r of v with v - r <= m, by trying
    every submask."""
    out = []
    for v in range(2 * m + 1):
        out.append(min(r for r in range(v + 1)
                       if r & v == r and v - r <= m))
    return tuple(out)


def min_residues_closed_form(m: int) -> tuple[int, ...]:
    """For v = 0..2m: the least r with r a submask of v and v - r <= m.

    The package's closed form before it read the residue off the largest
    submask of v at most m.  For v > m the answer is the least submask of v
    that is >= t = v - m: t itself when t is a submask of v.  Otherwise let
    h be the highest bit t has and v lacks, and i the lowest bit above h
    that v has and t lacks (one exists because v > t): keep t's bits above
    i, set bit i and clear the rest.
    """
    out = [0] * (m + 1)
    for v in range(m + 1, 2 * m + 1):
        t = v - m
        missing = t & ~v
        if not missing:
            out.append(t)
            continue
        free = v & ~t & -(1 << missing.bit_length())
        low = free & -free
        out.append((t & -(low << 1)) | low)
    return tuple(out)


def _sorted_words(total, parts, cap, floor=0):
    """Nondecreasing tuples with the given sum, entries in [floor, cap],
    in ascending lexicographic order."""
    if parts == 1:
        if floor <= total <= cap:
            yield (total,)
        return
    for v in range(max(floor, total - cap * (parts - 1)), total // parts + 1):
        for rest in _sorted_words(total - v, parts - 1, cap, v):
            yield (v,) + rest


def enumerate_zcl(m, s):
    """zcl by descending search: word lengths from s*m down, sorted words
    in ascending lexicographic order within a length, first nonzero word
    wins.  Its witness is the lexicographically smallest sorted word of
    maximal length.  Exponential in s; for small shapes only."""
    for k in range(s * m, -1, -1):
        for b in _sorted_words(k, s - 1, 2 * m):
            ok, certificate = word_nonzero(m, s, b)
            if ok:
                factors = tuple((i + 1, s, e) for i, e in enumerate(b) if e)
                return ZclResult(m, s, k, "exact",
                                 Witness(m, s, factors, certificate))
    raise AssertionError(f"no nonzero word at ({m},{s})")


def knapsack_zcl(m, s):
    """zcl by the textbook knapsack table: best[r] over every exponent
    0..2m at each of the s-1 positions, with no item pruning, no early
    stop and no shift by m."""
    f = min_residues_by_submasks(m)
    best = [0] * (m + 1)
    for _ in range(s - 1):
        best = [max(v + best[r - f[v]] for v in range(2 * m + 1) if f[v] <= r)
                for r in range(m + 1)]
    return best[m]


def gain_rows(m: int, parts: int) -> list[list[int]]:
    """The package's knapsack DP rows H[0..parts] before the digit greedy
    replaced them: computed afresh on every call, up to p = parts or the
    first row equal to its predecessor.  The residues come from the
    submask definition."""
    f = min_residues_by_submasks(m)
    items, least = [], m + 1
    for b in range(2 * m, m, -1):
        if f[b] < least:
            least = f[b]
            items.append((f[b], b - m))
    rows = [[0] * (m + 1)]
    while len(rows) <= parts:
        prev = rows[-1]
        row = prev[:]
        for r, gain in items:
            row[r:] = map(max, row[r:], [gain + x for x in prev[:m + 1 - r]])
        if row == prev:
            break
        rows.append(row)
    return rows


def dp_zcl(m: int, s: int) -> ZclResult:
    """The package's zcl_exact on the knapsack DP: the value from gain_rows
    above and the witness rebuilt through a closure over them, with the
    certificate from word_nonzero."""
    f = min_residues_by_submasks(m)
    rows = gain_rows(m, s - 1)

    def longest(parts: int, budget: int) -> int:
        return parts * m + rows[min(parts, len(rows) - 1)][budget]

    value = longest(s - 1, m)
    word, v, budget, remaining = [], 0, m, value
    for parts in range(s - 2, -1, -1):
        while f[v] > budget or v + longest(parts, budget - f[v]) != remaining:
            v += 1
        word.append(v)
        budget -= f[v]
        remaining -= v
    ok, certificate = word_nonzero(m, s, word)
    assert ok, (m, s, word)
    factors = tuple((i + 1, s, e) for i, e in enumerate(word) if e)
    return ZclResult(m, s, value, "exact", Witness(m, s, factors, certificate))


def explicit_work(m: int, s: int) -> int:
    """verify_witness's work bound for the closed-form witness of (m, s),
    from the shape of explicit_witness alone; 0 when there is none.

    For m = 2^e - 1 each of the s-1 factors has m+1 terms and x_s, the one
    variable left open, has certificate exponent 0.  Otherwise the first of
    the sigma-1 block factors meets no open variable, the others meet
    x_sigma and, when s > sigma, x_1, so min(m, (sigma-1) 2^e) + 1 live
    terms; each extension factor meets x_1 alone.
    """
    e = trailing_ones(m)
    sigma = (m + 1) >> e
    if sigma == 1:
        return (s - 1) * (m + 1)
    if s < sigma:
        return 0
    block = cuplength._term_count(m, m + (1 << e))
    live = 1 if s == sigma else min(m, (sigma - 1) << e) + 1
    return (block + (sigma - 2) * block * live
            + (s - sigma) * cuplength._term_count(m, m))


def explicit_witness(m: int, s: int) -> Witness | None:
    """The package's closed-form lower-bound witness before zcl_exact
    covered every shape it admits: the paper's construction of a word of
    length s*m - (2^e - 1) for s >= sigma.

    With e = trailing_ones(m):

    * m = 2^e - 1: the word (x_1 + x_s)^m ... (x_(s-1) + x_s)^m of length
      m(s-1) survives on x_1^m ... x_(s-1)^m.
    * otherwise, with sigma = (m+1)/2^e and s >= sigma: the block
      (x_1 + x_sigma)^(m + 2^e) ... (x_(sigma-1) + x_sigma)^(m + 2^e)
      survives on x_1^m ... x_(sigma-1)^m x_sigma^((sigma-1) 2^e) -- the
      parity C(m + 2^e, 2^e) is odd, so each factor contributes its top
      x_i^m term -- and each additional variable t > sigma appends one
      factor (x_1 + x_t)^m whose x_t^m term extends the product without
      cancellation.  Total length s*m - (2^e - 1).
    * s < sigma (and m not of the first shape): no construction; None.

    A witness whose check is over verify_witness's work cap raises
    UndeterminedError before its factors are built; the witness is
    verified before being returned.
    """
    if m < 1 or s < 2:
        raise ValueError("need m >= 1 and s >= 2")
    cuplength._check_work(m, s, explicit_work(m, s))
    e = trailing_ones(m)
    if m == (1 << e) - 1:
        factors = tuple((i, s, m) for i in range(1, s))
        certificate = (m,) * (s - 1) + (0,)
    else:
        sigma = (m + 1) >> e
        if s < sigma:
            return None
        factors = tuple((i, sigma, m + (1 << e)) for i in range(1, sigma))
        factors += tuple((1, t, m) for t in range(sigma + 1, s + 1))
        certificate = [0] * s
        for i in range(1, sigma):
            certificate[i - 1] = m
        certificate[sigma - 1] = (sigma - 1) << e
        for t in range(sigma + 1, s + 1):
            certificate[t - 1] = m
        certificate = tuple(certificate)
    w = Witness(m, s, factors, certificate)
    assert verify_witness(w), (m, s)
    return w


def rref_quadratic(rows: list[int]) -> list[int]:
    """Reduced row echelon form over F2.

    The pivot of a row is its lowest set bit (column order 0, 1, 2, ...).
    Returns the nonzero rows sorted by pivot column; this form is unique, so
    two lists of rows span the same subspace iff their rrefs are equal.
    """
    pivots: dict[int, int] = {}
    for row in rows:
        while row:
            c = (row & -row).bit_length() - 1
            if c in pivots:
                row ^= pivots[c]
            else:
                pivots[c] = row
                break
    # Back-substitution, highest pivot first so cleared columns stay cleared.
    for c in sorted(pivots, reverse=True):
        row = pivots[c]
        for c2 in pivots:
            if c2 != c and (pivots[c2] >> c) & 1:
                pivots[c2] ^= row
    return [pivots[c] for c in sorted(pivots)]


def pivot_of(row):
    """Column of the lowest set bit."""
    return (row & -row).bit_length() - 1


def nullspace(rows, width):
    """Canonical (rref) basis of {v : M v = 0} for the matrix with the given
    rows, by back-substituting each free column into the reduced rows."""
    reduced = rref(rows)
    pivots = [pivot_of(r) for r in reduced]
    pivot_set = set(pivots)
    basis = []
    for free in range(width):
        if free in pivot_set:
            continue
        v = 1 << free
        for p, row in zip(pivots, reduced):
            if (row >> free) & 1:
                v |= 1 << p
        basis.append(v)
    return rref(basis)


def kernel_rows_by_nullspace(spec, degree):
    """Rref rows of the degree-d zero-divisors as the nullspace of the
    substitution matrix on the slice: one all-ones row for d <= m, none
    above."""
    n = degree_slice(spec, degree).dimension
    matrix = [(1 << n) - 1] if degree <= spec.m else []
    return tuple(nullspace(matrix, n))


# -- the join model over Fraction coordinates ---------------------------------
# The package's model before it stored integer weights over one denominator
# and plain int labels, kept verbatim: tests compare points, segments and
# reports against it, reading a GroupElem label as its bits.

Entry = tuple[Fraction, "GroupElem | None"]


@dataclass(frozen=True)
class GroupElem:
    """Element of (Z/2)^(s-1), bit i-1 for the i-th sign generator."""

    s: int
    bits: int

    def __post_init__(self):
        if self.s < 2:
            raise ValueError("need s >= 2")
        if not 0 <= self.bits < (1 << (self.s - 1)):
            raise ValueError(f"bits {self.bits} outside [0, 2^{self.s - 1})")

    def __add__(self, other: "GroupElem") -> "GroupElem":
        if self.s != other.s:
            raise ValueError("group elements of different rank")
        return GroupElem(self.s, self.bits ^ other.bits)


@dataclass(frozen=True)
class JoinPoint:
    """Point of the stage-k join: k+1 entries (coordinate, label).

    Coordinates are nonnegative Fractions summing to 1; the label is a
    GroupElem exactly at positive coordinates and None elsewhere.
    """

    k: int
    entries: tuple[Entry, ...]

    def __post_init__(self):
        if self.k < 0:
            raise ValueError("need k >= 0")
        if len(self.entries) != self.k + 1:
            raise ValueError(f"expected {self.k + 1} entries, got {len(self.entries)}")
        total = Fraction(0)
        ranks = set()
        for t, g in self.entries:
            if t < 0:
                raise ValueError("negative barycentric coordinate")
            if (t > 0) != (g is not None):
                raise ValueError("label must be present exactly at positive coordinates")
            if g is not None:
                ranks.add(g.s)
            total += t
        if total != 1:
            raise ValueError(f"coordinates sum to {total}, not 1")
        if len(ranks) != 1:
            raise ValueError("labels must share one group rank")

    @property
    def s(self) -> int:
        for _, g in self.entries:
            if g is not None:
                return g.s
        raise AssertionError("unreachable: some coordinate is positive")


def join_point(k: int, parts: dict[int, tuple[Fraction, GroupElem]]) -> JoinPoint:
    """Build a JoinPoint from its positive levels only."""
    entries: list[Entry] = [(Fraction(0), None)] * (k + 1)
    for level, (t, g) in parts.items():
        entries[level] = (t, g)
    return JoinPoint(k, tuple(entries))


def vertex(k: int, level: int, g: GroupElem) -> JoinPoint:
    """The vertex point with all weight at one level."""
    return join_point(k, {level: (Fraction(1), g)})


def act(g: GroupElem, p: JoinPoint) -> JoinPoint:
    """Diagonal action on labels; coordinates untouched."""
    return JoinPoint(p.k, tuple(
        (t, None if h is None else g + h) for t, h in p.entries))


def in_U(p: JoinPoint, j: int) -> bool:
    """Membership in U_j = {t_j > 0}."""
    if not 0 <= j <= p.k:
        raise ValueError(f"level {j} outside [0, {p.k}]")
    return p.entries[j][0] > 0


def component_key(p: JoinPoint, j: int) -> GroupElem:
    """The level-j label; constant on each connected component of U_j."""
    if not in_U(p, j):
        raise ValueError(f"point is not in U_{j}")
    g = p.entries[j][1]
    assert g is not None
    return g


def _labels_compatible(p: JoinPoint, q: JoinPoint) -> bool:
    # The straight segment stays inside the join iff no level carries two
    # different labels with positive weight on both ends.
    for (tp, gp), (tq, gq) in zip(p.entries, q.entries):
        if tp > 0 and tq > 0 and gp != gq:
            return False
    return True


def _segment_inside_U(p: JoinPoint, q: JoinPoint, j: int) -> bool:
    # t_j is affine along the segment, so positivity everywhere reduces to
    # the endpoints; the midpoint re-check keeps this an executed fact
    # rather than an assumption.
    if p.entries[j][0] <= 0 or q.entries[j][0] <= 0:
        return False
    mid = (p.entries[j][0] + q.entries[j][0]) / 2
    total = sum(((tp + tq) / 2 for (tp, _), (tq, _) in zip(p.entries, q.entries)),
                Fraction(0))
    return mid > 0 and total == 1


def segment_in_component(p: JoinPoint, q: JoinPoint, j: int) -> bool:
    """Exhibit a path from p to q inside U_j.

    The straight barycentric segment works whenever the two label sets agree
    on shared positive levels; otherwise the path routes through the shared
    level-j vertex (p -> vertex -> q), which is always label-compatible with
    both endpoints.  Valid inputs (same component key) must give True; a
    False is a defect.
    """
    if not (in_U(p, j) and in_U(q, j)):
        raise ValueError(f"both points must lie in U_{j}")
    key = component_key(p, j)
    if component_key(q, j) != key:
        raise ValueError("points have different component keys")
    if _labels_compatible(p, q):
        return _segment_inside_U(p, q, j)
    v = vertex(p.k, j, key)
    return (_labels_compatible(p, v) and _segment_inside_U(p, v, j)
            and _labels_compatible(v, q) and _segment_inside_U(v, q, j))


def sample_point(rng: random.Random, s: int, k: int, j: int,
                 weight_bits: int = 4) -> JoinPoint:
    """Random point of U_j with denominator-bounded rational coordinates.

    Draws a 1-bit coin per level other than j, then a weight 1 +
    getrandbits(weight_bits) per chosen level, then a label
    getrandbits(s - 1) per chosen level.
    """
    levels = [l for l in range(k + 1) if l == j or rng.getrandbits(1)]
    weights = {l: 1 + rng.getrandbits(weight_bits) for l in levels}
    total = sum(weights.values())
    parts = {l: (Fraction(w, total), GroupElem(s, rng.getrandbits(s - 1)))
             for l, w in weights.items()}
    return join_point(k, parts)


def sample_report(s: int, k: int, samples: int = 1000, seed: int = 0) -> JoinReport:
    """Sample U_j points and check the component structure.

    Collects the realized component keys (expected: all 2^(s-1) of them),
    checks that the label action permutes keys simply transitively, and runs
    one same-key segment check per sample.
    """
    rng = random.Random(seed)
    n_keys = 1 << (s - 1)
    seen: set[int] = set()
    equivariant = True
    segments_ok = 0
    for _ in range(samples):
        j = rng.randrange(k + 1)
        p = sample_point(rng, s, k, j)
        key = component_key(p, j)
        seen.add(key.bits)
        g = GroupElem(s, rng.getrandbits(s - 1))
        if component_key(act(g, p), j) != g + key:
            equivariant = False
        q = sample_point(rng, s, k, j)
        if component_key(q, j) != key:
            q = act(key + component_key(q, j), q)
        if segment_in_component(p, q, j):
            segments_ok += 1
    # Orbit of any key under the whole group is the full key set.
    orbit = {(GroupElem(s, g) + GroupElem(s, next(iter(seen)))).bits
             for g in range(n_keys)} if seen else set()
    equivariant = equivariant and orbit == set(range(n_keys))
    transitive = len(seen) == n_keys and equivariant
    return JoinReport(s, k, samples, len(seen), transitive, segments_ok,
                      equivariant)
