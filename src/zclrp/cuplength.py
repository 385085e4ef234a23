"""Zero-divisor cup-length of (RP^m)^s: exact knapsack DP and explicit witnesses.

The cup-length zcl is the maximal number of zero-divisors with nonzero
product.  Since the zero-divisor ideal is generated by the degree-1 elements
y_i = x_i + x_s, expanding any nonzero k-fold product of zero-divisors over
the generators exhibits a nonzero product of k generators, and conversely
every generator is itself a zero-divisor.  The search therefore ranges over
"generator words": exponent vectors b with product  prod_i (x_i + x_s)^b_i.
This reduction is cross-checked against a brute-force enumeration over
arbitrary kernel elements in the test suite.

Nonvanishing of a generator word is decided without ring arithmetic:

    prod_i (x_i + x_s)^b_i  =  sum over j of  prod_i C(b_i, j_i)
                               x_1^j_1 ... x_(s-1)^j_(s-1) x_s^(sum(b_i - j_i))

and distinct j-vectors give distinct basis monomials, so there is no
cancellation; the word is nonzero iff some j has every C(b_i, j_i) odd,
every j_i <= m and the residue sum <= m.  By the parity constraint the
admissible residues b_i - j_i are exactly the binary submasks of b_i, so the
word is nonzero iff the per-coordinate minimal residues sum to at most m.
An independent check by plain ring arithmetic is kept (verify_witness): it
multiplies the factors' terms as sparse sets of exponent vectors.

Because the criterion is additive, the longest nonzero word is a
multiple-choice knapsack (Kellerer-Pferschy-Pisinger, Knapsack Problems,
ch. 11): s-1 positions, each taking an exponent b of weight f(b) (its
minimal residue) against the capacity m.  zcl_exact solves it by dynamic
programming over (positions, residue budget) in polynomial time; the DP
size is capped up front (MAX_DP_CELLS), never part-way through.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Sequence

from .errors import MAX_DP_CELLS, InvariantViolationError, Record, charge
from .parity import trailing_ones
from .ring import monomial_to_text


def _check_cells(m: int, s: int) -> None:
    """Raise unless m >= 1, s >= 2 and the DP of (m, s) fits MAX_DP_CELLS.

    The DP size is (s-1) positions x (m+1) residue budgets x a bound on the
    items: only exponents m <= b < 2^L, L = m.bit_length(), can be items,
    since a b of 2^L or more needs a residue containing bit L, which
    exceeds m.  It bounds both the table work and the witness rebuild,
    which is linear in s, and it is computed from (m, s) alone, so a shape
    over the cap raises UndeterminedError before any work.
    """
    if m < 1 or s < 2:
        raise ValueError("need m >= 1 and s >= 2")
    cells = (s - 1) * (m + 1) * ((1 << m.bit_length()) - m)
    charge(cells, "zcl({},{}): the DP needs {work} cells", m, s)


def _largest_submask(k: int, x: int) -> int:
    """The largest submask of k that is at most x >= 0.

    x itself when it is a submask of k.  Otherwise let h be the highest bit
    x has and k lacks: keep x's bits above h, clear h and take all of k's
    bits below it.
    """
    missing = x & ~k
    if not missing:
        return x
    h = 1 << (missing.bit_length() - 1)
    return (x & -(h << 1)) | (k & (h - 1))


# Bounded, so that a report over many m keeps at most 256 tables of 2m+1
# entries; every m of a benchmark workload is at most 24.
@functools.lru_cache(maxsize=256)
def _min_residues(m: int) -> tuple[int, ...]:
    """For v = 0..2m: the least r with r a submask of v and v - r <= m.

    r ranges over submasks of v exactly when C(v, v - r) is odd; v - r is
    the factor's exponent on its own variable, capped at m.  A factor power
    with v > 2m has every admissible residue > m and kills the product,
    hence the 2m cap on word exponents.

    v - r is a submask of v too, so the least r leaves the largest submask
    of v that is at most m.
    """
    return (0,) * (m + 1) + tuple(v - _largest_submask(v, m)
                                  for v in range(m + 1, 2 * m + 1))


# The DP of the m asked for last: (m, items, rows, complete), complete once
# the rows reach their first repeat.  It is replaced whole, never changed in
# place, so no list _gain_rows has returned changes afterwards.
_dp: tuple[int, list[tuple[int, int]], list[list[int]], bool] = (0, [], [], True)


def _gain_rows(m: int, parts: int) -> list[list[int]]:
    """Rows H[0], H[1], ... of the knapsack table, each indexed by r = 0..m.

    H[p][r] is the largest sum of b_i - m over p word exponents whose
    residues sum to at most r.  The items are, per residue value, the
    largest exponent b > m with that residue, less the ones a larger b of
    no larger residue beats; the residue-0 item b = m adds nothing, so each
    row starts as a copy of the one before.  The rows reach at least
    p = parts or stop at the first row equal to its predecessor: every row
    comes from the one before by the same step, so from there on they
    repeat, and H[p] is the last row for every p beyond the list.

    The rows of the last m asked for are kept, and a call for the same m
    extends them from the last one kept, so the rows of one m over s = 2..S
    cost one DP of S-1 rows.  The list returned may reach beyond parts.
    """
    global _dp
    last_m, items, rows, complete = _dp
    if last_m != m:
        f = _min_residues(m)
        items, least = [], m + 1
        for b in range(2 * m, m, -1):
            if f[b] < least:
                least = f[b]
                items.append((f[b], b - m))
        rows, complete = [[0] * (m + 1)], False
    elif complete or len(rows) > parts:
        return rows
    rows = rows[:]  # a list once returned is never appended to
    while len(rows) <= parts:
        prev = rows[-1]
        row = prev[:]
        for r, gain in items:
            row[r:] = map(max, row[r:], [gain + x for x in prev[:m + 1 - r]])
        if row == prev:
            complete = True
            break
        rows.append(row)
    _dp = (m, items, rows, complete)
    return rows


def word_nonzero(m: int, s: int,
                 exponents: Sequence[int]) -> tuple[bool, tuple[int, ...] | None]:
    """Decide whether prod_i (x_i + x_s)^b_i is nonzero in A(m, s).

    exponents[i-1] is the number of copies of (x_i + x_s): s-1 of them, each
    in [0, 2m], summing to at most s*m; anything else raises ValueError.
    Returns (True, certificate-exponent-vector) or (False, None).  The
    certificate is the surviving basis monomial built from the minimal
    residues, x_1^j_1 ... x_s^(total residue).
    """
    exponents = tuple(exponents)
    if m < 1 or s < 2:
        raise ValueError("need m >= 1 and s >= 2")
    if len(exponents) != s - 1:
        raise ValueError(f"expected {s - 1} exponents, got {len(exponents)}")
    for b in exponents:
        if not 0 <= b <= 2 * m:
            raise ValueError(f"factor exponent {b} outside [0, {2 * m}]")
    length = sum(exponents)
    if length > s * m:
        raise ValueError(f"word length {length} exceeds the top degree {s * m}")
    table = _min_residues(m)
    residues = [table[b] for b in exponents]
    total = sum(residues)
    if total > m:
        return False, None
    certificate = tuple(b - r for b, r in zip(exponents, residues)) + (total,)
    return True, certificate


class Witness(Record):
    """A product of binomial factors with a surviving basis monomial.

    factors: multiset of (i, j, exponent) encoding (x_i + x_j)^exponent with
    1 <= i < j <= s.  certificate: the exponent vector of a basis monomial
    asserted to occur in the fully expanded, truncated product; checked by
    verify_witness via plain ring arithmetic.
    """

    __slots__ = ("m", "s", "factors", "certificate")

    def __init__(self, m: int, s: int, factors: tuple[tuple[int, int, int], ...],
                 certificate: tuple[int, ...]):
        if not isinstance(m, int):
            raise ValueError(f"m {m!r} is not an integer")
        if not isinstance(s, int):
            raise ValueError(f"s {s!r} is not an integer")
        for i, j, e in factors:
            for index in (i, j):
                if not isinstance(index, int):
                    raise ValueError(f"factor index {index!r} is not an integer")
            if not isinstance(e, int):
                raise ValueError(f"factor exponent {e!r} is not an integer")
            if not 1 <= i < j <= s:
                raise ValueError(f"factor indices ({i},{j}) need 1 <= i < j <= {s}")
            if e < 1:
                raise ValueError(f"factor exponent {e} must be >= 1")
        if len(certificate) != s:
            raise ValueError("certificate length differs from s")
        for e in certificate:
            if not isinstance(e, int):
                raise ValueError(f"certificate exponent {e!r} is not an integer")
            if not 0 <= e <= m:
                raise ValueError(f"certificate exponent {e} outside [0, {m}]")
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "factors", factors)
        object.__setattr__(self, "certificate", certificate)

    @property
    def length(self) -> int:
        """Number of zero-divisor factors counted with multiplicity."""
        return sum(e for _, _, e in self.factors)

    @property
    def certificate_text(self) -> str:
        return monomial_to_text(self.certificate)

    def as_dict(self) -> dict:
        return {"factors": [list(f) for f in self.factors],
                "certificate": self.certificate_text}


class ZclResult(Record):
    """A zcl value with its provenance and certifying witness.

    method "exact" asserts both directions: the witness product is nonzero
    and the DP found no longer nonzero word.  method "witness_lower_bound"
    asserts only the witness.
    """

    __slots__ = ("m", "s", "value", "method", "witness")

    def __init__(self, m: int, s: int, value: int, method: str, witness: Witness):
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "method", method)
        object.__setattr__(self, "witness", witness)

    @property
    def g(self) -> int:
        """Gap s*m - value between the top degree and the cup-length.

        Exact when method == "exact"; otherwise an upper bound for the gap
        (a zcl lower bound under-counts nothing on the other side).
        """
        return self.s * self.m - self.value


def zcl_exact(m: int, s: int) -> ZclResult:
    """Exact zero-divisor cup-length by a residue knapsack DP.

    The value is the longest word: (s-1)*m + H[s-1][m] (see _gain_rows).
    The witness is rebuilt position by position as the lexicographically
    smallest sorted word of that length: each position takes the least
    exponent v that still leaves an optimal completion of the rest, i.e.
    f(v) fits the residue budget and v plus the best completion equals the
    length still to place.  Such a v is never below the previous one, since
    an optimal word with a smaller entry would have put it first.  The
    certificate comes from one word_nonzero call on the finished word, so
    the DP is checked against the criterion it optimizes.  A shape over
    MAX_DP_CELLS raises UndeterminedError before any work.
    """
    _check_cells(m, s)
    f = _min_residues(m)
    rows = _gain_rows(m, s - 1)
    top = len(rows) - 1
    value = (s - 1) * m + rows[min(s - 1, top)][m]
    word, v, budget, remaining = [], 0, m, value
    for parts in range(s - 2, -1, -1):
        row, rest = rows[min(parts, top)], remaining - parts * m
        while f[v] > budget or v + row[budget - f[v]] != rest:
            v += 1
        word.append(v)
        budget -= f[v]
        remaining -= v
    ok, certificate = word_nonzero(m, s, word)
    if not ok:
        raise InvariantViolationError(
            f"zcl({m},{s}): the DP word {word} is zero; this is a bug")
    factors = tuple((i + 1, s, e) for i, e in enumerate(word) if e)
    return ZclResult(m, s, value, "exact", Witness(m, s, factors, certificate))


def _binomial_terms(m: int, k: int) -> list[int]:
    """The exponents t of the terms x_i^t x_j^(k-t) of (x_i + x_j)^k in
    A(m, s).

    C(k, t) is odd iff t is a submask of k, and both exponents must be at
    most m, so t runs over the submasks of k in [max(0, k - m), min(m, k)].
    They are walked downwards from the largest one in range, so the cost is
    the number of terms, not m.
    """
    low, high = max(0, k - m), min(m, k)
    if low > high:
        return []
    t, out = _largest_submask(k, high), []
    while t >= low:
        out.append(t)
        if not t:
            break
        t = (t - 1) & k
    return out


@functools.lru_cache(maxsize=4096)
def _term_count(m: int, k: int) -> int:
    """len(_binomial_terms(m, k)), from the binary digits alone.

    The submasks of k at most x number one more than the rank of the
    largest of them among all submasks of k, read off by packing its bits
    at k's bit positions into consecutive ones.
    """
    def at_most(x: int) -> int:
        if x < 0:
            return 0
        t, count, place, bits = _largest_submask(k, x), 1, 1, k
        while bits:
            low = bits & -bits
            if t & low:
                count += place
            place <<= 1
            bits ^= low
        return count

    if k > 2 * m:
        return 0
    return at_most(min(m, k)) - at_most(max(0, k - m) - 1)


def _check_work(m: int, s: int, work: int) -> None:
    """Raise UndeterminedError when verify_witness's work bound for an
    (m, s) witness exceeds MAX_DP_CELLS."""
    charge(work, "witness({},{}): the check's work bound reaches {work} term "
                 "products", m, s)


def _uses(factors) -> tuple[dict[int, int], dict[int, int]]:
    """For each variable: the index of the first and of the last factor
    that uses it."""
    first, last = {}, {}
    for n, (i, j, _) in enumerate(factors):
        for v in (i, j):
            first.setdefault(v, n)
            last[v] = n
    return first, last


def _work_bound(w: Witness, uses=None) -> int:
    """verify_witness's bound on its term products, summed up to the first
    factor that takes it past MAX_DP_CELLS (see there).  uses is
    _uses(w.factors), when the caller has it already."""
    first, last = _uses(w.factors) if uses is None else uses
    work, sizes = 0, {}
    for n, (i, j, e) in enumerate(w.factors):
        count = _term_count(w.m, e)
        if not count:
            break
        live = math.prod(sizes.values()) // max(sizes.values(), default=1)
        work += live * count
        if work > MAX_DP_CELLS:
            break
        for v in (i, j):
            if last[v] == n:
                sizes.pop(v, None)
            elif first[v] == n and w.certificate[v - 1]:
                sizes[v] = w.certificate[v - 1] + 1
    return work


def verify_witness(w: Witness) -> bool:
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
    bound with it.  A DP witness keeps only x_s open, so its bound is at
    most (s-1)(m+1), within its DP size.
    """
    target = w.certificate
    first, last = uses = _uses(w.factors)
    if any(c and v not in first for v, c in enumerate(target, 1)):
        return False
    _check_work(w.m, w.s, _work_bound(w, uses))
    layout, terms = (), {()}
    for n, (i, j, e) in enumerate(w.factors):
        ci, cj = target[i - 1], target[j - 1]
        keep = [p for p, v in enumerate(layout) if v != i and v != j]
        at_i = layout.index(i) if i in layout else None
        at_j = layout.index(j) if j in layout else None
        open_i, open_j = last[i] > n, last[j] > n
        # a variable this factor closes leaves one exponent t to try per
        # term; only when both stay open are all of the factor's terms read
        every_t = _binomial_terms(w.m, e) if open_i and open_j else ()
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


def _explicit_work(m: int, s: int) -> int:
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
    block = _term_count(m, m + (1 << e))
    live = 1 if s == sigma else min(m, (sigma - 1) << e) + 1
    return block + (sigma - 2) * block * live + (s - sigma) * _term_count(m, m)


def explicit_witness(m: int, s: int) -> Witness | None:
    """Best closed-form witness available from the dyadic shape of m.

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
    UndeterminedError before its factors are built.  The witness is
    verified before being returned; a verification failure is a defect,
    not a data condition.
    """
    if m < 1 or s < 2:
        raise ValueError("need m >= 1 and s >= 2")
    _check_work(m, s, _explicit_work(m, s))
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
    if not verify_witness(w):
        raise InvariantViolationError(
            f"explicit witness for (m={m}, s={s}) failed ring verification; "
            "this is a bug")
    return w


class GapProbe(Record):
    """The gap sequence g(s) = s*m - zcl for s = 2..s_max.

    The sequence is nonincreasing and nonnegative (each extra variable adds
    a factor (x_1 + x_(s+1))^m to any nonzero product); reached_stable
    records whether the last value equals 2^e - 1, the known stable value.
    """

    __slots__ = ("m", "s_max", "zcl_values", "g_values", "stable_gap",
                 "reached_stable")

    def __init__(self, m: int, s_max: int, zcl_values: tuple[int, ...],
                 g_values: tuple[int, ...], stable_gap: int, reached_stable: bool):
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "s_max", s_max)
        object.__setattr__(self, "zcl_values", zcl_values)
        object.__setattr__(self, "g_values", g_values)
        object.__setattr__(self, "stable_gap", stable_gap)
        object.__setattr__(self, "reached_stable", reached_stable)

    def as_dict(self) -> dict:
        return {"m": self.m, "s_max": self.s_max,
                "zcl": list(self.zcl_values), "g": list(self.g_values),
                "stable_gap": self.stable_gap,
                "reached_stable": self.reached_stable}


def g_stabilization_probe(m: int, s_max: int) -> GapProbe:
    """Exact gap sequence over s = 2..s_max from one DP pass, with
    monotonicity asserted.

    zcl(m, s) = (s-1)*m + H[s-1][m] for every s at once, since the rows of
    _gain_rows for s_max also serve every smaller s.
    """
    if s_max < 2:
        raise ValueError("need s_max >= 2")
    _check_cells(m, s_max)
    rows = _gain_rows(m, s_max - 1)
    gs = tuple(m - rows[min(s - 1, len(rows) - 1)][m]
               for s in range(2, s_max + 1))
    for a, b in zip(gs, gs[1:]):
        if b > a:
            raise InvariantViolationError(
                f"gap sequence for m={m} increased: {gs}; this is a bug")
    if gs[-1] < 0:
        raise InvariantViolationError(f"negative gap for m={m}: {gs}")
    stable = (1 << trailing_ones(m)) - 1
    zcls = tuple(s * m - g for s, g in zip(range(2, s_max + 1), gs))
    return GapProbe(m, s_max, zcls, gs, stable, gs[-1] == stable)
