"""Zero-divisor cup-length of (RP^m)^s: exact digit greedy, certified witnesses.

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
multiplies the factors' terms out, without building the ring.

Because the criterion is additive, the longest nonzero word is a
multiple-choice knapsack (Kellerer-Pferschy-Pisinger, Knapsack Problems,
ch. 11): s-1 positions, each taking an exponent b of weight f(b) (its
minimal residue) against the capacity m and adding b - m to the length
(s-1)*m.  With L = m.bit_length() and C = ~m & (2^L - 1), the zero digits
of m below its top one, the knapsack reduces to a digit greedy:

* An exponent b <= m has residue 0 and adds b - m <= 0, so b = m is the
  best of them; b > 2m kills the word.  For m < b <= 2m let t be the
  largest submask of b at most m.  When b lacks a bit of m, the highest
  one h, t keeps m's bits above h and all of b's below it; otherwise
  t = m.  Either way f(b) = b - t is made of bits b has and m lacks.  When
  f(b) <= m those bits lie below L, so f(b) is a submask of C, and
  f(b) >= b - m as t <= m.  The exponent m + f(b) = m | f(b) has t = m, so
  its residue f(b) equals its gain: it dominates b.  Hence H(p, r), the
  largest gain of p exponents within residue budget r, is the largest sum
  of p submasks of C that is at most r.
* Such sums are exactly sum_j a_j 2^j over the bits j of C with
  0 <= a_j <= p (the i-th submask takes bit j when i < a_j), and the
  greedy a_j = min(p, rest >> j), from C's top bit down, maximizes it.
  Exchange argument: where an optimum first takes fewer copies of 2^j
  than the greedy, its lower terms are smaller powers of 2, each dividing
  2^j.  If they sum to 2^j or more, a prefix of them in decreasing order
  sums to exactly 2^j and one more 2^j replaces it; otherwise one more
  2^j replaces them all and stays within r.  Either way the optimum moves
  towards the greedy without getting worse.

So zcl(m, s) = (s-1)*m + H(s-1, m) (see _gain): p = 1 gives
zcl(m, 2) = m + C = 2^L - 1, and every sum is a multiple of 2^e,
e = trailing_ones(m), the lowest bit of C, so the gap s*m - zcl never
falls below 2^e - 1, the stable gap that large s reach.  zcl_exact reads
its witness off the greedy's digits as at most L+1 runs of equal factors,
which word_nonzero and verify_witness each take in one step per run.  It
is charged 2*(s-1) steps (MAX_DP_CELLS) up front, never part-way through.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Sequence
from itertools import chain, repeat
from operator import mul

from .errors import MAX_DP_CELLS, InvariantViolationError, Record, charge
from .parity import trailing_ones
from .ring import monomial_to_text

_NEEDS = "zcl({},{}): the search needs {work} steps"
_REACHES = "witness({},{}): the check's work bound reaches {work} term products"


def _check_cells(m: int, s: int) -> None:
    """Raise unless m >= 1, s >= 2 and zcl_exact's charge for (m, s) fits
    MAX_DP_CELLS: 2*(s-1) steps, two per factor of its witness as printed
    (a row builds and checks it in runs).  For m >= MAX_DP_CELLS the charge
    is (s-1)*(m+1), always over the cap, so the greedy never runs on a huge
    m.  Either way a shape over the cap raises UndeterminedError first.
    """
    if m < 1 or s < 2:
        raise ValueError("need m >= 1 and s >= 2")
    if m >= MAX_DP_CELLS:
        charge((s - 1) * (m + 1), _NEEDS, m, s)
    charge(2 * (s - 1), _NEEDS, m, s)


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


def _digits(m: int, parts: int, budget: int) -> list[tuple[int, int]]:
    """The digit greedy of the module docstring: (a_j, 2^j) for the bits j
    of C from the top down, a_j = min(parts, rest >> j), until the budget
    is spent; the bits not listed take no copies."""
    digits, rest, free = [], budget, ~m & ((1 << m.bit_length()) - 1)
    while free and rest:
        j = free.bit_length() - 1
        copies = min(parts, rest >> j)
        digits.append((copies, 1 << j))
        rest -= copies << j
        free ^= 1 << j
    return digits


def _gain(m: int, parts: int, budget: int) -> int:
    """H(parts, budget): the largest sum of parts submasks of C at most
    budget, summed from _digits."""
    return sum(copies * bit for copies, bit in _digits(m, parts, budget))


def word_nonzero(m: int, s: int, exponents: Sequence[int],
                 counts: Sequence[int] | None = None,
                 ) -> tuple[bool, tuple[int, ...] | None]:
    """Decide whether prod_i (x_i + x_s)^b_i is nonzero in A(m, s).

    exponents[i-1] is the number of copies of (x_i + x_s): s-1 of them, each
    in [0, 2m], summing to at most s*m; anything else raises ValueError.
    Given counts, exponents[k] stands for a run of counts[k] equal entries,
    taken in one step.  Returns (True, certificate-exponent-vector) or
    (False, None).  The certificate is the surviving basis monomial built
    from the minimal residues, x_1^j_1 ... x_s^(total residue).
    """
    exponents = tuple(exponents)
    counts = (1,) * len(exponents) if counts is None else tuple(counts)
    if m < 1 or s < 2:
        raise ValueError("need m >= 1 and s >= 2")
    if sum(counts) != s - 1:
        raise ValueError(f"expected {s - 1} exponents, got {sum(counts)}")
    for b in exponents:
        if not 0 <= b <= 2 * m:
            raise ValueError(f"factor exponent {b} outside [0, {2 * m}]")
    length = sum(map(mul, exponents, counts))
    if length > s * m:
        raise ValueError(f"word length {length} exceeds the top degree {s * m}")
    # the least residue leaves the largest submask at most m (b if b <= m)
    kept = [_largest_submask(b, m) for b in exponents]
    total = length - sum(map(mul, kept, counts))
    if total > m:
        return False, None
    return True, (*chain.from_iterable(map(repeat, kept, counts)), total)


class Witness(Record):
    """A product of binomial factors with a surviving basis monomial.

    factors: multiset of (i, j, exponent) encoding (x_i + x_j)^exponent with
    1 <= i < j <= s, held as its maximal runs (i, j, e, n), each standing
    for (x_i + x_j)^e ... (x_(i+n-1) + x_j)^e.  certificate: the exponent
    vector of a basis monomial asserted to occur in the fully expanded,
    truncated product; checked by verify_witness via plain ring arithmetic.
    Equality, hash, repr and pickling read the factors spelled out and the
    certificate as tuples, however they are passed in.
    """

    __slots__ = ("m", "s", "runs", "certificate")
    _fields = ("m", "s", "factors", "certificate")

    def __init__(self, m: int, s: int, factors: tuple[tuple[int, int, int], ...],
                 certificate: tuple[int, ...]):
        if not isinstance(m, int):
            raise ValueError(f"m {m!r} is not an integer")
        if not isinstance(s, int):
            raise ValueError(f"s {s!r} is not an integer")
        runs, pi, pj, pe = [], 0, 0, 0
        for i, j, e in tuple(map(tuple, factors)):
            for index in (i, j):
                if not isinstance(index, int):
                    raise ValueError(f"factor index {index!r} is not an integer")
            if not isinstance(e, int):
                raise ValueError(f"factor exponent {e!r} is not an integer")
            if not 1 <= i < j <= s:
                raise ValueError(f"factor indices ({i},{j}) need 1 <= i < j <= {s}")
            if e < 1:
                raise ValueError(f"factor exponent {e} must be >= 1")
            if i != pi + 1 or j != pj or e != pe:  # a new run
                runs.append([i, j, e, 0])
            runs[-1][3], pi, pj, pe = runs[-1][3] + 1, i, j, e
        certificate = tuple(certificate)
        if len(certificate) != s:
            raise ValueError("certificate length differs from s")
        for e in certificate:
            if not isinstance(e, int):
                raise ValueError(f"certificate exponent {e!r} is not an integer")
            if not 0 <= e <= m:
                raise ValueError(f"certificate exponent {e} outside [0, {m}]")
        super().__init__(m, s, tuple(map(tuple, runs)), certificate)

    @property
    def factors(self) -> tuple[tuple[int, int, int], ...]:
        return tuple([(i + k, j, e) for i, j, e, n in self.runs for k in range(n)])

    @property
    def length(self) -> int:
        """Number of zero-divisor factors counted with multiplicity."""
        return sum(e * n for _, _, e, n in self.runs)

    @property
    def certificate_text(self) -> str:
        return monomial_to_text(self.certificate)

    def as_dict(self) -> dict:
        return {"factors": [list(f) for f in self.factors],
                "certificate": self.certificate_text}


class ZclResult(Record):
    """A zcl value with its provenance and certifying witness.

    method "exact", the one method zcl_exact gives, asserts both
    directions: the witness product is nonzero and the greedy found no
    longer nonzero word.
    """

    __slots__ = ("m", "s", "value", "method", "witness")

    @property
    def g(self) -> int:
        """Gap s*m - value between the top degree and the cup-length."""
        return self.s * self.m - self.value


def zcl_exact(m: int, s: int) -> ZclResult:
    """Exact zero-divisor cup-length by the digit greedy.

    The witness is read off the greedy's digits a_j for H(s-1, m) (see
    _digits), as in the second lemma of the module docstring: position i,
    for 0 <= i < s-1, takes m | x_i, where x_i is the sum of 2^j over the j
    with i < a_j.  Each x_i is a submask of C, so it is that entry's
    residue, and the x_i sum to H(s-1, m) <= m: the word is nonzero and its
    length (s-1)*m + H(s-1, m) is the value.  x_i shrinks as i grows, so
    built from the last position to the first the word is sorted ascending
    in at most L+1 runs of equal entries, the witness's runs: no factor is
    spelled out.  One word_nonzero call on the runs gives the certificate,
    so the greedy is checked against the criterion it optimizes.
    """
    _check_cells(m, s)
    runs, x, top = [], 0, s - 1
    for copies, bit in sorted(_digits(m, s - 1, m), reverse=True) + [(0, 0)]:
        if top > copies:  # positions copies..top-1, from the end, take m | x
            runs.append((s - top, s, m | x, top - copies))
        x, top = x | bit, copies
    _, _, word, counts = zip(*runs)
    ok, certificate = word_nonzero(m, s, word, counts)
    if not ok:
        raise InvariantViolationError(
            f"zcl({m},{s}): the greedy's runs {runs} are zero; this is a bug")
    witness = Witness.__new__(Witness)  # built, not parsed: no check per factor
    Record.__init__(witness, m, s, tuple(runs), certificate)
    return ZclResult(m, s, sum(map(mul, word, counts)), "exact", witness)


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


def _work_bound(m: int, factors, target, uses) -> int:
    """verify_witness's bound on the steps of its set product over factors
    towards target, summed up to the first factor that takes it past
    MAX_DP_CELLS (see there).  uses is (first, last): for each variable,
    the index of the first and of the last factor that uses it."""
    first, last = uses
    work, sizes = 0, {}
    for n, (i, j, e) in enumerate(factors):
        count = _term_count(m, e)
        if not count:
            break
        live = math.prod(sizes.values()) // max(sizes.values(), default=1)
        work += live * (count if last[i] > n and last[j] > n else 1)
        if work > MAX_DP_CELLS:
            break
        for v in (i, j):
            if last[v] == n:
                sizes.pop(v, None)
            elif first[v] == n and target[v - 1]:
                sizes[v] = target[v - 1] + 1
    return work


def verify_witness(w: Witness) -> bool:
    """Check a witness by plain ring arithmetic: multiply the factor powers
    and test the certificate monomial's coefficient.

    Independent of word_nonzero -- this is the oracle that cross-validates
    the combinatorial criterion.  Each factor's terms come from the closed
    form of (x_i + x_j)^k (see _binomial_terms).  The truncation
    x_i^(m+1) = 0 never bites, as the certificate C's exponents are at most
    m, so no ring is built.

    First each factor that alone uses one of its variables, x_v, is
    multiplied out on its own.  The other factors have no x_v, so of its
    terms only x_v^(C_v) x_u^(k - C_v), u its other variable, can reach C.
    When that term is missing (C(k, C_v) even, or an exponent over m), or
    k - C_v exceeds what is left of C_u, the coefficient of C is 0;
    otherwise it is the coefficient of the target with C_v cut to 0 and C_u
    lowered by k - C_v in the product of the other factors, as multiplying
    by one monomial is injective on monomials.  While the runs' x_i rise,
    a run's x_i below every x_j are each used by one factor alone: with C
    one exponent on them, the run takes this step once for its n factors.
    Other runs go factor by factor.  A variable no factor uses must have
    exponent 0 in C.

    The factors left are multiplied as sets of exponent vectors, each new
    term cancelling an equal one mod 2, keeping only the terms that can
    still reach the target: a term must divide it, as exponents only grow,
    and once the last factor using a variable is multiplied in, its
    exponent there must be the target's.  So a term is kept over the open
    variables alone, those used by an earlier factor and by a later one.

    The set product's steps are bounded from the factors and target left
    before it starts, and over MAX_DP_CELLS raise UndeterminedError: every
    term before a factor has the same total degree, so with k open
    variables at most the product of C_v + 1 over all but the largest of
    them are live.  A factor that closes a variable tries one exponent per
    live term, one that leaves both open all its terms.  A factor with no
    term ends the product and the bound.  A zcl_exact witness takes one
    step per run and leaves the set product nothing.
    """
    m, cert, runs = w.m, w.certificate, w.runs
    rising = all(a[0] + a[3] <= b[0] for a, b in zip(runs, runs[1:]))
    low = min([run[1] for run in runs]) if rising and runs else 0
    users, target, spent, by_factor, factors = {}, {}, 0, [], []
    for i, j, e, n in runs:
        t = cert[i - 1]
        if i + n <= low and cert[i - 1:i - 1 + n].count(t) == n:
            target[j - 1] = target.get(j - 1, cert[j - 1]) - n * (e - t)
            if e & t != t or not e - m <= t <= m or target[j - 1] < 0:
                return False  # one step for the run's n factors
            # spent: C on the run's x_i, n*t, and what it took off C_j
            users[j], spent = users.get(j, 0) + n, spent + n * e
            continue
        for i in range(i, i + n):
            by_factor.append((i, j, e))
            for v in (i, j):
                users[v] = users.get(v, 0) + 1
                target.setdefault(v - 1, cert[v - 1])
    if sum(target.values()) + spent != sum(cert):  # C on an unused x_v
        return False
    for i, j, e in by_factor:
        v, u = (i, j) if users[i] == 1 else (j, i)
        if users[v] != 1:
            factors.append((i, j, e))
            continue
        t = target[v - 1]
        if e & t != t or not e - m <= t <= m or e - t > target[u - 1]:
            return False
        target[v - 1], target[u - 1] = 0, target[u - 1] - (e - t)
    if not factors:  # the product is 1
        return not any(target.values())
    first = {v: n for n, f in reversed([*enumerate(factors)]) for v in f[:2]}
    last = {v: n for n, f in enumerate(factors) for v in f[:2]}
    if any(c and v + 1 not in first for v, c in target.items()):
        return False
    charge(_work_bound(m, factors, target, (first, last)), _REACHES, m, w.s)
    layout, terms = (), {()}
    for n, (i, j, e) in enumerate(factors):
        if not _term_count(w.m, e):
            return False
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


class GapProbe(Record):
    """The gap sequence g(s) = s*m - zcl for s = 2..s_max.

    The sequence is nonincreasing and nonnegative (each extra variable adds
    a factor (x_1 + x_(s+1))^m to any nonzero product); reached_stable
    records whether the last value equals 2^e - 1, the known stable value.
    """

    __slots__ = ("m", "s_max", "zcl_values", "g_values", "stable_gap",
                 "reached_stable")

    def as_dict(self) -> dict:
        return {"m": self.m, "s_max": self.s_max,
                "zcl": list(self.zcl_values), "g": list(self.g_values),
                "stable_gap": self.stable_gap,
                "reached_stable": self.reached_stable}


def g_stabilization_probe(m: int, s_max: int) -> GapProbe:
    """Exact gap sequence over s = 2..s_max from the greedy, with
    monotonicity asserted: g(s) = m - H(s-1, m) (see _gain).  H(p, m)
    never falls as p grows and no a_j exceeds m, so the greedy stops at the
    first gap equal to m - H(m, m), its limit, and repeats it."""
    if s_max < 2:
        raise ValueError("need s_max >= 2")
    _check_cells(m, s_max)
    floor, gs = m - _gain(m, m, m), []
    for s in range(2, s_max + 1):
        gs.append(m - _gain(m, s - 1, m))
        if gs[-1] == floor:
            break
    gs = tuple(gs) + (floor,) * (s_max - s)
    for a, b in zip(gs, gs[1:]):
        if b > a:
            raise InvariantViolationError(
                f"gap sequence for m={m} increased: {gs}; this is a bug")
    if gs[-1] < 0:
        raise InvariantViolationError(f"negative gap for m={m}: {gs}")
    stable = (1 << trailing_ones(m)) - 1
    zcls = tuple(s * m - g for s, g in zip(range(2, s_max + 1), gs))
    return GapProbe(m, s_max, zcls, gs, stable, gs[-1] == stable)
