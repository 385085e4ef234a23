"""Barycentric model of the iterated join of the group (Z/2)^(s-1).

A stage-k join point is a formal convex combination sum_l t_l g_l over
levels l = 0..k, stored as integer weights over a common denominator
(t_l = weight_l / denom, so t_j > 0 is an integer compare and never depends
on float tolerance), with a group label at every positive level: an int
whose bit i-1 is the i-th sign generator.  The group acts diagonally on
labels by XOR, preserving coordinates.  U_j denotes the open set {t_j > 0};
its connected components are indexed by the level-j label, and the label
action is simply transitive on them.
"""

from __future__ import annotations

import math
import random

from .errors import Record, charge

TYPE_CHECKING = False  # read as True by type checkers; typing is not imported
if TYPE_CHECKING:  # annotation only: importing fractions costs start-up time
    from fractions import Fraction

Entry = tuple[int, int | None]

WEIGHT_BITS = 4  # sample_point draws each weight from [1, 2^WEIGHT_BITS]


class JoinPoint(Record):
    """Point of the stage-k join: k+1 entries (weight, label) over denom.

    The coordinate at level l is weight_l / denom: weights are nonnegative
    integers summing to the positive integer denom, reduced by their common
    gcd, and stored as a tuple of (weight, label) tuples however they are
    passed in, so that equal points compare equal and hash alike.  The
    label is an int in [0, 2^(s-1)) exactly at positive weights and None
    elsewhere.
    """

    __slots__ = ("s", "k", "entries", "denom")

    def __init__(self, s: int, k: int, entries: tuple[Entry, ...], denom: int = 1):
        if not isinstance(s, int):
            raise ValueError(f"s {s!r} is not an integer")
        if not isinstance(k, int):
            raise ValueError(f"k {k!r} is not an integer")
        if s < 2:
            raise ValueError("need s >= 2")
        if k < 0:
            raise ValueError("need k >= 0")
        if len(entries) != k + 1:
            raise ValueError(f"expected {k + 1} entries, got {len(entries)}")
        if not isinstance(denom, int):
            raise ValueError(f"denominator {denom!r} is not an integer")
        if denom < 1:
            raise ValueError(f"denominator {denom} is not positive")
        n_keys = 1 << (s - 1)
        total = 0
        for w, g in entries:
            if not isinstance(w, int):
                raise ValueError(f"weight {w!r} is not an integer")
            if w < 0:
                raise ValueError("negative barycentric coordinate")
            if (w > 0) != (g is not None):
                raise ValueError("label must be present exactly at positive coordinates")
            if g is not None:
                if not isinstance(g, int):
                    raise ValueError(f"label {g!r} is not an integer")
                if not 0 <= g < n_keys:
                    raise ValueError(f"label {g} outside [0, 2^{s - 1})")
            total += w
        if total != denom:
            raise ValueError(f"coordinates sum to {total}/{denom}, not 1")
        common = math.gcd(denom, *(w for w, _ in entries))
        entries = tuple((w // common, g) for w, g in entries)
        super().__init__(s, k, entries, denom // common)


# The __set__ of each slot of JoinPoint, in __slots__ order: calling them
# sets a field directly, past the checks of JoinPoint.__init__ and the
# arity check and by-name slot lookups of Record.__init__.
_set_s, _set_k, _set_entries, _set_denom = (
    JoinPoint.__dict__[f].__set__ for f in JoinPoint.__slots__)


def _trusted_point(s: int, k: int, entries: tuple[Entry, ...],
                   denom: int) -> JoinPoint:
    """A JoinPoint from fields its caller built valid and gcd-reduced,
    set through the slot setters without the checks of JoinPoint.__init__.
    It builds every point of verify join: each drawn one (sample_point), q
    moved to p's key (sample_report), each image act makes with a label in
    range, and the routing vertex of segment_in_component.  The orbit and
    the equivariance check read keys from entries and build no point."""
    p = object.__new__(JoinPoint)
    _set_s(p, s)
    _set_k(p, k)
    _set_entries(p, entries)
    _set_denom(p, denom)
    return p


def join_point(s: int, k: int,
               parts: dict[int, tuple[int | Fraction, int]]) -> JoinPoint:
    """Build a JoinPoint from its positive levels only.

    Coordinates are ints or Fractions, read through .numerator and
    .denominator and scaled to integer weights over their least common
    denominator.  A level outside [0, k] or a coordinate without an int
    numerator and denominator raises ValueError.
    """
    for t, _ in parts.values():
        if not (isinstance(getattr(t, "numerator", None), int)
                and isinstance(getattr(t, "denominator", None), int)):
            raise ValueError(f"coordinate {t!r} has no int numerator and denominator")
    denom = math.lcm(*(t.denominator for t, _ in parts.values()))
    entries: list[Entry] = [(0, None)] * (k + 1)
    for level, (t, g) in parts.items():
        if not 0 <= level <= k:
            raise ValueError(f"level {level} outside [0, {k}]")
        entries[level] = (t.numerator * (denom // t.denominator), g)
    return JoinPoint(s, k, tuple(entries), denom)


def vertex(s: int, k: int, level: int, g: int) -> JoinPoint:
    """The vertex point with all weight at one level."""
    return join_point(s, k, {level: (1, g)})


def _acted(g: int, entries: tuple[Entry, ...]) -> tuple[Entry, ...]:
    """The entries of a point moved by the label g: each label XORed with g,
    weights untouched.  act and sample_report's checks move points through
    it, so the group law has one implementation."""
    return tuple([(w, None if h is None else g ^ h) for w, h in entries])


def act(g: int, p: JoinPoint) -> JoinPoint:
    """Diagonal action on labels; coordinates untouched.

    For g in [0, 2^(s-1)) every g ^ label is in range too, so the image is
    built without re-checking p's entries; any other g goes through
    JoinPoint, which raises ValueError naming the first label out of range.
    A g that is not an int raises ValueError before any label is touched.
    """
    if not isinstance(g, int):
        raise ValueError(f"label {g!r} is not an integer")
    entries = _acted(g, p.entries)
    if 0 <= g < 1 << (p.s - 1):
        return _trusted_point(p.s, p.k, entries, p.denom)
    return JoinPoint(p.s, p.k, entries, p.denom)


def in_U(p: JoinPoint, j: int) -> bool:
    """Membership in U_j = {t_j > 0}."""
    if not 0 <= j <= p.k:
        raise ValueError(f"level {j} outside [0, {p.k}]")
    return p.entries[j][0] > 0


def component_key(p: JoinPoint, j: int) -> int:
    """The level-j label; constant on each connected component of U_j."""
    if not in_U(p, j):
        raise ValueError(f"point is not in U_{j}")
    return p.entries[j][1]


def _labels_compatible(p: JoinPoint, q: JoinPoint) -> bool:
    # The straight segment stays inside the join iff no level carries two
    # different labels with positive weight on both ends.
    for (wp, gp), (wq, gq) in zip(p.entries, q.entries):
        if wp > 0 and wq > 0 and gp != gq:
            return False
    return True


def segment_in_component(p: JoinPoint, q: JoinPoint, j: int) -> bool:
    """Exhibit a path from p to q inside U_j.

    The straight barycentric segment works whenever the two label sets agree
    on shared positive levels; otherwise the path routes through the shared
    level-j vertex (p -> vertex -> q), which is always label-compatible with
    both endpoints.  t_j is affine along a segment and positive at its
    ends (p and q lie in U_j, and the vertex has t_j = 1), so each segment
    stays in U_j.  Valid inputs (same component key) must give True; a
    False is a defect.

    Checks, each a ValueError in the words of in_U and component_key: p and
    q are points of the same join (s and k), j is a level in [0, k], both
    points lie in U_j and their level-j keys agree.  The routing vertex is
    built from that key without re-checking it.
    """
    if (p.s, p.k) != (q.s, q.k):
        raise ValueError(f"points of different joins {(p.s, p.k)} and {(q.s, q.k)}")
    if not 0 <= j <= p.k:
        raise ValueError(f"level {j} outside [0, {p.k}]")
    (wp, key), (wq, key_q) = p.entries[j], q.entries[j]
    if not (wp > 0 and wq > 0):
        raise ValueError(f"both points must lie in U_{j}")
    if key_q != key:
        raise ValueError("points have different component keys")
    if _labels_compatible(p, q):
        return True
    entries: list[Entry] = [(0, None)] * (p.k + 1)
    entries[j] = (1, key)
    v = _trusted_point(p.s, p.k, tuple(entries), 1)
    return _labels_compatible(p, v) and _labels_compatible(v, q)


# -- randomized verification --------------------------------------------------

class JoinReport(Record):
    """Outcome of the component-structure checks at one (s, k).

    keys_found counts the keys the group realized by acting on the first
    sampled point.  equivariant, which as_dict leaves out, says whether the
    label action moved every sampled key as the group law predicts.
    transitive is equivariant with the realized keys the whole key set, so
    that one orbit covers every component.
    """

    __slots__ = ("s", "k", "samples", "keys_found", "transitive",
                 "segment_checks_passed", "equivariant")

    def as_dict(self) -> dict:
        return {"s": self.s, "k": self.k, "samples": self.samples,
                "keys_found": self.keys_found, "transitive": self.transitive,
                "segment_checks_passed": self.segment_checks_passed}


def sample_point(rng: random.Random, s: int, k: int, j: int) -> JoinPoint:
    """Random point of U_j: weights in [1, 2^WEIGHT_BITS] at level j and at
    each other level with probability 1/2, over their sum.

    Refuses s < 2, k < 0 and a level j outside [0, k] with ValueError
    before any draw.  Every draw is one rng.getrandbits call of the bits it
    uses: a 1-bit coin per level other than j, then WEIGHT_BITS bits per
    weight (1 plus the draw) and s-1 bits per label, in level order; that
    is k + 2*len(levels) calls.  The drawn weights, divided by their gcd,
    and labels in [0, 2^(s-1)) make a valid reduced point, built here
    through _trusted_point without re-checking; sample_report draws both
    points of every sample here.
    """
    if s < 2:
        raise ValueError("need s >= 2")
    if k < 0:
        raise ValueError("need k >= 0")
    if not 0 <= j <= k:
        raise ValueError(f"level {j} outside [0, {k}]")
    bits = rng.getrandbits
    levels = [l for l in range(k + 1) if l == j or bits(1)]
    weights = [1 + bits(WEIGHT_BITS) for _ in levels]
    common = math.gcd(*weights)
    entries: list[Entry] = [(0, None)] * (k + 1)
    for l, w in zip(levels, weights):
        entries[l] = (w // common, bits(s - 1))
    return _trusted_point(s, k, tuple(entries), sum(weights) // common)


def sample_report(s: int, k: int, samples: int = 1000, seed: int = 0) -> JoinReport:
    """Sample U_j points and check the component structure.

    Realizes the component keys by moving the level-j entry of the first
    sampled point p by every g in [0, 2^(s-1)) through _acted, the action
    act applies entry by entry, and reading each key back; these take no
    draws.  The action is simply transitive when the keys read back are
    all 2^(s-1) of them.  Each sample draws p and q through sample_point,
    checks that p's level-j entry moved by a drawn g has the key the group
    law predicts, moves q to p's key when they differ (the one point built
    here, through _trusted_point) and runs one segment_in_component check.
    Raises ValueError when s < 2, k < 0 or samples < 1, then, before any
    draw, charges (samples+2^(s-1))*(k+9): two points of k+1 levels and a
    fixed 9 per sample, one image per key, with 2^(s-1) built only up to
    2^65, past which the charge is over the cap anyway.  Each sample draws j
    as rng.randrange(k + 1), whose bound is not a power of 2, and g as
    rng.getrandbits(s - 1), between the draws of p and q.
    """
    if s < 2:
        raise ValueError("need s >= 2")
    if k < 0:
        raise ValueError("need k >= 0")
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    charge((samples + (1 << min(s - 1, 65))) * (k + 9),
           "join({},{}): the check needs (samples+2^(s-1))*(k+9) = {work} "
           "steps", s, k)
    rng = random.Random(seed)
    n_keys = 1 << (s - 1)
    first = None
    equivariant = True
    segments_ok = 0
    for _ in range(samples):
        j = rng.randrange(k + 1)
        p = sample_point(rng, s, k, j)
        w, key = p.entries[j]
        if not w > 0:
            raise ValueError(f"point is not in U_{j}")
        if first is None:
            first = p, j
        g = rng.getrandbits(s - 1)
        if _acted(g, p.entries[j:j + 1])[0][1] != g ^ key:
            equivariant = False
        q = sample_point(rng, s, k, j)
        w, key_q = q.entries[j]
        if not w > 0:
            raise ValueError(f"point is not in U_{j}")
        if key_q != key:
            q = _trusted_point(s, k, _acted(key ^ key_q, q.entries), q.denom)
        if segment_in_component(p, q, j):
            segments_ok += 1
    p, j = first
    entry = p.entries[j:j + 1]
    keys = {_acted(g, entry)[0][1] for g in range(n_keys)}
    transitive = equivariant and keys == set(range(n_keys))
    return JoinReport(s, k, samples, len(keys), transitive, segments_ok,
                      equivariant)
