"""Bound tables for the motion-planning complexity of (RP^m)^s.

For each (m, s) the chain  s*m >= TC_s >= secat >= zcl  is populated with
the exact zcl and, where one of the quotable sources applies, the known TC
value.  The table never invents TC numbers: the only sources are the Hopf
dimensions m in {1, 3, 7} (TC = m(s-1)) and even m with s > m (the chain
collapses to s*m).

Rows serialize deterministically (JSON lines or CSV ordered by (m, s));
computed values can be persisted in an append-only JSON-lines cache.  The
rows of one table parse each of its lines once, and every lookup
re-verifies its entry by verify_witness, which multiplies out the factors'
terms: a factor that alone uses a variable gives one term, the others a
sparse product.  Every witness a row computes is checked the same way, in
one pass, as each of its factors alone uses its x_i.  Neither check builds
the ring, so no row is refused for the size of
(m+1)^s; a row is skipped only when its charge, the check's bound for its
witness (cuplength._check_cells), is over MAX_DP_CELLS.  Each row is
charged, computed and checked on its own.
"""

from __future__ import annotations

import json
import time
import warnings

from .cuplength import Witness, _check_cells, verify_witness, zcl_exact
from .errors import InvariantViolationError, Record, UndeterminedError, charge
from .ring import RingSpec, monomial_from_text

ENGINE_VERSION = "1"
"""Bumped whenever the search criterion or witness format changes; cache
entries from other versions are ignored."""

METHOD_EXACT = "exact"
METHOD_WITNESS = "witness_lower_bound"

SOURCE_HOPF = "hopf"
SOURCE_EVEN = "even-stable"


def known_tc(m: int, s: int) -> tuple[int, str] | None:
    """Known exact TC value with its source tag, or None.

    Only quotable claims are used: m in {1, 3, 7} gives m(s-1) ("hopf"),
    and even m with s > m gives s*m ("even-stable", the collapsed chain).
    """
    if m in (1, 3, 7):
        return m * (s - 1), SOURCE_HOPF
    if m % 2 == 0 and s > m:
        return s * m, SOURCE_EVEN
    return None


class BoundsRow(Record):
    """One (m, s) row of the bound table.

    upper is the trivial bound s*m; zcl carries its method tag; known_tc is
    None unless a quotable source applies.  equality means zcl == upper, in
    which case the whole chain collapses (even when zcl is only a lower
    bound, since it is then squeezed).  secat itself is never computed, only
    bracketed by [zcl, upper].
    """

    __slots__ = ("m", "s", "upper", "zcl", "zcl_method", "known_tc",
                 "tc_source", "equality")

    def validate(self) -> None:
        if self.upper != self.m * self.s:
            raise InvariantViolationError(f"row ({self.m},{self.s}): bad upper bound")
        if not 0 <= self.zcl <= self.upper:
            raise InvariantViolationError(
                f"row ({self.m},{self.s}): zcl {self.zcl} outside [0, {self.upper}]")
        if self.known_tc is not None and not (
                self.zcl <= self.known_tc <= self.upper):
            raise InvariantViolationError(
                f"row ({self.m},{self.s}): chain zcl <= TC <= s*m violated: "
                f"{self.zcl} <= {self.known_tc} <= {self.upper}")
        if self.equality != (self.zcl == self.upper):
            raise InvariantViolationError(
                f"row ({self.m},{self.s}): equality flag inconsistent")

    def as_dict(self) -> dict:
        return {"m": self.m, "s": self.s, "upper": self.upper, "zcl": self.zcl,
                "zcl_method": self.zcl_method, "known_tc": self.known_tc,
                "tc_source": self.tc_source, "equality": self.equality}


# -- result cache ---------------------------------------------------------------

class CacheEntry(Record):
    """One cached zcl computation; the witness re-verifies on load."""

    __slots__ = ("m", "s", "zcl", "method", "witness", "engine_version",
                 "timestamp")


def _entry_to_json(entry: CacheEntry) -> str:
    return json.dumps({
        "m": entry.m, "s": entry.s, "zcl": entry.zcl, "method": entry.method,
        "witness": entry.witness.as_dict(),
        "engine_version": entry.engine_version,
        "timestamp": entry.timestamp,
    }, separators=(",", ":"))


def _entry_from_json(line: str) -> CacheEntry:
    """The entry of one cache line; ValueError, KeyError or TypeError when
    the line is corrupt.

    A line with more than s*m factors is corrupt: every factor has degree at
    least 1 and a product of degree above s*m vanishes in A(m, s), so such a
    witness cannot verify.  It is refused before its factors are read.
    """
    raw = json.loads(line)
    m, s = int(raw["m"]), int(raw["s"])
    spec = RingSpec(m, s)  # m >= 1 and s >= 2; no size cap
    raw_factors = raw["witness"]["factors"]
    if len(raw_factors) > s * m:
        raise ValueError(f"{len(raw_factors)} factors, over s*m = {s * m}")
    factors = tuple((int(i), int(j), int(e)) for i, j, e in raw_factors)
    certificate = monomial_from_text(spec, raw["witness"]["certificate"])
    witness = Witness(m, s, factors, certificate)
    return CacheEntry(m, s, int(raw["zcl"]), str(raw["method"]), witness,
                      str(raw["engine_version"]), float(raw["timestamp"]))


def cache_put(path: str, m: int, s: int, zcl: int, method: str,
              witness: Witness) -> CacheEntry:
    """Append one entry; whole-line writes keep concurrent appends intact."""
    entry = CacheEntry(m, s, zcl, method, witness, ENGINE_VERSION, time.time())
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(_entry_to_json(entry) + "\n")
    return entry


# The cache file parsed last: its path, the text of its complete lines and
# their (line number, entry or None).  It holds only what that text
# determines, and is replaced whole, never changed in place, so a lookup
# sees what a fresh parse would, without repeating a corrupt line's warning.
_parsed: tuple[str, str, list[tuple[int, CacheEntry | None]]] = ("", "", [])


def _parse_line(path: str, n: int, line: str) -> CacheEntry | None:
    """The entry on line n, or None for a blank line or, with a warning, a
    corrupt one."""
    if not line.strip():
        return None
    try:
        # a byte that is not UTF-8 was read as a lone surrogate (see
        # _cached_lines); decoding the line's bytes again raises on it
        return _entry_from_json(
            line.encode("utf-8", "surrogateescape").decode("utf-8"))
    except (ValueError, KeyError, TypeError) as exc:
        warnings.warn(f"{path}:{n}: skipping corrupt cache line ({exc})")
        return None


def _cached_lines(path: str, m: int, s: int) -> list[tuple[int, CacheEntry]]:
    """(line number, entry) for every readable line of (m, s), in file order.

    The file is read whole on every call, but while it is the file parsed
    last and the text parsed then is a prefix of it, only the complete lines
    after that prefix are parsed.  So the rows of one table parse each line
    once, and see the lines that cache_put or another process appends
    meanwhile.  A last line without its newline is parsed on every call.
    """
    global _parsed
    try:
        with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
            text = fh.read()
    except FileNotFoundError:
        return []
    end = text.rfind("\n") + 1
    parsed_path, seen, lines = _parsed
    if parsed_path != path or not text.startswith(seen):
        seen, lines = "", []
    lines = lines + [(n, _parse_line(path, n, line)) for n, line in enumerate(
        text[len(seen):end].split("\n")[:-1], len(lines) + 1)]
    _parsed = (path, text[:end], lines)
    last = (len(lines) + 1, _parse_line(path, len(lines) + 1, text[end:]))
    return [(n, entry) for n, entry in lines + [last]
            if entry is not None and (entry.m, entry.s) == (m, s)]


def cache_get(path: str, m: int, s: int) -> CacheEntry | None:
    """Newest verified exact entry for (m, s) at the current engine version.

    Corrupt lines are skipped with a warning when they are parsed (see
    _cached_lines for when that is).  Lines of method witness_lower_bound,
    which only the retired witness-only policy of report wrote, are passed
    over silently.  An entry whose method is unknown, whose zcl is not its
    witness length, or whose witness fails re-verification by
    verify_witness or is over its work cap is distrusted (warning, then
    older entries are tried), so every cached zcl is certified as a lower
    bound.  The witness is re-verified on every lookup.  That an entry is
    maximal is taken on trust: checking it would rerun zcl_exact, the work
    a cache hit exists to skip.  Anything else -- absent file, no matching
    key, version mismatch -- is simply a miss.
    """
    matches = [(n, entry) for n, entry in _cached_lines(path, m, s)
               if entry.engine_version == ENGINE_VERSION
               and entry.method != METHOD_WITNESS]
    for n, entry in reversed(matches):
        if entry.method != METHOD_EXACT:
            warnings.warn(f"{path}:{n}: unknown cached method {entry.method!r}")
            continue
        if entry.zcl != entry.witness.length:
            warnings.warn(f"{path}:{n}: cached zcl does not match witness length")
            continue
        try:
            verified = verify_witness(entry.witness)
        except UndeterminedError as exc:
            warnings.warn(f"{path}:{n}: cached witness not re-verified ({exc})")
            continue
        if verified:
            return entry
        warnings.warn(f"{path}:{n}: cached witness failed re-verification")
    return None


# -- row construction ------------------------------------------------------------

def build_row(m: int, s: int, *, cache_path: str | None = None) -> BoundsRow:
    """Compute one table row: the exact zcl by the digit greedy of
    zcl_exact, its witness additionally re-verified by verify_witness,
    through sparse ring arithmetic (a disagreement would be a bug and
    raises).  A cached entry is used when cache_get finds one, which is
    always exact.  A charge over MAX_DP_CELLS raises UndeterminedError
    before the cache is read or any work is done.  zcl_exact takes the
    charge; a cache lookup takes it first, so only a row missing from the
    cache is charged twice.
    """
    entry = None
    if cache_path is not None:
        _check_cells(m, s)
        entry = cache_get(cache_path, m, s)
    if entry is not None:
        zcl = entry.zcl
    else:
        result = zcl_exact(m, s)
        if not verify_witness(result.witness):
            raise InvariantViolationError(
                f"criterion and ring disagree on the ({m},{s}) witness; "
                "this is a bug")
        zcl = result.value
        if cache_path is not None:
            cache_put(cache_path, m, s, zcl, METHOD_EXACT, result.witness)

    tc, source = known_tc(m, s) or (None, None)
    row = BoundsRow(m, s, s * m, zcl, METHOD_EXACT, tc, source, zcl == s * m)
    row.validate()
    return row


def build_table(m_range: tuple[int, int], s_range: tuple[int, int], *,
                cache_path: str | None = None,
                ) -> tuple[list[BoundsRow], list[tuple[int, int, str]]]:
    """All rows over inclusive ranges.  A row whose charge is over the cap
    (see build_row) is skipped and reported as (m, s, reason) instead of
    aborting the table.  A grid of more rows than MAX_DP_CELLS
    raises UndeterminedError before any row."""
    (a, b), (c, d) = m_range, s_range
    charge(max(0, b - a + 1) * max(0, d - c + 1),
           "table({}..{},{}..{}): the grid has {work} rows", a, b, c, d)
    rows, skipped = [], []
    for m in range(m_range[0], m_range[1] + 1):
        for s in range(s_range[0], s_range[1] + 1):
            try:
                rows.append(build_row(m, s, cache_path=cache_path))
            except UndeterminedError as exc:
                skipped.append((m, s, str(exc)))
    return rows, skipped


# -- emission ---------------------------------------------------------------------

CSV_HEADER = "m,s,upper,zcl,zcl_method,known_tc,tc_source,equality"


def emit(rows: list[BoundsRow], fmt: str = "json") -> bytes:
    """Serialize rows ordered by (m, s); byte-identical across runs.

    JSON output is one object per line; CSV uses the fixed header above with
    empty fields for absent values and lowercase booleans.
    """
    ordered = sorted(rows, key=lambda r: (r.m, r.s))
    for row in ordered:
        row.validate()
    if fmt == "json":
        body = "".join(json.dumps(r.as_dict(), separators=(",", ":")) + "\n"
                       for r in ordered)
        return body.encode()
    if fmt == "csv":
        lines = [CSV_HEADER]
        for r in ordered:
            lines.append(",".join([
                str(r.m), str(r.s), str(r.upper), str(r.zcl), r.zcl_method,
                "" if r.known_tc is None else str(r.known_tc),
                "" if r.tc_source is None else r.tc_source,
                "true" if r.equality else "false",
            ]))
        return ("\n".join(lines) + "\n").encode()
    raise ValueError(f"unknown format {fmt!r}")
