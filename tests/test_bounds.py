import json
import warnings

import pytest

from zclrp import (BoundsRow, InvariantViolationError, UndeterminedError,
                   Witness, build_row, build_table, cache_get, cache_put, emit,
                   known_tc, zcl_exact)
from zclrp import bounds
from zclrp.bounds import CSV_HEADER, ENGINE_VERSION, _entry_to_json

from oracles import explicit_witness


def test_known_tc_sources():
    assert known_tc(1, 5) == (4, "hopf")
    assert known_tc(7, 3) == (14, "hopf")
    assert known_tc(3, 2) == (3, "hopf")
    assert known_tc(2, 3) == (6, "even-stable")
    assert known_tc(4, 5) == (20, "even-stable")
    assert known_tc(2, 2) is None     # s > m required
    assert known_tc(5, 3) is None
    assert known_tc(9, 9) is None


def test_build_row_exact_examples():
    row = build_row(2, 3)
    assert (row.upper, row.zcl, row.known_tc, row.equality) == (6, 6, 6, True)
    assert row.zcl_method == "exact"

    row42 = build_row(4, 2)
    assert (row42.upper, row42.zcl, row42.known_tc, row42.equality) == \
        (8, 7, None, False)


def test_build_row_size_cap(tmp_path):
    # refused by the charge 2*(s-1) before the cache is read: reading a
    # directory would raise IsADirectoryError instead
    with pytest.raises(UndeterminedError,
                       match="the search needs 1199998 steps"):
        build_row(10 ** 6, 600000, cache_path=str(tmp_path))
    # the size of (m+1)^s alone refuses nothing: 10^9 basis monomials
    assert build_row(9, 9, cache_path=str(tmp_path / "c")).zcl == 80


def test_row_validation():
    bad = BoundsRow(m=2, s=3, upper=6, zcl=7, zcl_method="exact",
                    known_tc=None, tc_source=None, equality=False)
    with pytest.raises(InvariantViolationError):
        bad.validate()
    bad_tc = BoundsRow(m=2, s=3, upper=6, zcl=4, zcl_method="exact",
                       known_tc=3, tc_source="hopf", equality=False)
    with pytest.raises(InvariantViolationError):
        bad_tc.validate()
    bad_flag = BoundsRow(m=2, s=3, upper=6, zcl=6, zcl_method="exact",
                         known_tc=6, tc_source="even-stable", equality=False)
    with pytest.raises(InvariantViolationError):
        bad_flag.validate()


def test_emit_csv():
    assert emit([], "csv") == (CSV_HEADER + "\n").encode()
    row = build_row(1, 2)
    body = emit([row], "csv").decode()
    assert body.splitlines() == [CSV_HEADER, "1,2,2,1,exact,1,hopf,false"]


def test_emit_json_lines_are_json_dumps_of_each_row():
    # emit writes each row out by hand; every line is the text json.dumps
    # gives for the row's dict, over rows with every kind of value: known_tc
    # null or a number, tc_source null, "hopf" or "even-stable", and both
    # equality flags, and over a row whose tags need escaping
    rows = [build_row(m, s) for m in range(1, 13) for s in range(2, 7)]
    kinds = {(r.known_tc is None, r.tc_source, r.equality) for r in rows}
    assert {(True, None), (False, "hopf"), (False, "even-stable")} <= {
        k[:2] for k in kinds} and {True, False} <= {k[2] for k in kinds}
    rows.append(BoundsRow(13, 2, 26, 25, 'ex"act\u00e9', 25, "a\\b", False))
    assert emit(rows, "json").decode().splitlines() == [
        json.dumps(r.as_dict(), separators=(",", ":")) for r in rows]


def test_emit_json_and_determinism():
    rows = [build_row(m, s) for m in (1, 2) for s in (2, 3)]
    out1 = emit(rows, "json")
    out2 = emit(list(reversed(rows)), "json")
    assert out1 == out2          # sorted by (m, s), byte-identical
    parsed = [json.loads(line) for line in out1.decode().splitlines()]
    assert [(p["m"], p["s"]) for p in parsed] == [(1, 2), (1, 3), (2, 2), (2, 3)]
    assert parsed[2]["known_tc"] is None and parsed[2]["tc_source"] is None
    assert parsed[3]["equality"] is True
    with pytest.raises(ValueError):
        emit(rows, "yaml")


def test_equality_rows_for_even_m():
    for m, s in [(2, 3), (2, 4), (4, 5)]:
        row = build_row(m, s)
        assert row.equality and row.zcl == m * s, (m, s)


def test_gap_nonincreasing_across_rows():
    for m in range(1, 6):
        gaps = [m * s - build_row(m, s).zcl for s in range(2, 6)]
        assert all(a >= b for a, b in zip(gaps, gaps[1:])), (m, gaps)


def test_build_table_skips_oversized_rows():
    # a row is charged 2*(s-1), so every s past 524289 is over the cap
    # whatever m is, and is skipped before any work; (1023, 1026), over the
    # cap when a row was charged its factors' term counts, is emitted
    rows, skipped = build_table((1, 2), (524290, 524291))
    assert rows == []
    assert [(m, s) for m, s, _ in skipped] == [
        (1, 524290), (1, 524291), (2, 524290), (2, 524291)]
    assert all("over the cap of 1048576" in reason for *_, reason in skipped)
    rows, skipped = build_table((1023, 1024), (1025, 1026))
    assert [(r.m, r.s, r.zcl, r.zcl_method) for r in rows] == [
        (1023, 1025, 1047552, "exact"), (1023, 1026, 1048575, "exact"),
        (1024, 1025, 1049600, "exact"), (1024, 1026, 1050624, "exact")]
    assert skipped == []


def test_build_table_charges_its_row_count_before_any_row(monkeypatch):
    # the grid's (B-A+1)*(D-C+1) rows meet the cap before the first row
    calls = []
    monkeypatch.setattr("zclrp.bounds.build_row",
                        lambda m, s, cache_path=None: calls.append((m, s)))
    monkeypatch.setattr("zclrp.errors.MAX_DP_CELLS", 12)
    rows, skipped = build_table((1, 3), (2, 5))
    assert len(rows) == len(calls) == 12 and skipped == []
    calls.clear()
    with pytest.raises(UndeterminedError, match=r"^table\(1\.\.13,2\.\.2\): "
                       "the grid has 13 rows, over the cap of 12$"):
        build_table((1, 13), (2, 2))
    assert calls == []


# -- cache -----------------------------------------------------------------------

def test_cache_roundtrip(tmp_path):
    path = str(tmp_path / "zcl.jsonl")
    assert cache_get(path, 5, 3) is None
    w = explicit_witness(5, 3)
    cache_put(path, 5, 3, w.length, "exact", w)
    entry = cache_get(path, 5, 3)
    assert entry is not None
    assert (entry.zcl, entry.method) == (14, "exact")
    assert entry.witness == w
    assert cache_get(path, 5, 4) is None


def test_cache_ignores_corrupt_lines(tmp_path):
    path = str(tmp_path / "zcl.jsonl")
    w = explicit_witness(3, 3)
    cache_put(path, 3, 3, w.length, "exact", w)
    with open(path, "a") as fh:
        fh.write("{not json\n")
    with pytest.warns(UserWarning):
        entry = cache_get(path, 3, 3)
    assert entry is not None and entry.zcl == 6


def test_cache_skips_a_line_that_is_not_utf8(tmp_path):
    # an undecodable line is a corrupt line, and the good lines around it,
    # one of them holding a non-ASCII character, are still read
    path = tmp_path / "zcl.jsonl"
    w = explicit_witness(3, 3)
    cache_put(str(path), 3, 3, w.length, "exact", w)
    with open(path, "ab") as fh:
        fh.write(b'\xff\xfe {"m": 3}\n{"m": "\xc3\xa9"}\n')
    cache_put(str(path), 5, 3, 14, "exact", explicit_witness(5, 3))
    with pytest.warns(UserWarning) as record:
        entry = cache_get(str(path), 3, 3)
    assert entry is not None and entry.zcl == 6
    assert [str(r.message) for r in record] == [
        f"{path}:2: skipping corrupt cache line ('utf-8' codec can't decode "
        "byte 0xff in position 0: invalid start byte)",
        f"{path}:3: skipping corrupt cache line (invalid literal for int() "
        "with base 10: 'é')"]
    assert cache_get(str(path), 5, 3).zcl == 14


def test_cache_rejects_failing_witness(tmp_path):
    path = str(tmp_path / "zcl.jsonl")
    # certificate monomial that does not occur in the product
    fake = Witness(2, 3, ((1, 3, 1),), (0, 2, 0))
    cache_put(path, 2, 3, 1, "exact", fake)
    with pytest.warns(UserWarning):
        assert cache_get(path, 2, 3) is None


def test_cache_distrusts_witness_over_the_work_cap(tmp_path):
    # no factor alone uses a variable, and the second one leaves x1 and x3
    # open with 1024 live terms, each times its 1024 terms: the check is
    # refused, so the line is distrusted and the row computed afresh
    path = str(tmp_path / "zcl.jsonl")
    heavy = Witness(1023, 3, ((1, 3, 1), (1, 3, 1023), (1, 3, 1022)),
                    (1023, 0, 1023))
    cache_put(path, 1023, 3, 2046, "exact", heavy)
    with pytest.warns(UserWarning, match="not re-verified .*over the cap"):
        assert cache_get(path, 1023, 3) is None
    with pytest.warns(UserWarning):
        row = build_row(1023, 3, cache_path=path)
    assert (row.zcl, row.zcl_method) == (2046, "exact")


def test_cache_rejects_other_engine_version(tmp_path):
    path = str(tmp_path / "zcl.jsonl")
    w = explicit_witness(3, 3)
    entry = cache_put(path, 3, 3, w.length, "exact", w)
    stale = _entry_to_json(entry).replace(
        f'"engine_version":"{ENGINE_VERSION}"', '"engine_version":"0"')
    with open(path, "w") as fh:
        fh.write(stale + "\n")
    assert cache_get(path, 3, 3) is None


def test_cache_takes_newest_verified(tmp_path):
    path = str(tmp_path / "zcl.jsonl")
    w = explicit_witness(3, 3)
    cache_put(path, 3, 3, w.length, "exact", w)
    fake = Witness(3, 3, ((1, 3, 1),), (0, 0, 2))
    cache_put(path, 3, 3, 1, "exact", fake)
    with pytest.warns(UserWarning):
        entry = cache_get(path, 3, 3)
    assert entry is not None and entry.zcl == 6


def test_cache_rejects_unknown_method(tmp_path):
    path = str(tmp_path / "zcl.jsonl")
    # a valid length-5 witness of (5, 2) under a made-up method and zcl 10;
    # the true zcl(5, 2) is 7
    w = Witness(5, 2, ((1, 2, 5),), (5, 0))
    cache_put(path, 5, 2, 10, "made_up", w)
    with pytest.warns(UserWarning, match="unknown cached method"):
        assert cache_get(path, 5, 2) is None
    with pytest.warns(UserWarning):
        row = build_row(5, 2, cache_path=path)
    assert (row.zcl, row.zcl_method, row.equality) == (7, "exact", False)


def test_cache_rejects_zcl_above_witness_length(tmp_path):
    path = str(tmp_path / "zcl.jsonl")
    w = explicit_witness(5, 3)
    assert w.length == 14
    cache_put(path, 5, 3, 14, "exact", w)
    cache_put(path, 5, 3, 15, "exact", w)
    with pytest.warns(UserWarning, match="does not match witness length"):
        entry = cache_get(path, 5, 3)
    assert entry is not None and entry.zcl == 14   # the older, honest line


def test_build_row_uses_cache(tmp_path):
    path = str(tmp_path / "zcl.jsonl")
    row1 = build_row(5, 3, cache_path=path)
    with open(path) as fh:
        assert len(fh.readlines()) == 1
    row2 = build_row(5, 3, cache_path=path)
    assert row1 == row2
    with open(path) as fh:
        assert len(fh.readlines()) == 1  # cache hit, nothing appended


def test_build_row_passes_over_witness_lower_bound_lines(tmp_path, monkeypatch):
    # only the retired witness-only policy wrote such lines; one after an
    # exact line used to hide it, so the row was searched again and the
    # exact line appended a second time
    path = str(tmp_path / "zcl.jsonl")
    w = explicit_witness(5, 3)
    cache_put(path, 5, 3, w.length, "witness_lower_bound", w)
    assert cache_get(path, 5, 3) is None
    row = build_row(5, 3, cache_path=path)
    cache_put(path, 5, 3, w.length, "witness_lower_bound", w)
    with open(path) as fh:
        before = fh.read()
    assert len(before.splitlines()) == 3
    calls = []
    monkeypatch.setattr(bounds, "zcl_exact", lambda m, s: calls.append((m, s)))
    assert build_row(5, 3, cache_path=path) == row and calls == []
    assert cache_get(path, 5, 3).method == "exact"
    with open(path) as fh:
        assert fh.read() == before


def test_cache_parses_each_line_once(tmp_path, monkeypatch):
    path = str(tmp_path / "zcl.jsonl")
    parsed = []
    parse = bounds._entry_from_json
    monkeypatch.setattr(bounds, "_entry_from_json",
                        lambda line: parsed.append(line) or parse(line))
    first = build_table((1, 3), (2, 3), cache_path=path)
    second = build_table((1, 3), (2, 3), cache_path=path)
    assert first == second and len(first[0]) == 6
    with open(path) as fh:
        assert len(parsed) == len(fh.readlines()) == 6
    assert cache_get(path, 2, 3).zcl == 6
    assert len(parsed) == 6


def test_cache_sees_lines_appended_during_a_table(tmp_path, monkeypatch):
    # while row (5,3) is computed, another writer appends a (5,4) entry:
    # the next row reads it instead of computing zcl(5,4) = 19
    path = str(tmp_path / "zcl.jsonl")
    short = Witness(5, 4, ((1, 4, 5),), (5, 0, 0, 0))

    def exact_and_append(m, s):
        if (m, s) == (5, 3):
            cache_put(path, 5, 4, 5, "exact", short)
        return zcl_exact(m, s)

    monkeypatch.setattr(bounds, "zcl_exact", exact_and_append)
    rows, skipped = build_table((5, 5), (3, 4), cache_path=path)
    assert skipped == []
    assert [(r.s, r.zcl) for r in rows] == [(3, 14), (4, 5)]


def test_cache_rereads_a_rewritten_file(tmp_path):
    path = str(tmp_path / "zcl.jsonl")
    w = explicit_witness(3, 3)
    entry = cache_put(path, 3, 3, w.length, "exact", w)
    assert cache_get(path, 3, 3) == entry
    with open(path, "w") as fh:
        fh.write(_entry_to_json(entry).replace('"zcl":6', '"zcl":7') + "\n")
    with pytest.warns(UserWarning, match="does not match witness length"):
        assert cache_get(path, 3, 3) is None


def test_cache_reads_a_last_line_without_newline(tmp_path):
    path = str(tmp_path / "zcl.jsonl")
    w = explicit_witness(3, 3)
    entry = cache_put(path, 3, 3, w.length, "exact", w)
    with open(path, "w") as fh:
        fh.write(_entry_to_json(entry))
    assert cache_get(path, 3, 3) == entry
    with open(path, "a") as fh:
        fh.write("\n{not json")
    with pytest.warns(UserWarning, match=":2: skipping corrupt cache line"):
        assert cache_get(path, 3, 3) == entry


def test_cache_warning_raised_as_error_parses_nothing(tmp_path):
    # under warnings-as-errors a corrupt line fails every lookup, as it did
    # when each lookup parsed the whole file, and the lines before it are
    # not recorded twice
    path = str(tmp_path / "zcl.jsonl")
    w = explicit_witness(3, 3)
    entry = cache_put(path, 3, 3, w.length, "exact", w)
    with open(path, "a") as fh:
        fh.write("{not json\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for _ in range(2):
            with pytest.raises(UserWarning, match=":2: skipping corrupt"):
                cache_get(path, 3, 3)
    cache_put(path, 3, 3, 1, "exact",
              Witness(3, 3, ((1, 3, 1),), (0, 0, 2)))
    with pytest.warns(UserWarning) as record:
        assert cache_get(path, 3, 3) == entry
    assert [str(r.message).split(": ")[0] for r in record] == \
        [f"{path}:2", f"{path}:3"]
