import json
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import pytest

import oracles
import zclrp
import zclrp.cli
from cli_runner import invoke as run
from zclrp import JoinReport


def test_profile():
    result = run("profile", "--m", "12")
    assert result.exit_code == 0
    assert json.loads(result.output) == {"m": 12, "e": 0, "z": 4, "sigma": 13}


def test_zcl_exact():
    result = run("zcl", "exact", "--m", "5", "--s", "3")
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["zcl"] == 14 and payload["g"] == 1
    assert payload["method"] == "exact"
    assert payload["witness"]["factors"] == [[1, 3, 7], [2, 3, 7]]
    assert payload["witness"]["certificate"] == "x1^5*x2^5*x3^4"
    assert payload["elapsed_ms"] >= 0


def test_zcl_exact_budget_exit_code():
    # the DP cell cap is checked before any work, so a huge shape exits at once
    t0 = time.perf_counter()
    result = run("zcl", "exact", "--m", "1000000", "--s", "1000")
    assert time.perf_counter() - t0 < 0.1
    assert result.exit_code == 2
    assert result.stderr.startswith("undetermined:") and "cap" in result.stderr
    assert run("zcl", "probe", "--m", "1000000", "--s-max", "1000").exit_code == 2


def test_zcl_exact_large_shapes():
    # shapes a word enumeration could not finish
    for m, s, zcl, g in [(31, 8, 217, 31), (11, 12, 129, 3), (45, 8, 359, 1)]:
        result = run("zcl", "exact", "--m", str(m), "--s", str(s))
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert (payload["zcl"], payload["g"]) == (zcl, g), (m, s)
    probe = run("zcl", "probe", "--m", "45", "--s-max", "12")
    assert probe.exit_code == 0
    assert json.loads(probe.output)["g"] == [27, 9, 7, 5, 3, 1, 1, 1, 1, 1, 1]


USAGE_ERRORS = [
    ("zcl", "exact", "--m", "x", "--s", "3"),
    ("zcl", "exact", "--m", "3"),
    ("report", "--m-range", "x", "--s-range", "2..3"),
    ("nosuchcommand",),
]

# a group without a subcommand, an abbreviated option (--sam is not
# --samples) and a stray argument
STRICT_USAGE_ERRORS = [
    ("zcl",),
    ("verify", "join", "--s", "3", "--k", "2", "--sam", "5"),
    ("zcl", "exact", "--m", "3", "--s", "3", "extra"),
]

# the ring cap is a constant: --limit-bits is gone from all three commands
# that had it, so passing it is an unknown-option usage error
REMOVED_OPTION_ERRORS = [
    ("zcl", "witness", "--m", "3", "--s", "3", "--limit-bits", "0"),
    ("zcl", "witness", "--m", "3", "--s", "3", "--limit-bits", "-3"),
    ("verify", "generators", "--m", "2", "--s", "2", "--limit-bits", "0"),
    ("verify", "generators", "--m", "2", "--s", "2", "--limit-bits", "-3"),
    ("report", "--m-range", "1..2", "--s-range", "2..3", "--limit-bits", "0"),
    ("report", "--m-range", "1..2", "--s-range", "2..3", "--limit-bits", "-3"),
]


@pytest.mark.parametrize("args", [
    ("profile", "--m", "0"),
    ("zcl", "exact", "--m", "0", "--s", "3"),
    ("zcl", "exact", "--m", "3", "--s", "1"),
    ("zcl", "witness", "--m", "0", "--s", "3"),
    ("zcl", "witness", "--m", "3", "--s", "1"),
    ("zcl", "probe", "--m", "0", "--s-max", "3"),
    ("zcl", "probe", "--m", "3", "--s-max", "1"),
    ("verify", "generators", "--m", "0", "--s", "3"),
    ("verify", "generators", "--m", "2", "--s", "1"),
    ("verify", "generators", "--m", "2", "--s", "3", "--max-degree", "0"),
    ("verify", "join", "--s", "1", "--k", "2"),
    ("verify", "join", "--s", "3", "--k", "-1"),
    ("verify", "join", "--s", "3", "--k", "2", "--samples", "0"),
    ("report", "--m-range", "0..2", "--s-range", "2..3"),
    ("report", "--m-range", "1..2", "--s-range", "1..3"),
    *USAGE_ERRORS,
    ("verify", "generators", "--m", "2", "--s", "2", "--max-degree", "100"),
    ("verify", "generators", "--m", "2", "--s", "2", "--max-degree", "5"),
    *REMOVED_OPTION_ERRORS,
    ("verify", "join", "--s", "200", "--k", "2", "--samples", "5"),
    ("verify", "join", "--s", "2", "--k", "0", "--samples", "1"),
    *STRICT_USAGE_ERRORS,
])
def test_bad_input_exit_code(args):
    result = run(*args)
    assert result.exit_code == 64
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert result.stdout == ""
    lines = result.stderr.splitlines()
    if args in USAGE_ERRORS + REMOVED_OPTION_ERRORS + STRICT_USAGE_ERRORS:
        assert lines[0].startswith("Usage: ") and lines[-1].startswith("Error: ")
    else:
        assert result.stderr.startswith("bad input: ")
        assert len(lines) == 1


def test_bad_input_messages():
    result = run("verify", "generators", "--m", "2", "--s", "2",
                 "--max-degree", "100")
    assert result.stderr == "bad input: --max-degree must be <= s*m = 4, got 100\n"
    result = run("zcl", "witness", "--m", "3", "--s", "1")
    assert result.stderr == "bad input: --s must be >= 2, got 1\n"
    # the top degree itself is fine
    top = run("verify", "generators", "--m", "2", "--s", "2", "--max-degree", "4")
    assert top.exit_code == 0 and len(top.output.splitlines()) == 4


def test_verify_join_samples_rule():
    # checked before any work: 2^199 keys would never finish sampling
    t0 = time.perf_counter()
    result = run("verify", "join", "--s", "200", "--k", "2", "--samples", "5")
    assert time.perf_counter() - t0 < 0.1
    assert result.stderr == "bad input: --samples must be >= 2^(s-1) = 2^199, got 5\n"
    result = run("verify", "join", "--s", "6", "--k", "0", "--samples", "31")
    assert result.stderr == "bad input: --samples must be >= 2^(s-1) = 32, got 31\n"
    # exactly 2^(s-1) samples is enough to run
    assert run("verify", "join", "--s", "2", "--k", "0", "--samples", "2").exit_code == 0


def test_verify_join_missed_keys_exit_undetermined():
    # just above 2^(s-1) samples, random draws often miss a component key;
    # that leaves the run undetermined (exit 2), it is not a bug (exit 1)
    codes = []
    for seed in range(20):
        result = run("verify", "join", "--s", "4", "--k", "2", "--samples", "16",
                     "--seed", str(seed))
        want = oracles.sample_report(4, 2, 16, seed).as_dict()
        assert result.stdout == json.dumps(want, separators=(",", ":")) + "\n"
        found = want["keys_found"]
        if found < 8:
            assert result.exit_code == 2, seed
            assert result.stderr == (f"undetermined: sampled {found} of 8 "
                                     "component keys; raise --samples\n")
        else:
            assert (result.exit_code, result.stderr) == (0, ""), seed
        codes.append(result.exit_code)
    assert sorted(set(codes)) == [0, 2]


@pytest.mark.parametrize("equivariant,segments", [(False, 16), (True, 15), (False, 15)])
def test_verify_join_failed_check_exits_bug_even_with_missed_keys(
        monkeypatch, equivariant, segments):
    report = JoinReport(4, 2, 16, 7, False, segments, equivariant)
    monkeypatch.setattr("zclrp.cli.sample_report", lambda *args, **kwargs: report)
    result = run("verify", "join", "--s", "4", "--k", "2", "--samples", "16")
    assert result.exit_code == 1
    assert result.stderr == "invariant violation: join component checks failed\n"
    assert json.loads(result.stdout) == report.as_dict()


def test_cli_import_leaves_fractions_and_decimal_unloaded():
    # together they cost about 4 ms of start-up, which every command pays;
    # click cost about 31 ms
    src = str(Path(zclrp.__file__).resolve().parents[1])
    code = ("import sys, zclrp.cli; "
            "print(sorted({'click', 'fractions', 'decimal'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.stdout == "[]\n"


def test_help_and_version_exit_zero():
    version = run("--version")
    assert version.exit_code == 0
    assert version.output.endswith(" (pure kernel)\n")
    for args in [("--help",), ("zcl", "--help"), ("zcl", "exact", "--help"),
                 ("report", "--help")]:
        result = run(*args)
        assert result.exit_code == 0 and result.output.startswith("Usage: ")
        assert result.output.count("Usage: ") == 1 and result.stderr == ""
    assert run("--version").output == "zclrp 0.1.0 (pure kernel)\n"


def test_cli_runs_package_functions_through_the_module(monkeypatch):
    # each command looks zcl_exact, build_table, emit and sample_report up in
    # zclrp.cli when it runs, so that rebinding them there is seen
    calls = []

    def record(name):
        real = getattr(zclrp.cli, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        return wrapper

    for name in ("zcl_exact", "build_table", "emit"):
        monkeypatch.setattr(zclrp.cli, name, record(name))
    assert run("zcl", "exact", "--m", "5", "--s", "3").exit_code == 0
    assert calls == ["zcl_exact"]
    result = run("report", "--m-range", "1..3", "--s-range", "2..3")
    assert result.exit_code == 0 and len(result.stdout.splitlines()) == 6
    assert calls == ["zcl_exact", "build_table", "emit"]


def test_report_cache_that_is_a_directory_is_bad_input(tmp_path, monkeypatch):
    # from --cache or from $ZCLRP_CACHE, refused before any row
    args = ("report", "--m-range", "1..2", "--s-range", "2..3")
    flag = run(*args, "--cache", str(tmp_path))
    monkeypatch.setenv("ZCLRP_CACHE", str(tmp_path))
    variable = run(*args)
    for result in (flag, variable):
        assert result.exit_code == 64 and result.stdout == ""
        assert result.stderr == (f"bad input: the cache {str(tmp_path)!r} "
                                 "is a directory\n")
    # --cache wins over the variable
    path = tmp_path / "cache.jsonl"
    assert run(*args, "--cache", str(path)).exit_code == 0
    assert len(path.read_text().splitlines()) == 4


def test_report_cache_in_no_directory_is_bad_input(tmp_path, monkeypatch):
    # an empty path, or a path whose directory does not exist, from --cache
    # or from $ZCLRP_CACHE, is refused before any row is computed
    def no_table(*args, **kwargs):
        raise AssertionError("a row was computed")

    monkeypatch.setattr(zclrp.cli, "build_table", no_table)
    args = ("report", "--m-range", "1..1", "--s-range", "2..2")
    missing = str(tmp_path / "missing" / "x.jsonl")
    under_a_file = tmp_path / "file"
    under_a_file.write_text("")
    cases = [(("--cache", ""), None, "bad input: the cache path is empty\n")]
    for path in (missing, str(under_a_file / "x.jsonl")):
        line = f"bad input: the cache {path!r} is in no existing directory\n"
        cases += [(("--cache", path), None, line), ((), path, line)]
    for flags, variable, line in cases:
        if variable is None:
            monkeypatch.delenv("ZCLRP_CACHE", raising=False)
        else:
            monkeypatch.setenv("ZCLRP_CACHE", variable)
        t0 = time.perf_counter()
        result = run(*args, *flags)
        assert time.perf_counter() - t0 < 0.1
        assert (result.exit_code, result.stdout, result.stderr) == \
            (64, "", line), (flags, variable)
    assert not (tmp_path / "missing").exists()


def test_zcl_witness():
    result = run("zcl", "witness", "--m", "11", "--s", "3")
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["zcl"] == 30 and payload["method"] == "witness_lower_bound"

    absent = run("zcl", "witness", "--m", "5", "--s", "2")
    assert absent.exit_code == 0
    assert json.loads(absent.output)["witness"] is None


def test_zcl_probe():
    result = run("zcl", "probe", "--m", "5", "--s-max", "4")
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["g"] == [3, 1, 1] and payload["reached_stable"]


def test_verify_generators():
    result = run("verify", "generators", "--m", "2", "--s", "3")
    assert result.exit_code == 0
    lines = [json.loads(line) for line in result.output.splitlines()]
    assert [ln["degree"] for ln in lines] == list(range(1, 7))
    assert all(ln["pass"] for ln in lines)
    assert {"degree", "dim_kernel", "dim_ideal", "pass"} == set(lines[0])


def test_verify_join():
    result = run("verify", "join", "--s", "3", "--k", "2", "--samples", "300")
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["keys_found"] == 4 and payload["transitive"]
    assert payload["segment_checks_passed"] == 300


def test_report_csv_deterministic():
    args = ("report", "--m-range", "1..3", "--s-range", "2..3", "--format", "csv")
    a, b = run(*args), run(*args)
    assert a.exit_code == 0 and a.output == b.output
    lines = a.output.splitlines()
    assert lines[0] == "m,s,upper,zcl,zcl_method,known_tc,tc_source,equality"
    assert lines[1] == "1,2,2,1,exact,1,hopf,false"
    assert len(lines) == 7


def test_report_json_chain():
    result = run("report", "--m-range", "1..4", "--s-range", "2..4")
    assert result.exit_code == 0
    for line in result.output.splitlines():
        row = json.loads(line)
        assert row["zcl"] <= row["upper"]
        if row["known_tc"] is not None:
            assert row["zcl"] <= row["known_tc"] <= row["upper"]


def test_report_skips_oversized_rows():
    # the closed-form witness of (1023, 1026) is over the verifier's work
    # cap, that of (1023, 1025) just fits it; no row is refused for the
    # size of (m+1)^s
    result = run("report", "--policy", "witness-only",
                 "--m-range", "1023..1023", "--s-range", "1025..1026")
    assert result.exit_code == 2
    rows = [json.loads(line) for line in result.stdout.splitlines()]
    assert [(r["m"], r["s"]) for r in rows] == [(1023, 1025)]
    assert result.stderr.splitlines() == [
        "skipped (1023,1026): witness(1023,1026): the check's work bound "
        f"reaches 1049600 term products, over the cap of {zclrp.MAX_DP_CELLS}"]


def test_report_emits_rows_past_the_old_ring_cap(tmp_path):
    # 15^6 and 16^6 basis monomials: rows the dense ring used to refuse.
    # Their cache lines load again, without a warning
    path = tmp_path / "cache.jsonl"
    args = ("report", "--m-range", "14..15", "--s-range", "6..6",
            "--cache", str(path))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        first = run(*args)
        second = run(*args)
    assert first.exit_code == 0 and first.stderr == ""
    assert [(json.loads(line)["m"], json.loads(line)["zcl"])
            for line in first.stdout.splitlines()] == [(14, 75), (15, 75)]
    assert second.exit_code == 0 and second.stderr == ""
    assert second.stdout == first.stdout
    assert len(path.read_text().splitlines()) == 2


def test_report_skips_rows_over_the_dp_cap():
    # (1024, 2) needs 1049600 DP cells, just over MAX_DP_CELLS; the rows
    # before it are still emitted
    result = run("report", "--m-range", "1020..1024", "--s-range", "2..2")
    assert result.exit_code == 2
    rows = [json.loads(line) for line in result.stdout.splitlines()]
    assert [(r["m"], r["zcl"]) for r in rows] == \
        [(m, 1023) for m in range(1020, 1024)]
    assert result.stderr.startswith("skipped (1024,2): zcl(1024,2): the DP needs")
    assert len(result.stderr.splitlines()) == 1


@pytest.mark.parametrize("args", [
    ("zcl", "witness", "--m", "1", "--s", "2000000"),
    ("verify", "generators", "--m", "9", "--s", "9"),
])
def test_ring_cap_exit_code(args):
    # refused before any work: the witness's 1999999 factors are never
    # built, and neither is the slice table of 10^9 basis monomials
    t0 = time.perf_counter()
    result = run(*args)
    assert time.perf_counter() - t0 < 0.1
    assert result.exit_code == 2 and result.stdout == ""
    if args[0] == "zcl":
        assert result.stderr == (
            "undetermined: witness(1,2000000): the check's work bound reaches "
            f"3999998 term products, over the cap of {zclrp.MAX_DP_CELLS}\n")
    else:
        assert result.stderr == (
            "undetermined: generators(9,9): the check needs s*(m+1)^s = "
            f"9000000000 steps, over the cap of {zclrp.MAX_DP_CELLS}\n")


@pytest.mark.parametrize("args", [
    ("zcl", "witness", "--m", "1000", "--s", "2000"),
    ("verify", "generators", "--m", "1000", "--s", "2000"),
    ("report", "--m-range", "1000..1000", "--s-range", "2000..2000"),
])
def test_huge_ring_exits_2_with_one_line(args):
    # each command meets its own charge against the one work cap: the
    # verifier's bound, the generators check's s*(m+1)^s (1001^2000 has
    # over 6000 digits, past Python's int-to-str limit, so the charge is
    # given as a power of 2) and the DP size
    t0 = time.perf_counter()
    result = run(*args)
    assert time.perf_counter() - t0 < 0.1
    assert result.exit_code == 2 and result.stdout == ""
    assert len(result.stderr.splitlines()) == 1
    assert result.stderr.endswith({
        "zcl": ": the check's work bound reaches 126063936 term products, "
               f"over the cap of {zclrp.MAX_DP_CELLS}\n",
        "verify": ": the check needs s*(m+1)^s >= 2^18010 steps, over the "
                  f"cap of {zclrp.MAX_DP_CELLS}\n",
        "report": ": the DP needs 48023976 cells, over the cap of "
                  f"{zclrp.MAX_DP_CELLS}\n",
    }[args[0]])


def test_report_grid_over_the_cap_exits_2_before_any_row():
    # 99999999 rows: refused from the ranges alone, where every row past
    # s = 2^19 used to be tried and skipped one by one
    t0 = time.perf_counter()
    result = run("report", "--m-range", "1..1", "--s-range", "2..100000000",
                 "--policy", "witness-only")
    assert time.perf_counter() - t0 < 0.1
    assert result.exit_code == 2 and result.stdout == ""
    assert result.stderr == ("undetermined: table(1..1,2..100000000): the grid "
                             "has 99999999 rows, over the cap of "
                             f"{zclrp.MAX_DP_CELLS}\n")


def test_work_cap_bounds_verify_generators():
    # 18 * 2^18 steps, over MAX_DP_CELLS = 2^20: refused before the slice
    # table of 2^18 basis monomials is built
    t0 = time.perf_counter()
    result = run("verify", "generators", "--m", "1", "--s", "18")
    assert time.perf_counter() - t0 < 0.1
    assert result.exit_code == 2 and result.stdout == ""
    assert result.stderr == ("undetermined: generators(1,18): the check needs "
                             "s*(m+1)^s = 4718592 steps, over the cap of "
                             f"{zclrp.MAX_DP_CELLS}\n")


@pytest.mark.parametrize("s,k,samples,charge", [
    (21, 0, 1 << 20, 9 << 20),        # the fewest samples accepted at s = 21
    (2, 3000000, 2, 6000018),         # two samples of 3000001 levels each
])
def test_work_cap_bounds_verify_join(s, k, samples, charge):
    # samples * (k + 9) is charged before any draw; unbounded, these ran
    # for tens of seconds
    t0 = time.perf_counter()
    result = run("verify", "join", "--s", str(s), "--k", str(k),
                 "--samples", str(samples))
    assert time.perf_counter() - t0 < 0.1
    assert result.exit_code == 2 and result.stdout == ""
    assert result.stderr == (f"undetermined: join({s},{k}): the sampling "
                             f"needs samples*(k+9) = {charge} steps, over the "
                             f"cap of {zclrp.MAX_DP_CELLS}\n")
    # too few samples is bad input, checked before the charge
    result = run("verify", "join", "--s", str(s), "--k", str(k),
                 "--samples", str((1 << s - 1) - 1))
    assert result.exit_code == 64 and result.stdout == ""
    assert result.stderr.startswith("bad input: --samples must be >= 2^(s-1)")


def test_report_with_cache(tmp_path):
    path = tmp_path / "cache.jsonl"
    args = ("report", "--m-range", "2..3", "--s-range", "2..3",
            "--cache", str(path))
    first = run(*args)
    assert first.exit_code == 0
    assert path.exists() and len(path.read_text().splitlines()) == 4
    second = run(*args)
    assert second.exit_code == 0 and second.stdout == first.stdout
    assert len(path.read_text().splitlines()) == 4


def test_report_skips_a_cache_line_with_too_many_factors(tmp_path):
    # 600,000 factors for (2,3), where s*m = 6: corrupt, refused before its
    # factors are read, and the row is the one computed without the line
    path = tmp_path / "cache.jsonl"
    path.write_text(json.dumps(
        {"m": 2, "s": 3, "zcl": 600000, "method": "witness_lower_bound",
         "witness": {"factors": [[1, 3, 1]] * 600000,
                     "certificate": "x1^2*x2^2*x3^2"},
         "engine_version": zclrp.ENGINE_VERSION, "timestamp": 0.0}) + "\n")
    args = ("report", "--m-range", "2..2", "--s-range", "3..3",
            "--policy", "witness-only")
    plain = run(*args)
    t0 = time.perf_counter()
    with pytest.warns(UserWarning, match=":1: skipping corrupt cache line "
                      r"\(600000 factors, over s\*m = 6\)"):
        cached = run(*args, "--cache", str(path))
    assert time.perf_counter() - t0 < 1.0
    assert cached.exit_code == plain.exit_code == 0
    assert cached.stdout == plain.stdout


def test_report_bad_range():
    assert run("report", "--m-range", "3..1", "--s-range", "2..3").exit_code == 64
    assert run("report", "--m-range", "x", "--s-range", "2..3").exit_code == 64
