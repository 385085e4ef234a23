import contextlib
import hashlib
import io
import itertools
import json
import os
import random
import subprocess
import sys
import time
import warnings
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
import zclrp
import zclrp.cli
import zclrp.errors
import zclrp.join_model
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
    # the work cap is checked before the witness is built, so a huge shape
    # exits at once
    t0 = time.perf_counter()
    result = run("zcl", "exact", "--m", "1000000", "--s", "600000")
    assert time.perf_counter() - t0 < 0.1
    assert result.exit_code == 2
    assert result.stderr.startswith("undetermined:") and "cap" in result.stderr
    assert run("zcl", "probe", "--m", "1000000", "--s-max", "600000"
               ).exit_code == 2


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
# --samples), a stray argument, a "--" before a command word (it is not
# dropped: the group reads "--" as its COMMAND) and an option where a group
# wants its COMMAND
STRICT_USAGE_ERRORS = [
    ("zcl",),
    ("verify", "join", "--s", "3", "--k", "2", "--sam", "5"),
    ("zcl", "exact", "--m", "3", "--s", "3", "extra"),
    ("--", "zcl"),
    ("zcl", "--", "exact"),
    ("zcl", "--m", "3"),
]

# the ring cap is a constant: --limit-bits is gone from all three commands
# that had it, so passing it is an unknown-option usage error (zcl witness
# is gone itself, so its lines meet the unknown command first)
REMOVED_OPTION_ERRORS = [
    ("zcl", "witness", "--m", "3", "--s", "3", "--limit-bits", "0"),
    ("zcl", "witness", "--m", "3", "--s", "3", "--limit-bits", "-3"),
    ("verify", "generators", "--m", "2", "--s", "2", "--limit-bits", "0"),
    ("verify", "generators", "--m", "2", "--s", "2", "--limit-bits", "-3"),
    ("report", "--m-range", "1..2", "--s-range", "2..3", "--limit-bits", "0"),
    ("report", "--m-range", "1..2", "--s-range", "2..3", "--limit-bits", "-3"),
]

# zcl witness is gone: its out-of-range lines are unknown-command usage errors
REMOVED_COMMAND_ERRORS = [
    ("zcl", "witness", "--m", "0", "--s", "3"),
    ("zcl", "witness", "--m", "3", "--s", "1"),
]


@pytest.mark.parametrize("args", [
    ("profile", "--m", "0"),
    ("zcl", "exact", "--m", "0", "--s", "3"),
    ("zcl", "exact", "--m", "3", "--s", "1"),
    *REMOVED_COMMAND_ERRORS,
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
    ("verify", "join", "--s", "200", "--k", "2", "--samples", "-5"),
    ("verify", "join", "--s", "2", "--k", "0", "--samples", "0"),
    *STRICT_USAGE_ERRORS,
])
def test_bad_input_exit_code(args):
    result = run(*args)
    assert result.exit_code == 64
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert result.stdout == ""
    lines = result.stderr.splitlines()
    if args in (USAGE_ERRORS + REMOVED_OPTION_ERRORS + STRICT_USAGE_ERRORS
                + REMOVED_COMMAND_ERRORS):
        assert lines[0].startswith("Usage: ") and lines[-1].startswith("Error: ")
    else:
        assert result.stderr.startswith("bad input: ")
        assert len(lines) == 1


def test_bad_input_messages():
    result = run("verify", "generators", "--m", "2", "--s", "2",
                 "--max-degree", "100")
    assert result.stderr == "bad input: --max-degree must be <= s*m = 4, got 100\n"
    result = run("zcl", "exact", "--m", "3", "--s", "1")
    assert result.stderr == "bad input: --s must be >= 2, got 1\n"
    # the top degree itself is fine
    top = run("verify", "generators", "--m", "2", "--s", "2", "--max-degree", "4")
    assert top.exit_code == 0 and len(top.output.splitlines()) == 4


def test_verify_join_samples_rule():
    # one sample is enough, whatever s: the keys come from the group action
    result = run("verify", "join", "--s", "6", "--k", "5", "--samples", "32",
                 "--seed", "1")
    assert (result.exit_code, result.stderr) == (0, "")
    assert json.loads(result.stdout) == {
        "s": 6, "k": 5, "samples": 32, "keys_found": 32, "transitive": True,
        "segment_checks_passed": 32}
    result = run("verify", "join", "--s", "2", "--k", "0", "--samples", "1")
    assert result.exit_code == 0 and json.loads(result.stdout)["keys_found"] == 2
    result = run("verify", "join", "--s", "6", "--k", "0", "--samples", "0")
    assert (result.exit_code, result.stdout) == (64, "")
    assert result.stderr == "bad input: --samples must be >= 1, got 0\n"
    # the orbit of 2^(s-1) keys is charged before any draw, and 2^(s-1)
    # itself is never built
    t0 = time.perf_counter()
    result = run("verify", "join", "--s", "100000000000000000000", "--k", "0",
                 "--samples", "1")
    assert time.perf_counter() - t0 < 0.1
    assert (result.exit_code, result.stdout) == (2, "")
    assert result.stderr == (
        "undetermined: join(<21-digit int>,0): the check needs "
        "(samples+2^(s-1))*(k+9) >= 2^68 steps, over the cap of "
        f"{zclrp.MAX_DP_CELLS}\n")


def test_verify_join_realizes_every_key():
    # 16 samples for 8 keys: sampling alone misses keys in most of these
    # runs, but the group acting on the first point realizes every one, so
    # each run exits 0 with the oracle's draws and checks
    for seed in range(20):
        result = run("verify", "join", "--s", "4", "--k", "2", "--samples", "16",
                     "--seed", str(seed))
        want = oracles.sample_report(4, 2, 16, seed).as_dict()
        want.update(keys_found=8, transitive=True)
        assert (result.exit_code, result.stderr) == (0, ""), seed
        assert result.stdout == json.dumps(want, separators=(",", ":")) + "\n"


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


def test_cli_import_loads_no_dataclasses_or_typing():
    # -S keeps site from loading any of them first; dataclasses with inspect,
    # ast and copy cost about 10 ms of start-up, typing 3-4 ms
    src = str(Path(zclrp.__file__).resolve().parents[1])
    unwanted = {"dataclasses", "inspect", "typing", "copy", "ast", "fractions",
                "decimal", "click"}
    code = f"import sys, zclrp.cli; print(sorted({unwanted!r} & set(sys.modules)))"
    out = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.stdout == "[]\n"


def test_help_and_version_exit_zero(monkeypatch):
    version = run("--version")
    assert version.exit_code == 0
    assert version.output.endswith(" (pure kernel)\n")
    for args in [("--help",), ("zcl", "--help"), ("zcl", "exact", "--help"),
                 ("report", "--help")]:
        result = run(*args)
        assert result.exit_code == 0 and result.output.startswith("Usage: ")
        assert result.output.count("Usage: ") == 1 and result.stderr == ""
    assert run("--version").output == "zclrp 0.1.0 (pure kernel)\n"
    # a group's help lists each command word at the start of its own line,
    # followed by its one-line summary, wrapped to the terminal's width; a
    # narrow one would break a summary at a hyphen
    monkeypatch.setenv("COLUMNS", "80")
    for args, usage, summaries in [
            (("--help",), "zclrp [--help] [--version] COMMAND ...", {
                "profile": "Dyadic profile of m: trailing-ones length e, z, "
                           "and sigma.",
                "zcl": "Zero-divisor cup-length computations.",
                "verify": "Structural verifications (linear algebra, join "
                          "model).",
                "report": "Bound-table rows s*m >= TC_s >= secat >= zcl over "
                          "the given ranges."}),
            (("zcl", "--help"), "zclrp zcl [--help] COMMAND ...", {
                "exact": "Exact cup-length by the residue digit greedy, "
                         "with a certified witness.",
                "probe": "Gap sequence s*m - zcl over s = 2..s-max, with "
                         "stabilization flag."})]:
        help_text = run(*args).stdout
        words = " ".join(help_text.split())
        assert words.startswith(f"Usage: {usage} ")
        for word, summary in summaries.items():
            assert any(line.split()[:1] == [word]
                       for line in help_text.splitlines()), word
            assert f" {word} {summary} " in words, word


def test_readme_examples_from_a_shell():
    # as a shell runs it: main() reads sys.argv in a fresh interpreter
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    src = str(Path(zclrp.__file__).resolve().parents[1])
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("ZCLRP_")}
    env["PYTHONPATH"] = src

    def example(command):
        # the lines after "$ zclrp <command>" in the README, up to a blank
        # line or the end of the code block
        lines = readme.split(f"$ zclrp {command}\n", 1)[1].splitlines()
        block = "".join(line + "\n" for line in itertools.takewhile(
            lambda line: line not in ("", "```"), lines))
        out = subprocess.run([sys.executable, "-m", "zclrp.cli",
                              *command.split()], capture_output=True,
                             text=True, env=env)
        assert (out.returncode, out.stderr) == (0, ""), command
        return block, out.stdout

    readme_csv, csv = example("report --m-range 1..3 --s-range 2..3 --format csv")
    assert csv == readme_csv
    readme_json, line = example("zcl exact --m 5 --s 3")
    want, got = json.loads(readme_json), json.loads(line)
    assert want.pop("elapsed_ms") >= 0 and got.pop("elapsed_ms") >= 0
    assert got == want


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


# each command, with the package function it looks up in zclrp.cli
COMMAND_FUNCTIONS = [
    (("profile", "--m", "3"), "two_adic_profile"),
    (("zcl", "exact", "--m", "3", "--s", "3"), "zcl_exact"),
    (("report", "--m-range", "1..2", "--s-range", "2..3"), "emit"),
    (("zcl", "probe", "--m", "3", "--s-max", "3"), "g_stabilization_probe"),
    (("verify", "generators", "--m", "2", "--s", "2"),
     "verify_generators_lemma"),
    (("verify", "join", "--s", "3", "--k", "2"), "sample_report"),
    (("report", "--m-range", "1..2", "--s-range", "2..3"), "build_table"),
]


@pytest.mark.parametrize("args,name", COMMAND_FUNCTIONS)
@pytest.mark.parametrize("error,code,prefix", [
    (zclrp.UndeterminedError("x"), 2, "undetermined: x\n"),
    (zclrp.InvariantViolationError("y"), 1, "invariant violation: y\n"),
])
def test_exit_code_of_each_command(monkeypatch, args, name, error, code,
                                   prefix):
    def fail(*args, **kwargs):
        raise error

    monkeypatch.delenv("ZCLRP_CACHE", raising=False)
    monkeypatch.setattr(zclrp.cli, name, fail)
    result = run(*args)
    assert (result.exit_code, result.stdout, result.stderr) == \
        (code, "", prefix)


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


def test_verify_join_output_is_pinned(monkeypatch):
    # stdout, exit code and the generator's final state of a grid of runs,
    # so that the draws and their order cannot drift: on a valid run no
    # field of stdout depends on the draws, so the state pins them; every
    # run realizes all 2^(s-1) keys and exits 0
    made = []
    monkeypatch.setattr(zclrp.join_model, "random", SimpleNamespace(
        Random=lambda seed: made.append(random.Random(seed)) or made[-1]))
    transcript, codes = [], []
    for s, k in itertools.product((2, 3, 4, 6), (0, 1, 5)):
        for samples, seed in itertools.product((1 << (s - 1), 300), range(3)):
            result = run("verify", "join", "--s", str(s), "--k", str(k),
                         "--samples", str(samples), "--seed", str(seed))
            state = hashlib.sha256(repr(made[-1].getstate()).encode())
            transcript.append(f"{s} {k} {samples} {seed} {result.exit_code} "
                              f"{result.stdout}{state.hexdigest()}\n")
            codes.append(result.exit_code)
    assert codes == [0] * 72 and len(made) == 72
    assert hashlib.sha256("".join(transcript).encode()).hexdigest() == (
        "71adfb1e67424b49e8cb4dd6743d98a7e04046db16cf968bdb4ac5792ec1d89f")


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


@pytest.mark.parametrize("policy", [pytest.param(("--policy", "exact"), id="exact"),
                                    pytest.param((), id="default")])
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_report_equals_one_build_row_per_cell(policy, fmt):
    # the cells are built s-major, so each one's m differs from the last
    # one's; report builds them m-major
    cells = [(m, s) for s in range(2, 13) for m in range(1, 21)]
    rows = [zclrp.build_row(m, s) for m, s in cells]
    result = run("report", "--m-range", "1..20", "--s-range", "2..12",
                 *policy, "--format", fmt)
    assert result.exit_code == 0 and result.stderr == ""
    assert result.stdout == zclrp.emit(rows, fmt).decode()


def test_report_output_is_pinned():
    # 31 m by s = 2..30: each row's zcl from the digit greedy, its witness
    # re-verified, with its bounds and provenance; recorded under the
    # knapsack search the greedy replaced, and unchanged since
    result = run("report", "--m-range", "200..230", "--s-range", "2..30")
    assert result.exit_code == 0 and result.stderr == ""
    assert hashlib.sha256(result.stdout.encode()).hexdigest() == (
        "493fb788d69ced589500efb0a2a562b05db8b5f60cdf3a8f4c0ce35a0e4e077c")


def test_zcl_exact_output_is_pinned():
    # every key of zcl exact's stdout over a grid, the time masked; recorded
    # when the witness became the word read off the greedy's digits
    transcript = []
    for m in range(1, 41):
        for s in range(2, 9):
            result = run("zcl", "exact", "--m", str(m), "--s", str(s))
            assert (result.exit_code, result.stderr) == (0, "")
            head, sep, tail = result.stdout.rpartition(',"elapsed_ms":')
            assert sep and tail.endswith("}\n") and float(tail[:-2]) >= 0
            transcript.append(head + "}\n")
    assert hashlib.sha256("".join(transcript).encode()).hexdigest() == (
        "1b04f2ccf467645b687f7950239ade3afe199e06706dd56444d8e677437f0fe7")


def test_report_skips_oversized_rows():
    # a row is charged 2*(s-1): every s past 524289 is over the work cap,
    # and no row is refused for the size of (m+1)^s, so (1023, 1026) is
    # emitted
    result = run("report", "--m-range", "1..2", "--s-range", "524290..524290")
    assert (result.exit_code, result.stdout) == (2, "")
    assert result.stderr.splitlines() == [
        f"skipped ({m},524290): zcl({m},524290): the search needs 1048578 "
        f"steps, over the cap of {zclrp.MAX_DP_CELLS}" for m in (1, 2)]
    result = run("report", "--m-range", "1023..1023", "--s-range", "1025..1026")
    assert (result.exit_code, result.stderr) == (0, "")
    rows = [json.loads(line) for line in result.stdout.splitlines()]
    assert [(r["m"], r["s"]) for r in rows] == [(1023, 1025), (1023, 1026)]


def test_report_policy_witness_only_is_a_usage_error():
    # the policy that emitted the (s-1)*m floor is gone; exact is the only
    # one, and the default
    result = run("report", "--m-range", "1..2", "--s-range", "2..3",
                 "--policy", "witness-only")
    assert (result.exit_code, result.stdout) == (64, "")
    lines = result.stderr.splitlines()
    assert lines[0].startswith("Usage: ") and lines[-1] == (
        "Error: argument --policy: invalid choice: 'witness-only' "
        "(choose from 'exact')")


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
    # (2^20, 2) is charged 2^20 + 1 steps, just over MAX_DP_CELLS; the rows
    # before it are still emitted
    result = run("report", "--m-range", "1048572..1048576",
                 "--s-range", "2..2")
    assert result.exit_code == 2
    rows = [json.loads(line) for line in result.stdout.splitlines()]
    assert [(r["m"], r["zcl"]) for r in rows] == \
        [(m, 1048575) for m in range(1048572, 1048576)]
    assert result.stderr == ("skipped (1048576,2): zcl(1048576,2): the search "
                             "needs 1048577 steps, over the cap of "
                             f"{zclrp.MAX_DP_CELLS}\n")


@pytest.mark.parametrize("args", [
    ("zcl", "exact", "--m", "1", "--s", "2000000"),
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
            "undetermined: zcl(1,2000000): the search needs 3999998 steps, "
            f"over the cap of {zclrp.MAX_DP_CELLS}\n")
    else:
        assert result.stderr == (
            "undetermined: generators(9,9): the check needs s*(m+1)^s = "
            f"9000000000 steps, over the cap of {zclrp.MAX_DP_CELLS}\n")


@pytest.mark.parametrize("args", [
    ("zcl", "probe", "--m", "1000000", "--s-max", "600000"),
    ("verify", "generators", "--m", "1000", "--s", "2000"),
    ("report", "--m-range", "1000000..1000000", "--s-range", "600000..600000"),
])
def test_huge_ring_exits_2_with_one_line(args):
    # each command meets its own charge against the one work cap: the
    # greedy's 2*(s-1), which zcl probe and a report row share, and the
    # generators check's s*(m+1)^s (1001^2000
    # has over 6000 digits, past Python's int-to-str limit, so the charge
    # is given as a power of 2)
    t0 = time.perf_counter()
    result = run(*args)
    assert time.perf_counter() - t0 < 0.1
    assert result.exit_code == 2 and result.stdout == ""
    assert len(result.stderr.splitlines()) == 1
    assert result.stderr.endswith({
        "zcl": ": the search needs 1199998 steps, over the cap of "
               f"{zclrp.MAX_DP_CELLS}\n",
        "verify": ": the check needs s*(m+1)^s >= 2^18010 steps, over the "
                  f"cap of {zclrp.MAX_DP_CELLS}\n",
        "report": ": the search needs 1199998 steps, over the cap of "
                  f"{zclrp.MAX_DP_CELLS}\n",
    }[args[0]])


HUGE_M, HUGE_S = "7" * 2200, "3" * 2200


@pytest.mark.parametrize("args,needs", [
    (("zcl", "exact", "--m", HUGE_M, "--s", HUGE_S),
     "the search needs >= 2^14614 steps"),
    (("zcl", "probe", "--m", HUGE_M, "--s-max", HUGE_S),
     "the search needs >= 2^14614 steps"),
    (("report", "--m-range", f"{HUGE_M}..{HUGE_M}", "--s-range", "2..2"),
     "the search needs >= 2^7307 steps"),
    (("verify", "join", "--s", "2", "--k", HUGE_M, "--samples", HUGE_S),
     "the check needs (samples+2^(s-1))*(k+9) >= 2^14614 steps"),
    (("verify", "generators", "--m", "1", "--s", str(10 ** 20)),
     "the check needs s*(m+1)^s >= 2^100000000000000000066 steps"),
    (("verify", "generators", "--m", "257", "--s", "2147483648"),
     "the check needs s*(m+1)^s >= 2^17179869215 steps"),
    # exponents of more digits than str() of an int may give
    (("verify", "generators", "--m", "1", "--s", "9" * 4300),
     "the check needs s*(m+1)^s >= 2^<4301-digit int> steps"),
    (("verify", "generators", "--m", "9" * 4300, "--s", "9" * 4297),
     "the check needs s*(m+1)^s >= 2^<4302-digit int> steps"),
])
def test_huge_integers_exit_2_with_one_line(args, needs):
    # a charge of more digits than str() of an int may give is named as a
    # power of 2, no power of the size of the charge is built, and the
    # inputs are named by their length, so the line stays short
    t0 = time.perf_counter()
    result = run(*args)
    assert time.perf_counter() - t0 < 0.1
    assert result.exit_code == 2 and result.stdout == ""
    assert len(result.stderr.splitlines()) == 1
    assert len(result.stderr.encode()) <= 200
    assert "Traceback" not in result.stderr
    assert result.stderr.endswith(
        f": {needs}, over the cap of {zclrp.MAX_DP_CELLS}\n")


def test_report_grid_over_the_cap_exits_2_before_any_row():
    # 99999999 rows: refused from the ranges alone, where every row past
    # s = 2^19 used to be tried and skipped one by one
    t0 = time.perf_counter()
    result = run("report", "--m-range", "1..1", "--s-range", "2..100000000")
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


@pytest.mark.parametrize("s,k,samples,sampling", [
    (21, 0, 1 << 20, 9 << 20),        # 2^20 samples and 2^20 keys
    (2, 3000000, 2, 6000018),         # two samples of 3000001 levels each
])
def test_work_cap_bounds_verify_join(s, k, samples, sampling):
    # the samples' share samples*(k+9) and the orbit's 2^(s-1)*(k+9) are
    # charged together before any draw; unbounded, these ran for tens of
    # seconds.  One sample is charged the orbit as well
    for n in (samples, 1):
        charge = sampling // samples * n + (1 << s - 1) * (k + 9)
        t0 = time.perf_counter()
        result = run("verify", "join", "--s", str(s), "--k", str(k),
                     "--samples", str(n))
        assert time.perf_counter() - t0 < 0.1
        assert result.exit_code == 2 and result.stdout == ""
        assert result.stderr == (
            f"undetermined: join({s},{k}): the check needs "
            f"(samples+2^(s-1))*(k+9) = {charge} steps, over the cap of "
            f"{zclrp.MAX_DP_CELLS}\n")


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


def test_report_with_a_cache_that_is_not_utf8(tmp_path):
    # an undecodable cache line is skipped with a warning, as any corrupt
    # line is, and the row is the one computed without it
    path = tmp_path / "cache.jsonl"
    path.write_bytes(b"\xff\xfe garbage\n")
    args = ("report", "--m-range", "1..1", "--s-range", "2..2")
    plain = run(*args)
    with pytest.warns(UserWarning, match=":1: skipping corrupt cache line "
                      r"\('utf-8' codec can't decode byte 0xff"):
        cached = run(*args, "--cache", str(path))
    assert cached.exit_code == plain.exit_code == 0
    assert cached.stdout == plain.stdout
    assert path.read_bytes().startswith(b"\xff\xfe garbage\n")


def test_report_skips_a_cache_line_with_too_many_factors(tmp_path):
    # 600,000 factors for (2,3), where s*m = 6: corrupt, refused before its
    # factors are read, and the row is the one computed without the line
    path = tmp_path / "cache.jsonl"
    path.write_text(json.dumps(
        {"m": 2, "s": 3, "zcl": 600000, "method": "witness_lower_bound",
         "witness": {"factors": [[1, 3, 1]] * 600000,
                     "certificate": "x1^2*x2^2*x3^2"},
         "engine_version": zclrp.ENGINE_VERSION, "timestamp": 0.0}) + "\n")
    args = ("report", "--m-range", "2..2", "--s-range", "3..3")
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


# -- the CLI contract, fuzzed ------------------------------------------------------

# an admitted command charged more than this is stopped at its charge, before
# any work, and the example is skipped, so that the property stays fast
_LONG_WORK = 1 << 12


class _RunsLong(Exception):
    pass


def _charge_or_stop(work, needs, *args):
    zclrp.errors.charge(work, needs, *args)
    if work > _LONG_WORK:
        raise _RunsLong


def _mostly(usual, rare):
    """usual in 7 draws of 8, rare in the others."""
    return st.sampled_from([True] * 7 + [False]).flatmap(
        lambda common: usual if common else rare)


_INTS = st.builds(
    lambda value, negative: -value if negative else value,
    st.one_of(
        st.sampled_from([0, 1]),
        # 2^k +- 1, small k as often as the rest
        st.builds(lambda k, d: (1 << k) + d,
                  st.one_of(st.integers(1, 6), st.integers(1, 64)),
                  st.sampled_from([-1, 1])),
        # up to the 4,300 digits that int() reads
        st.builds(lambda n, d: int(str(d) * n), st.integers(1, 4300),
                  st.integers(1, 9))),
    _mostly(st.just(False), st.just(True)))
_NUMBERS = _mostly(st.builds(str, _INTS), st.sampled_from(
    ["x", "", " ", "1.5", "1e3", "0x10", "--", "-", "3-"]))
_RANGES = _mostly(
    # a few rows wide: a grid whose rows are all over the cap is refused
    # row by row, and the grid's charge counts rows, not their charges
    st.builds(lambda a, d: f"{a}..{a + d}", _INTS, st.integers(0, 3)),
    st.one_of(
        st.builds(str, _INTS),
        st.builds(lambda a, b: f"{a}..{b}", _INTS, _INTS),
        st.sampled_from(["..", "1..", "..2", "3..1", "1...2", "x..2", "1..y",
                         "1..2..3"])))


def _values(kwargs):
    if kwargs.get("action") in ("version", "help"):
        return st.just(None)
    if kwargs.get("dest") == "cache_path":
        # a free string: argparse takes "-" and a \d digit for a value and
        # "-" and any other character for an option
        return st.one_of(_NUMBERS, st.sampled_from(
            ["rows.jsonl", "-x", "-\u00b2x", "-\u0663", "--m", "- 1", "a b"]))
    if "choices" in kwargs:
        return _mostly(st.sampled_from(kwargs["choices"]),
                       st.sampled_from(["witness-only", "yaml", "1"]))
    if kwargs.get("type") is zclrp.cli._parse_range:
        return _RANGES
    return _NUMBERS


@st.composite
def _command_lines(draw, cache=False):
    words = draw(st.sampled_from(sorted(zclrp.cli._TABLE)))
    # --cache writes a file when the command runs; it has tests of its own
    options = {option: kwargs for option, kwargs
               in zclrp.cli._TABLE[words][1].items()
               if cache or option != "--cache"}
    args = list(words)
    for option, kwargs in options.items():
        if draw(st.integers(0, 9)) < (8 if kwargs.get("required") else 3):
            args.append(option)
            value = draw(_values(kwargs))
            if value is not None:
                args.append(value)
    if draw(st.integers(0, 9)) == 0:  # a stray word or option
        args.insert(draw(st.integers(0, len(args))),
                    draw(st.sampled_from(["--help", "--m", "extra", "9" * 30])))
    return args


@settings(max_examples=150, deadline=None)
@given(_command_lines())
@example(["report", "--m-range", "1..2", "--s-range", "2..3",
          "--policy", "witness-only"])
@example(["verify", "join", "--s", "2", "--k", str(10 ** 3999),
          "--samples", "1"])
@example(["verify", "generators", "--m", "1", "--s", "9" * 4300])
def test_cli_contract(args):
    # every command line exits 0, 2 or 64, with no traceback, with no
    # stdout on a refusal and with stderr lines of at most 200 bytes
    with pytest.MonkeyPatch.context() as patch:
        patch.delenv("ZCLRP_CACHE", raising=False)
        for module in ("bounds", "cuplength", "join_model", "zero_divisors"):
            patch.setattr(f"zclrp.{module}.charge", _charge_or_stop)
        result = run(*args)
    if isinstance(result.exception, _RunsLong):
        return
    assert result.exit_code in (0, 2, 64), (args, result.exception)
    assert "Traceback" not in result.stderr
    assert all(len(line.encode()) <= 200 for line in result.stderr.splitlines())
    if result.exit_code == 64 or (result.exit_code == 2 and args[0] != "report"):
        assert result.stdout == ""
    elif result.exit_code == 2:
        # report: the rows it decided, then one line per skipped row; or, for
        # a grid over the cap, one line and no rows
        lines = result.stderr.splitlines()
        assert all(line.startswith("skipped (") for line in lines) or (
            result.stdout == "" and len(lines) == 1
            and lines[0].startswith("undetermined: "))


def _argparse_reads(words, rest):
    """vars() of what the parser of words reads off rest, or None where it
    exits (help, version or a usage error)."""
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(zclrp.cli._parser(words).parse_args(rest))
        except SystemExit:
            return None


@settings(max_examples=300, deadline=None)
@given(_command_lines(cache=True))
@example(["zcl", "exact", "--m=5", "--s", "3"])
@example(["zcl", "exact", "--m", "x", "--m", "5", "--s", "3"])
@example(["zcl", "exact", "--m", "-3", "--s", "3"])
@example(["report", "--m-range", "1..2", "--s-range", "2..3", "--cache",
          "-\u00b2x"])
@example(["zcl", "exact", "--m", "--", "5", "--s", "3"])
@example(["report", "--m-range", "1..2", "--s-range", "2..3", "--cache", ""])
@example(["zcl", "exact", "--m", "9" * 4000, "--s", "3"])
def test_table_read_is_what_argparse_reads(args):
    # main reads the options off the table, or declines and lets argparse
    # read them; where argparse would exit, the table read declines
    words = ()
    for word in args:
        if words + (word,) not in zclrp.cli._TABLE:
            break
        words += (word,)
    rest = args[len(words):]
    read = zclrp.cli._read(words, rest)
    parsed = _argparse_reads(words, rest)
    if parsed is None:
        assert read is None, args
    else:
        assert read is None or read == parsed, args


@pytest.mark.parametrize("words,rest,options", [
    (("zcl", "exact"), ["--m", "13", "--s", "5"], {"m": 13, "s": 5}),
    (("zcl", "probe"), ["--s-max", "60", "--m", "-2"], {"m": -2, "s_max": 60}),
    (("verify", "generators"), ["--m", "4", "--s", "6"],
     {"m": 4, "s": 6, "max_degree": None}),
    (("verify", "join"), ["--s", "6", "--k", "5", "--seed", "7"],
     {"s": 6, "k": 5, "samples": 1000, "seed": 7}),
    (("report",), ["--m-range", "1..15", "--s-range", "2..6", "--policy",
                   "exact", "--format", "csv", "--cache", "-3"],
     {"m_range": (1, 15), "s_range": (2, 6), "policy": "exact", "fmt": "csv",
      "cache_path": "-3"}),
])
def test_table_reads_plain_commands(words, rest, options):
    # the property above holds as well for a table read that declines
    # every line; these are read, as the benchmark's commands are
    assert zclrp.cli._read(words, rest) == options


def test_cli_import_builds_no_parser_and_loads_no_locale():
    # the first parser built loads gettext and locale for argparse's
    # messages, about 2 ms of start-up, and the ten parsers took about
    # 0.8 ms more; a plain command builds none
    src = str(Path(zclrp.__file__).resolve().parents[1])
    code = ("import sys, zclrp.cli as cli; "
            "print(cli._parser.cache_info().currsize, 'locale' in sys.modules); "
            "cli.main(['zcl', 'exact', '--m', '13', '--s', '5']); "
            "print(cli._parser.cache_info().currsize, 'locale' in sys.modules)")
    out = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src})
    lines = out.stdout.splitlines()
    assert (lines[0], lines[2]) == ("0 False", "0 False")
