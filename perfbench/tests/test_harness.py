"""Smoke test of the benchmark harness: one pass of every workload.

    python3 -m pytest perfbench/tests -q

Runs each workload once untraced and once traced, checks that every named
metric is printed with its unit, and that the reference check rejects a
corrupted value.  Takes about a minute.
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from check import check_command, load_reference  # noqa: E402
from run import DETAIL_UNITS, END_TO_END, run_pass, scrubbed_env  # noqa: E402
from tracer import PER_LAYER, Tracer  # noqa: E402
from workloads import WORKLOADS, commands  # noqa: E402

DETAIL = {"query": ("exact_ms_p50", "exact_ms_p90", "probe_s"),
          "table": ("report_rows_per_s",),
          "table-cached": ("report_rows_per_s",),
          "verify": ("verify_generators_s", "verify_join_s")}


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"), *args],
                          capture_output=True, text=True, cwd=cwd, timeout=300)


def printed_units(stdout: str) -> dict[str, str]:
    """metric name -> unit, from the human-readable metric lines."""
    out = {}
    for line in stdout.splitlines():
        parts = line.split()
        if len(parts) == 4 and not line.startswith(("#", "{")):
            out[parts[1]] = parts[3]
    return out


@pytest.mark.parametrize("workload", WORKLOADS)
def test_one_pass_prints_every_metric(workload):
    plain = bench("--workload", workload, "--seed", "3", "--seconds", "0", "--trace", "0")
    assert plain.returncode == 0, plain.stderr
    result = json.loads(plain.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == dict(END_TO_END)
    assert all(v["value"] > 0 for v in result["metrics"].values())
    units = printed_units(plain.stdout)
    for name in DETAIL[workload] + ("failed_frac",):
        assert units[name] == DETAIL_UNITS[name]

    traced = bench("--workload", workload, "--seed", "3", "--seconds", "0", "--trace", "1")
    assert traced.returncode == 0, traced.stderr
    result = json.loads(traced.stdout.splitlines()[-1])
    assert result["correct"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == dict(PER_LAYER)
    assert result["metrics"]["cli.self_ms"]["value"] > 0
    assert result["metrics"]["trace.overhead_ratio"]["value"] > 0


def test_reference_check_rejects_a_corrupted_value():
    reference = load_reference()
    cmds = [["zcl", "exact", "--m", "5", "--s", "3"], commands("table", 0)[1]]
    payload = run_pass("table", cmds, False, scrubbed_env())
    for c in payload["commands"]:
        assert check_command(c["args"], c["code"], c["stdout"], reference).mismatches == []

    exact, report = payload["commands"]
    bad = json.loads(exact["stdout"]) | {"zcl": 15}
    assert check_command(exact["args"], 0, json.dumps(bad), reference).mismatches
    rows = report["stdout"].splitlines()
    corrupted = rows[:4] + [json.dumps(json.loads(rows[4]) | {"zcl": 0})] + rows[5:]
    assert check_command(report["args"], 0, "\n".join(corrupted), reference).mismatches
    # a row lost to a non-zero exit is a failed operation, not a mismatch
    outcome = check_command(report["args"], 2, "\n".join(rows[:-1]), reference)
    assert (outcome.attempted, outcome.failed, outcome.mismatches) == (13, 1, [])


def test_output_is_compared_whatever_the_exit_code():
    reference = load_reference()
    args = commands("verify", 0)[0]
    degrees = reference[" ".join(args)]
    good = "\n".join(json.dumps(d) for d in degrees)
    wrong = [dict(d) for d in degrees]
    wrong[2] |= {"dim_kernel": wrong[2]["dim_kernel"] + 1, "pass": False}
    bad = "\n".join(json.dumps(d) for d in wrong)
    outcome = check_command(args, 1, bad, reference)
    assert (outcome.attempted, outcome.failed) == (1, 1)
    assert any("got" in m for m in outcome.mismatches)
    # exit 1 is the CLI's certified-check failure, a mismatch on its own
    assert check_command(args, 1, good, reference).mismatches
    assert check_command(args, 0, good, reference).mismatches == []
    # exit 2 (a resource cap) with nothing printed is a failed result only
    outcome = check_command(args, 2, "", reference)
    assert (outcome.failed, outcome.mismatches) == (1, [])


def test_join_is_checked_by_its_invariants():
    args = commands("verify", 7)[1]
    good = {"s": 6, "k": 5, "samples": 1000, "keys_found": 32,
            "transitive": True, "segment_checks_passed": 1000}
    assert check_command(args, 0, json.dumps(good), {}).mismatches == []
    bad = good | {"segment_checks_passed": 999}
    assert check_command(args, 0, json.dumps(bad), {}).mismatches
    assert len(check_command(args, 1, json.dumps(bad), {}).mismatches) == 2


def test_layer_map_flags_idle_and_unexpected_layers():
    tracer = Tracer()
    problems = tracer.expectation_failures("verify")
    assert any(p.startswith("gf2.rref: 0 calls") for p in problems)
    tracer.calls["bounds.cache_get"] = 3
    assert any(p.startswith("bounds.cache_get: 3 calls on table")
               for p in tracer.expectation_failures("table"))


def test_harness_work_is_kept_out_of_spans():
    tracer = Tracer()

    def slow_counter(_result, _args):
        time.sleep(0.05)

    inner = tracer.span("inner", lambda: None, after=slow_counter)

    def outer_body():
        inner()
        t0 = time.perf_counter_ns()
        time.sleep(0.03)  # stands for a pace sample, reported as harness work
        tracer.exclude(time.perf_counter_ns() - t0)
        time.sleep(0.02)
    tracer.span("outer", outer_body)()
    # only the 0.02 s of the outer span's own work is left
    assert 0.02e9 <= tracer.ns["outer"] < 0.045e9
    assert 0.02e9 <= tracer.self_ns["outer"] < 0.045e9


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "_work", "__pycache__"))
    proc = bench("--workload", "query", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
