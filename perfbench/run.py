#!/usr/bin/env python3
"""End-to-end benchmark of the zclrp CLI, with a traced run for layer times.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

NAME is one of query, table, table-cached, verify (see README.md next to
this file).  The load is a closed loop from one single-threaded process:
each pass of the workload runs its commands one after the other in a fresh
interpreter, and passes follow each other until S seconds have gone by.
Every output is checked against reference.json.

With --trace 0 the last stdout line carries the end-to-end metrics; with
--trace 1, untraced and traced passes alternate and it carries the
per-layer metrics plus trace.overhead_ratio.  Earlier lines print every
metric by name with its unit, and a result file with provenance is written
under results/.  Exit code 0 means every output matched; 1 means some
output differed from the reference or a layer broke the layer map (the
result line then says "correct": false); 2 means the benchmark could not
run, and no result line is printed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from check import check_command, load_reference
from tracer import PER_LAYER
from workloads import WORKLOADS, commands, kind, report_commands

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

SETUP_PROBES = 11
CHILD_TIMEOUT_S = 170

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cmd_ms_p50", "ms"),
    ("cmd_ms_tail10", "ms"),
    ("peak_rss_mb", "MB"),
)


class HarnessError(RuntimeError):
    """The benchmark itself could not run (no package, a worker crashed)."""


def scrubbed_env(cache: Path | None = None) -> dict[str, str]:
    """The caller's environment minus every ZCLRP_* setting and PYTHONPATH,
    so that a shell setting cannot change what a workload runs."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("ZCLRP_") and k != "PYTHONPATH"}
    env["PYTHONHASHSEED"] = "0"
    if cache is not None:
        env["ZCLRP_CACHE"] = str(cache)
    return env


def run_pass(workload: str, cmds: list[list[str]], trace: bool,
             env: dict[str, str]) -> dict:
    """One pass in a fresh interpreter; returns the worker's payload."""
    job = json.dumps({"workload": workload, "commands": cmds, "trace": trace})
    spawned = time.clock_gettime(time.CLOCK_MONOTONIC)
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), str(SRC), repr(spawned)],
            input=job, capture_output=True, text=True, env=env, cwd=ROOT,
            timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise HarnessError(f"a {workload} pass ran over {CHILD_TIMEOUT_S} s")
    if proc.returncode != 0:
        raise HarnessError(f"a {workload} pass exited {proc.returncode}:\n"
                           f"{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def nearest_rank(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def git_commit() -> str:
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse",
                               "--show-toplevel", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or Path(lines[0]) != ROOT:
        return "unknown (not a git checkout)"
    return lines[1]


def provenance() -> dict:
    return {"commit": git_commit(),
            "python": f"{platform.python_implementation()} {platform.python_version()}",
            "platform": platform.platform(),
            "nproc": len(os.sched_getaffinity(0)),
            "loadavg_start": list(os.getloadavg())}


# -- metrics of a set of passes ------------------------------------------------------

def tail_mean(values: list[float]) -> float:
    """Mean of the slowest tenth of the values (at least one)."""
    ordered = sorted(values)
    return statistics.mean(ordered[-max(1, len(ordered) // 10):])


def pass_metrics(workload: str, payload: dict) -> dict:
    """End-to-end metrics (but setup_s) and detail metrics of one pass."""
    cmds = payload["commands"]
    times = [c["scaled_s"] for c in cmds]
    out = {"wall_s": sum(times),
           "cmd_ms_p50": 1000 * nearest_rank(times, 0.5),
           "cmd_ms_tail10": 1000 * tail_mean(times),
           "peak_rss_mb": payload["peak_rss_mb"]}
    by_kind: dict[str, list[float]] = {}
    for c in cmds:
        by_kind.setdefault(kind(c["args"]), []).append(c["scaled_s"])
    if workload == "query":
        exact = by_kind["zcl exact"]
        out["exact_ms_p50"] = 1000 * nearest_rank(exact, 0.5)
        out["exact_ms_p90"] = 1000 * nearest_rank(exact, 0.9)
        out["probe_s"] = sum(by_kind["zcl probe"])
    elif workload in ("table", "table-cached"):
        rows = sum(len(c["stdout"].splitlines()) for c in cmds)
        out["report_rows_per_s"] = rows / sum(by_kind["report"])
    elif workload == "verify":
        out["verify_generators_s"] = by_kind["verify generators"][0]
        out["verify_join_s"] = by_kind["verify join"][0]
    return out


def medians(workload: str, passes: list[dict]) -> dict:
    """Per metric, the median over the passes."""
    per_pass = [pass_metrics(workload, p) for p in passes]
    return {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}


DETAIL_UNITS = {"exact_ms_p50": "ms", "exact_ms_p90": "ms", "probe_s": "s",
                "report_rows_per_s": "rows/s", "verify_generators_s": "s",
                "verify_join_s": "s", "failed_frac": "ratio"}


# -- one run of one workload -------------------------------------------------------

def run_workload(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    """Set up, run passes for `seconds`, check every output, aggregate."""
    reference = load_reference()
    cmds = commands(workload, seed)
    with tempfile.TemporaryDirectory(prefix="_work-", dir=HERE) as work:
        cache = Path(work, "cache.jsonl") if workload == "table-cached" else None
        env = scrubbed_env(cache)
        prov = provenance()
        mismatches: list[str] = []
        attempted = failed = 0

        def check(payload: dict, counted: bool) -> None:
            nonlocal attempted, failed
            for c in payload["commands"]:
                outcome = check_command(c["args"], c["code"], c["stdout"], reference)
                mismatches.extend(outcome.mismatches)
                if counted:
                    attempted += outcome.attempted
                    failed += outcome.failed

        setup = []
        if not trace:
            for _ in range(SETUP_PROBES):
                setup.append(run_pass(workload, [], False, env)["setup_scaled_s"])
        if cache is not None:
            # the untimed report that fills the cache; its rows are checked
            # like any other output
            check(run_pass(workload, report_commands(), False, env), False)

        passes: list[dict] = []
        start = time.monotonic()
        traced = False
        while True:
            payload = run_pass(workload, cmds, traced, env)
            payload["traced"] = traced
            check(payload, True)
            passes.append(payload)
            kinds = {p["traced"] for p in passes}
            if time.monotonic() - start >= seconds and (not trace or len(kinds) == 2):
                break
            traced = trace and not traced
        prov["loadavg_end"] = list(os.getloadavg())
        prov["backend"] = sorted({p["backend"] for p in passes})

        plain = [p for p in passes if not p["traced"]]
        setup += [p["setup_scaled_s"] for p in plain]
        measured = medians(workload, plain)
        e2e = {name: statistics.median(setup) if name == "setup_s" else measured[name]
               for name, _ in END_TO_END}
        detail = {name: v for name, v in measured.items() if name in DETAIL_UNITS}
        detail["failed_frac"] = failed / attempted

        layers, layer_problems = {}, []
        if trace:
            traced_passes = [p for p in passes if p["traced"]]
            for name, _ in PER_LAYER[:-1]:
                layers[name] = statistics.median(p["layers"][name] for p in traced_passes)
            layers["trace.overhead_ratio"] = (
                medians(workload, traced_passes)["wall_s"] / e2e["wall_s"])
            for p in traced_passes:
                layer_problems += [f for f in p["expectation_failures"]
                                   if f not in layer_problems]
        return {
            "workload": workload, "seed": seed, "seconds": seconds,
            "trace": int(trace), "provenance": prov,
            "correct": not mismatches and not layer_problems,
            "attempted": attempted, "failed": failed,
            "end_to_end": e2e, "detail": detail, "per_layer": layers,
            "mismatches": mismatches, "layer_map_failures": layer_problems,
            "absent_layers": sorted({a for p in passes if p["traced"]
                                     for a in p["absent_layers"]}),
            "passes": [{"traced": p["traced"], "setup_s": p["setup_s"],
                        "setup_scaled_s": p["setup_scaled_s"],
                        "peak_rss_mb": p["peak_rss_mb"],
                        "commands": [[" ".join(c["args"]), c["seconds"], c["scaled_s"],
                                      c["pace_s"], c["code"]] for c in p["commands"]]}
                       for p in passes],
            "setup_samples_s": setup,
        }


def metric_lines(result: dict) -> list[str]:
    w = result["workload"]
    units = dict(END_TO_END) | DETAIL_UNITS | dict(PER_LAYER)
    values = result["end_to_end"] | result["detail"] | result["per_layer"]
    return [f"{w:<13} {name:<42} {value:>14.6g} {units[name]}"
            for name, value in values.items()]


def write_result_file(result: dict) -> Path:
    RESULTS.mkdir(exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    path = RESULTS / (f"{result['workload']}-seed{result['seed']}-"
                      f"trace{result['trace']}-{stamp}-{os.getpid()}.json")
    path.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    return path


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seconds < 0:
        parser.error("--seconds must be >= 0")
    if not (SRC / "zclrp" / "cli.py").is_file():
        print(f"error: no zclrp package at {SRC}; run from a checkout of the "
              "repository", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    try:
        for name in names:
            result = run_workload(name, args.seed, args.seconds, bool(args.trace))
            path = write_result_file(result)
            print(f"# {name}: provenance {json.dumps(result['provenance'])}")
            print(f"# {name}: attempted {result['attempted']}, failed "
                  f"{result['failed']}, {len(result['passes'])} passes; "
                  f"result file {path.relative_to(ROOT)}")
            print("\n".join(metric_lines(result)), flush=True)
            for problem in result["mismatches"] + result["layer_map_failures"]:
                print(f"{name}: {problem}", file=sys.stderr)
            results.append(result)
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    table, section = ((dict(PER_LAYER), "per_layer") if args.trace
                      else (dict(END_TO_END), "end_to_end"))
    metrics = {}
    for r in results:
        for name, unit in table.items():
            key = name if len(results) == 1 else f"{r['workload']}.{name}"
            metrics[key] = {"value": r[section][name], "unit": unit}
    line = {"correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": metrics}
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
