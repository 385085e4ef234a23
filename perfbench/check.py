"""Checks of command outputs against the reference values in reference.json.

What is compared is the value fields: zcl, method and g of ``zcl exact``,
the whole ``zcl probe`` payload, every field of every ``report`` row, and
the per-degree dimensions and pass flags of ``verify generators``.
``elapsed_ms`` and the witness are not compared: a correct engine may pick
another witness.  ``verify join`` depends on the seed, so it is checked by
the invariants the join model guarantees instead of by recorded values.
Output is compared whatever the command's exit code.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from workloads import kind

REFERENCE = Path(__file__).with_name("reference.json")
EXACT_FIELDS = ("m", "s", "zcl", "method", "g")


def load_reference(path: Path = REFERENCE) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["outputs"]


def reference_key(args: list[str]) -> str | None:
    """Key of a command in the reference; None for seed-dependent commands."""
    return None if kind(args) == "verify join" else " ".join(args)


def _lines(stdout: str) -> list[dict]:
    return [json.loads(line) for line in stdout.splitlines() if line.strip()]


def normalize(args: list[str], stdout: str):
    """The compared value of one command's output."""
    lines = _lines(stdout)
    name = kind(args)
    if name == "zcl exact":
        (payload,) = lines
        return {f: payload[f] for f in EXACT_FIELDS}
    if name == "zcl probe":
        (payload,) = lines
        return payload
    if name in ("report", "verify generators"):
        return lines
    raise ValueError(f"no reference form for {name!r}")


def _join_problems(args: list[str], stdout: str) -> list[str]:
    (payload,) = _lines(stdout)
    s = int(args[args.index("--s") + 1])
    k = int(args[args.index("--k") + 1])
    samples = int(args[args.index("--samples") + 1])
    expected = {"s": s, "k": k, "samples": samples, "keys_found": 1 << (s - 1),
                "transitive": True, "segment_checks_passed": samples}
    return [f"{f} = {payload.get(f)!r}, expected {v!r}"
            for f, v in expected.items() if payload.get(f) != v]


@dataclass
class Outcome:
    """Results one command attempted, how many were not certified, and any
    value that differs from the reference."""

    attempted: int
    failed: int
    mismatches: list[str] = field(default_factory=list)


def check_command(args: list[str], code: int, stdout: str,
                  reference: dict) -> Outcome:
    """Check one command run; a report counts each of its rows as a result.

    Whatever the exit code, any output the command printed is compared.  A
    non-zero exit is a failed operation (for a report, each row it did not
    emit).  Exit 1 is also a mismatch: it is the CLI's "a certified check
    failed" code, which ``verify generators`` and ``verify join`` give after
    printing their report.
    """
    where = " ".join(args)
    report = kind(args) == "report"
    key = reference_key(args)
    if key is not None and key not in reference:
        return Outcome(1, 0, [f"{where}: no reference value recorded"])
    want = reference[key] if key is not None else None
    attempted = len(want) if report else 1
    failed = 0 if code == 0 else attempted
    mismatches = [f"{where}: exit 1, a certified check failed"] if code == 1 else []
    if code != 0 and not stdout.strip():
        return Outcome(attempted, failed, mismatches)
    try:
        if key is None:
            return Outcome(attempted, failed, mismatches + [
                f"{where}: {p}" for p in _join_problems(args, stdout)])
        got = normalize(args, stdout)
    except (ValueError, KeyError, TypeError) as exc:
        return Outcome(attempted, failed,
                       mismatches + [f"{where}: unreadable output ({exc})"])
    if code == 0 or not report:
        if got != want:
            mismatches.append(f"{where}: got {got!r}, expected {want!r}")
        return Outcome(attempted, failed, mismatches)
    # a report that exited non-zero: the rows it did emit must still be right
    by_shape = {(r["m"], r["s"]): r for r in want}
    mismatches += [f"{where}: row {row!r} differs from the reference"
                   for row in got if by_shape.get((row.get("m"), row.get("s"))) != row]
    return Outcome(attempted, attempted - len(got), mismatches)
