"""The four workloads: the CLI commands of one pass, made from a seed.

A command is the argument list a user would type after ``zclrp``.  Every
pass of a workload runs the same list in the same order; the seed sets the
order of the ``query`` commands and the ``verify join --seed``.  Why each
workload exists is written down in README.md next to this file.
"""

from __future__ import annotations

import random

WORKLOADS = ("query", "table", "table-cached", "verify")

# Every shape here finishes inside the default 5,000,000-word search
# budget; shapes that exhaust it, such as (31,8), (11,12) and (45,8), cost
# about 25 s each and are left for a workload added once the search stops
# enumerating.
QUERY_M = range(1, 25)
QUERY_S = range(2, 7)
QUERY_PROBES = ((23, 6), (12, 8))

# The grid m in 1..15, s in 2..6 minus (14,6) and (15,6), whose rings exceed
# the default 2^23-bit cap: report would skip them and exit 2, and every
# operation a workload times must succeed.
TABLE_RANGES = (("1..15", "2..5"), ("1..13", "6..6"))

VERIFY_GENERATORS = (4, 6)
VERIFY_JOIN = (6, 5, 1000)  # s, k, samples


def report_commands() -> list[list[str]]:
    return [["report", "--policy", "exact", "--m-range", m_range,
             "--s-range", s_range] for m_range, s_range in TABLE_RANGES]


def commands(workload: str, seed: int) -> list[list[str]]:
    """The commands of one pass of `workload`, in run order."""
    if workload == "query":
        cmds = [["zcl", "exact", "--m", str(m), "--s", str(s)]
                for m in QUERY_M for s in QUERY_S]
        cmds += [["zcl", "probe", "--m", str(m), "--s-max", str(k)]
                 for m, k in QUERY_PROBES]
        random.Random(seed).shuffle(cmds)
        return cmds
    if workload in ("table", "table-cached"):
        return report_commands()
    if workload == "verify":
        m, s = VERIFY_GENERATORS
        js, jk, samples = VERIFY_JOIN
        return [["verify", "generators", "--m", str(m), "--s", str(s)],
                ["verify", "join", "--s", str(js), "--k", str(jk),
                 "--samples", str(samples), "--seed", str(seed)]]
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")


def kind(args: list[str]) -> str:
    """The command name, e.g. 'zcl exact' or 'report'."""
    return args[0] if args[0] == "report" else f"{args[0]} {args[1]}"
