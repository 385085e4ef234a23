#!/usr/bin/env python3
"""Record reference.json: the value of every workload command's output.

    python3 perfbench/record_reference.py

Run it only at a commit whose outputs are trusted; the benchmark fails any
later run whose outputs differ from what this writes.  Every command must
exit 0, and the ``verify join`` invariants must hold.
"""

from __future__ import annotations

import json
import sys

from check import REFERENCE, check_command, normalize, reference_key
from run import git_commit, run_pass, scrubbed_env
from workloads import WORKLOADS, commands


def main() -> int:
    outputs = {}
    for workload in WORKLOADS:
        payload = run_pass(workload, commands(workload, 0), False, scrubbed_env())
        for c in payload["commands"]:
            if c["code"] != 0:
                print(f"{' '.join(c['args'])} exited {c['code']}:\n{c['stderr']}",
                      file=sys.stderr)
                return 1
            key = reference_key(c["args"])
            if key is None:
                problems = check_command(c["args"], 0, c["stdout"], {}).mismatches
                if problems:
                    print("\n".join(problems), file=sys.stderr)
                    return 1
                continue
            outputs[key] = normalize(c["args"], c["stdout"])
    body = ",\n".join(f"{json.dumps(k)}: {json.dumps(v, sort_keys=True)}"
                      for k, v in sorted(outputs.items()))
    REFERENCE.write_text(f'{{"commit": {json.dumps(git_commit())},\n'
                         f'"outputs": {{\n{body}\n}}}}\n', encoding="utf-8")
    print(f"wrote {len(outputs)} reference outputs to {REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
