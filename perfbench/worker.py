"""One pass of a workload, run by run.py in a fresh interpreter.

    python3 worker.py SRC_DIR SPAWN_TIME < job.json

SPAWN_TIME is the CLOCK_MONOTONIC reading the parent took just before
starting this process, so setup_s covers interpreter start plus
``import zclrp.cli``.  The job on stdin is {"workload", "commands",
"trace"}; the commands run in this process through
``zclrp.cli.main(args, standalone_mode=False)``, one after the other.  The
last line on stdout is one JSON object with the pass's timings and outputs.
"""

import sys
import time

sys.path.insert(0, sys.argv[1])
import zclrp.cli  # noqa: E402  (the import is what setup_s times)

SETUP_S = time.clock_gettime(time.CLOCK_MONOTONIC) - float(sys.argv[2])

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import traceback  # noqa: E402

import click  # noqa: E402

from zclrp._kernels import BACKEND_NAME  # noqa: E402


# The shared host this benchmark was defined on (2 vCPUs, Xeon at 2.1 GHz)
# runs pure-Python code 15-35 % slower for seconds at a time, and every kind
# of code (interpreter loops, big-int arithmetic, the search, row reduction)
# slows together.  A stdlib-only loop is therefore timed before the first
# command, after each one, and every SAMPLE_EVERY_S inside a long one (from a
# timer signal, with the sampling time taken out of the command's time and,
# in traced passes, out of every layer span).  Traced and untraced passes are
# scaled alike, so trace.overhead_ratio compares like with like.
# Each command's time is also given scaled to the pace at which the loop
# takes CALIBRATION_REF_S.  The loop runs no package code, so a change to
# the package cannot move it.  The samples inside commands are what keep a
# workload of few long commands steady: with the samples between commands
# alone, verify's wall_s spread 16.5 % (IQR/median, five 20 s runs) where
# it spread 3.5 % with both (see README.md).

CALIBRATION_REF_S = 0.01
CALIBRATION_LOOP = 120_000
SAMPLE_LOOP = CALIBRATION_LOOP // 5
SAMPLE_EVERY_S = 0.05
PACE_WINDOW = 5  # between-command samples on each side that set a pace


def pace(iterations: int = CALIBRATION_LOOP) -> float:
    """Seconds the calibration loop takes, scaled to CALIBRATION_LOOP."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(iterations):
        acc += i * i % 7
    return (time.perf_counter() - t0) * CALIBRATION_LOOP / iterations


class Command:
    """Runs one command as the CLI would; exit codes come from SystemExit.

    exclude(ns), when given, is told the length of each pace sample taken
    inside the command, so that a tracer can keep it out of its spans.
    """

    def __init__(self, main, exclude=None):
        self.main = main
        self.exclude = exclude
        self.paces: list[float] = []
        self.sampling_s = 0.0

    def _on_timer(self, _signum, _frame) -> None:
        t0 = time.perf_counter_ns()
        self.paces.append(pace(SAMPLE_LOOP))
        dt = time.perf_counter_ns() - t0
        self.sampling_s += dt / 1e9
        if self.exclude is not None:
            self.exclude(dt)

    def run(self, args: list[str]) -> dict:
        out, err = io.StringIO(), io.StringIO()
        code = 0
        self.paces, self.sampling_s = [], 0.0
        signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                self.main(args, standalone_mode=False)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
            except click.ClickException as exc:
                exc.show()
                code = exc.exit_code
            except Exception:  # a crash is exit 1, the CLI's "bug" code
                traceback.print_exc()
                code = 1
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
        seconds = time.perf_counter() - t0 - self.sampling_s
        return {"args": args, "seconds": seconds, "code": code,
                "paces": self.paces, "stdout": out.getvalue(),
                "stderr": err.getvalue()[-2000:]}


def main() -> None:
    job = json.load(sys.stdin)
    command = Command(zclrp.cli.main)
    tracer = None
    if job["trace"]:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
        command = Command(tracer.span("cli", zclrp.cli.main), tracer.exclude)
    between = [pace()]
    results = []
    for args in job["commands"]:
        results.append(command.run(args))
        between.append(pace())
    for i, r in enumerate(results):
        nearby = between[max(0, i - PACE_WINDOW + 1):i + PACE_WINDOW + 1]
        r["pace_s"] = statistics.mean(nearby + r.pop("paces"))
        r["scaled_s"] = r["seconds"] * CALIBRATION_REF_S / r["pace_s"]
    payload = {
        "setup_s": SETUP_S,
        "setup_scaled_s": SETUP_S * CALIBRATION_REF_S / between[0],
        "backend": BACKEND_NAME,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "commands": results,
    }
    if tracer is not None:
        payload["layers"] = tracer.metrics()
        payload["absent_layers"] = tracer.absent
        payload["expectation_failures"] = tracer.expectation_failures(job["workload"])
    sys.stdout.write(json.dumps(payload) + "\n")


if __name__ == "__main__":
    main()
