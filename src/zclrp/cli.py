"""Command-line interface.

Exit codes: 0 success, 1 invariant violation (an internal certified check
failed, i.e. a bug), 2 undetermined (the work is over MAX_DP_CELLS,
checked before any work, or verify join passed every check but did not
sample every component key), 64 bad input: an option value out of range,
such as --m 0, with one line on stderr, or a usage error that click
reports itself, such as a missing option, a non-integer value or an
unknown subcommand, with click's usage message on stderr.  --help and
--version exit 0.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time

import click

from . import __version__
from ._kernels import BACKEND_NAME
from .bounds import build_table, emit
from .cuplength import (ZclResult, explicit_witness, g_stabilization_probe,
                        zcl_exact)
from .errors import InvariantViolationError, UndeterminedError
from .join_model import enough_samples, sample_report
from .parity import two_adic_profile
from .ring import RingSpec
from .zero_divisors import verify_generators_lemma

EX_USAGE = 64


def _guarded(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except UndeterminedError as exc:
            click.echo(f"undetermined: {exc}", err=True)
            sys.exit(2)
        except InvariantViolationError as exc:
            click.echo(f"invariant violation: {exc}", err=True)
            sys.exit(1)
    return wrapper


@contextlib.contextmanager
def _usage_errors_exit_usage():
    try:
        yield
    except click.UsageError as exc:
        exc.exit_code = EX_USAGE
        raise


class _Cli(click.Group):
    """The root group.  Every command is parsed and run inside its
    make_context and invoke, so click's usage errors exit EX_USAGE, not 2."""

    def make_context(self, *args, **kwargs):
        with _usage_errors_exit_usage():
            return super().make_context(*args, **kwargs)

    def invoke(self, ctx):
        with _usage_errors_exit_usage():
            return super().invoke(ctx)


def _bad_input(message: str) -> None:
    """Exit EX_USAGE with one line on stderr."""
    click.echo(f"bad input: {message}", err=True)
    sys.exit(EX_USAGE)


def _at_least(option: str, value: int, low: int) -> None:
    """Exit EX_USAGE with a one-line message when an option is below low."""
    if value < low:
        _bad_input(f"{option} must be >= {low}, got {value}")


def _echo_json(payload: dict) -> None:
    click.echo(json.dumps(payload, separators=(",", ":")))


def _parse_range(_ctx, _param, value: str) -> tuple[int, int]:
    lo, sep, hi = value.partition("..")
    if not sep:
        lo = hi = value
    try:
        bounds = int(lo), int(hi)
    except ValueError:
        raise click.BadParameter(f"expected A..B, got {value!r}")
    if bounds[0] > bounds[1]:
        raise click.BadParameter(f"empty range {value!r}")
    return bounds


def _zcl_payload(result: ZclResult, elapsed_ms: float) -> dict:
    return {"m": result.m, "s": result.s, "zcl": result.value,
            "method": result.method, "g": result.g,
            "witness": result.witness.as_dict(),
            "elapsed_ms": round(elapsed_ms, 3)}


@click.group(cls=_Cli)
@click.version_option(version=__version__, message=f"%(prog)s %(version)s ({BACKEND_NAME} kernel)")
def main():
    """Zero-divisor cup-lengths of (RP^m)^s and TC_s bound tables."""


@main.command()
@click.option("--m", type=int, required=True)
@_guarded
def profile(m):
    """Dyadic profile of m: trailing-ones length e, z, and sigma."""
    _at_least("--m", m, 1)
    _echo_json(two_adic_profile(m).as_dict())


@main.group()
def zcl():
    """Zero-divisor cup-length computations."""


@zcl.command("exact")
@click.option("--m", type=int, required=True)
@click.option("--s", type=int, required=True)
@_guarded
def zcl_exact_cmd(m, s):
    """Exact cup-length by a residue knapsack DP, with a certified witness.

    Shapes whose DP would exceed the work cap exit 2 before any work.
    """
    _at_least("--m", m, 1)
    _at_least("--s", s, 2)
    t0 = time.perf_counter()
    result = zcl_exact(m, s)
    _echo_json(_zcl_payload(result, (time.perf_counter() - t0) * 1000))


@zcl.command("witness")
@click.option("--m", type=int, required=True)
@click.option("--s", type=int, required=True)
@_guarded
def zcl_witness_cmd(m, s):
    """Closed-form lower-bound witness (no search); witness may be null."""
    _at_least("--m", m, 1)
    _at_least("--s", s, 2)
    t0 = time.perf_counter()
    w = explicit_witness(m, s)
    elapsed = (time.perf_counter() - t0) * 1000
    if w is None:
        _echo_json({"m": m, "s": s, "zcl": None, "method": None, "g": None,
                    "witness": None, "elapsed_ms": round(elapsed, 3)})
        return
    _echo_json({"m": m, "s": s, "zcl": w.length, "method": "witness_lower_bound",
                "g": s * m - w.length, "witness": w.as_dict(),
                "elapsed_ms": round(elapsed, 3)})


@zcl.command("probe")
@click.option("--m", type=int, required=True)
@click.option("--s-max", type=int, required=True)
@_guarded
def zcl_probe_cmd(m, s_max):
    """Gap sequence s*m - zcl over s = 2..s-max, with stabilization flag."""
    _at_least("--m", m, 1)
    _at_least("--s-max", s_max, 2)
    probe = g_stabilization_probe(m, s_max)
    _echo_json(probe.as_dict())


@main.group()
def verify():
    """Structural verifications (linear algebra, join model)."""


@verify.command("generators")
@click.option("--m", type=int, required=True)
@click.option("--s", type=int, required=True)
@click.option("--max-degree", type=int, default=None)
@_guarded
def verify_generators_cmd(m, s, max_degree):
    """Per degree: substitution kernel == span of (x_i + x_s) multiples."""
    _at_least("--m", m, 1)
    _at_least("--s", s, 2)
    if max_degree is not None:
        _at_least("--max-degree", max_degree, 1)
        if max_degree > s * m:
            _bad_input(f"--max-degree must be <= s*m = {s * m}, "
                       f"got {max_degree}")
    spec = RingSpec(m, s)
    checks = verify_generators_lemma(spec, max_degree)
    for check in checks:
        _echo_json(check.as_dict())
    if not all(c.passed for c in checks):
        raise InvariantViolationError("some degree failed; see output")


@verify.command("join")
@click.option("--s", type=int, required=True)
@click.option("--k", type=int, required=True)
@click.option("--samples", type=int, default=1000, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@_guarded
def verify_join_cmd(s, k, samples, seed):
    """Sampled component structure of U_j inside the stage-k join."""
    _at_least("--s", s, 2)
    _at_least("--k", k, 0)
    if not enough_samples(s, samples):
        # 2^(s-1) in digits while it is short enough to read
        need = 1 << (s - 1) if s <= 64 else f"2^{s - 1}"
        _bad_input(f"--samples must be >= 2^(s-1) = {need}, got {samples}")
    report = sample_report(s, k, samples=samples, seed=seed)
    _echo_json(report.as_dict())
    if not (report.equivariant and report.segment_checks_passed == report.samples):
        raise InvariantViolationError("join component checks failed")
    if not report.transitive:
        raise UndeterminedError(f"sampled {report.keys_found} of {1 << (s - 1)} "
                                "component keys; raise --samples")


@main.command()
@click.option("--m-range", callback=_parse_range, required=True,
              help="Inclusive range A..B of m values.")
@click.option("--s-range", callback=_parse_range, required=True,
              help="Inclusive range C..D of s values.")
@click.option("--policy", type=click.Choice(["exact", "witness-only"]),
              default="exact", show_default=True)
@click.option("--format", "fmt", type=click.Choice(["json", "csv"]),
              default="json", show_default=True)
@click.option("--cache", "cache_path", type=click.Path(dir_okay=False),
              default=None, envvar="ZCLRP_CACHE",
              help="Append-only JSONL result cache (default: $ZCLRP_CACHE).")
@_guarded
def report(m_range, s_range, policy, fmt, cache_path):
    """Bound-table rows s*m >= TC_s >= secat >= zcl over the given ranges.

    Rows over the work cap -- the DP's size under --policy exact, the check
    of the closed-form witness under witness-only -- are skipped with a note
    on stderr and exit code 2.
    """
    _at_least("--m-range start", m_range[0], 1)
    _at_least("--s-range start", s_range[0], 2)
    rows, skipped = build_table(m_range, s_range, policy.replace("-", "_"),
                                cache_path=cache_path)
    click.echo(emit(rows, fmt).decode(), nl=False)
    if skipped:
        for m, s, reason in skipped:
            click.echo(f"skipped ({m},{s}): {reason}", err=True)
        sys.exit(2)


if __name__ == "__main__":
    main()
