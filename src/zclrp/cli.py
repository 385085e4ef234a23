"""Command-line interface, on the standard library's argparse.

The parser tree is built once, at import; each main() call only parses its
arguments and runs one command.  Exit codes: 0 success, 1 invariant
violation (an internal certified check failed, i.e. a bug), 2 undetermined
(the work is over MAX_DP_CELLS, checked before any work, or verify join
passed every check but did not sample every component key), 64 bad input:
an option value out of range, such as --m 0, with one line on stderr, or a
usage error, such as a missing option, a non-integer value, an unknown
option or subcommand, or a group run without a subcommand, with a
"Usage: " line and an "Error: " line on stderr.  --help and --version
exit 0.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys
import time

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
            print(f"undetermined: {exc}", file=sys.stderr)
            sys.exit(2)
        except InvariantViolationError as exc:
            print(f"invariant violation: {exc}", file=sys.stderr)
            sys.exit(1)
    return wrapper


def _bad_input(message: str) -> None:
    """Exit EX_USAGE with one line on stderr."""
    print(f"bad input: {message}", file=sys.stderr)
    sys.exit(EX_USAGE)


def _at_least(option: str, value: int, low: int) -> None:
    """Exit EX_USAGE with a one-line message when an option is below low."""
    if value < low:
        _bad_input(f"{option} must be >= {low}, got {value}")


def _echo_json(payload: dict) -> None:
    # flushed, so that stdout comes before a following stderr line when
    # both go to one file
    print(json.dumps(payload, separators=(",", ":")), flush=True)


def _parse_range(value: str) -> tuple[int, int]:
    lo, sep, hi = value.partition("..")
    if not sep:
        lo = hi = value
    try:
        bounds = int(lo), int(hi)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected A..B, got {value!r}")
    if bounds[0] > bounds[1]:
        raise argparse.ArgumentTypeError(f"empty range {value!r}")
    return bounds


def _zcl_payload(result: ZclResult, elapsed_ms: float) -> dict:
    return {"m": result.m, "s": result.s, "zcl": result.value,
            "method": result.method, "g": result.g,
            "witness": result.witness.as_dict(),
            "elapsed_ms": round(elapsed_ms, 3)}


# -- commands ---------------------------------------------------------------------
# Each command looks the package functions it runs up as globals of this
# module when it runs, so that a caller can rebind them here (tests,
# benchmark tracing).

@_guarded
def profile_cmd(m):
    """Dyadic profile of m: trailing-ones length e, z, and sigma."""
    _at_least("--m", m, 1)
    _echo_json(two_adic_profile(m).as_dict())


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


@_guarded
def zcl_probe_cmd(m, s_max):
    """Gap sequence s*m - zcl over s = 2..s-max, with stabilization flag."""
    _at_least("--m", m, 1)
    _at_least("--s-max", s_max, 2)
    probe = g_stabilization_probe(m, s_max)
    _echo_json(probe.as_dict())


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


@_guarded
def report_cmd(m_range, s_range, policy, fmt, cache_path):
    """Bound-table rows s*m >= TC_s >= secat >= zcl over the given ranges.

    Rows over the work cap -- the DP's size under --policy exact, the check
    of the closed-form witness under witness-only -- are skipped with a note
    on stderr and exit code 2.  A grid of more rows than the cap exits 2
    before any row.
    """
    if cache_path is None:
        cache_path = os.environ.get("ZCLRP_CACHE") or None
    if cache_path == "":
        _bad_input("the cache path is empty")
    if cache_path is not None:
        if os.path.isdir(cache_path):
            _bad_input(f"the cache {cache_path!r} is a directory")
        if not os.path.isdir(os.path.dirname(cache_path) or "."):
            _bad_input(f"the cache {cache_path!r} is in no existing directory")
    _at_least("--m-range start", m_range[0], 1)
    _at_least("--s-range start", s_range[0], 2)
    rows, skipped = build_table(m_range, s_range, policy.replace("-", "_"),
                                cache_path=cache_path)
    sys.stdout.write(emit(rows, fmt).decode())
    sys.stdout.flush()
    if skipped:
        for m, s, reason in skipped:
            print(f"skipped ({m},{s}): {reason}", file=sys.stderr)
        sys.exit(2)


# -- the parser tree --------------------------------------------------------------

class _Formatter(argparse.HelpFormatter):
    """Help with a "Usage: " prefix and the paragraphs of a docstring kept."""

    def _format_usage(self, usage, actions, groups, prefix):
        # add_subparsers asks for a usage with prefix "" to make each
        # subcommand's prog; only argparse's default, None, is replaced
        if prefix is None:
            prefix = "Usage: "
        return super()._format_usage(usage, actions, groups, prefix)

    def _fill_text(self, text, width, indent):
        fill = super()._fill_text
        return "\n\n".join(fill(p, width, indent) for p in text.split("\n\n"))


class _Parser(argparse.ArgumentParser):
    """A parser whose usage errors exit EX_USAGE with a "Usage: " line and an
    "Error: " line on stderr, from the innermost subcommand.  Options are
    never abbreviated (--sam is not --samples), help is --help alone, and a
    value may start with "-" and a digit (--m-range -3..2 is bad input)."""

    def __init__(self, **kwargs):
        super().__init__(formatter_class=_Formatter, allow_abbrev=False,
                         add_help=False, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\d")
        self.add_argument("--help", action="help",
                          help="Show this message and exit.")

    def parse_known_args(self, args=None, namespace=None):
        # a subcommand's parser is run by parse_known_args, so this refuses
        # an unknown argument with that subcommand's usage
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return namespace, extras

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"Error: {message}", file=sys.stderr)
        sys.exit(EX_USAGE)


def _subcommands(parser: _Parser, name: str):
    # the namespace keys of subcommand names start with "_", so main can
    # tell them from options
    return parser.add_subparsers(dest=f"_{name}", metavar="COMMAND",
                                 required=True)


def _group(subparsers, name: str, doc: str):
    return _subcommands(subparsers.add_parser(name, help=doc, description=doc),
                        name)


def _command(subparsers, name: str, handler) -> _Parser:
    doc = handler.__doc__
    parser = subparsers.add_parser(name, help=doc.split("\n", 1)[0],
                                   description=doc)
    parser.set_defaults(_handler=handler)
    return parser


def _build_parser() -> _Parser:
    root = _Parser(prog="zclrp", description="Zero-divisor cup-lengths of "
                   "(RP^m)^s and TC_s bound tables.")
    root.add_argument("--version", action="version",
                      version=f"zclrp {__version__} ({BACKEND_NAME} kernel)",
                      help="Show the version and exit.")
    commands = _subcommands(root, "command")

    _command(commands, "profile", profile_cmd).add_argument(
        "--m", type=int, required=True)

    zcl = _group(commands, "zcl", "Zero-divisor cup-length computations.")
    for name, handler in (("exact", zcl_exact_cmd), ("witness", zcl_witness_cmd)):
        parser = _command(zcl, name, handler)
        parser.add_argument("--m", type=int, required=True)
        parser.add_argument("--s", type=int, required=True)
    parser = _command(zcl, "probe", zcl_probe_cmd)
    parser.add_argument("--m", type=int, required=True)
    parser.add_argument("--s-max", type=int, required=True)

    verify = _group(commands, "verify",
                    "Structural verifications (linear algebra, join model).")
    parser = _command(verify, "generators", verify_generators_cmd)
    parser.add_argument("--m", type=int, required=True)
    parser.add_argument("--s", type=int, required=True)
    parser.add_argument("--max-degree", type=int, default=None)
    parser = _command(verify, "join", verify_join_cmd)
    parser.add_argument("--s", type=int, required=True)
    parser.add_argument("--k", type=int, required=True)
    parser.add_argument("--samples", type=int, default=1000,
                        help="(default: %(default)s)")
    parser.add_argument("--seed", type=int, default=0,
                        help="(default: %(default)s)")

    report = _command(commands, "report", report_cmd)
    report.add_argument("--m-range", type=_parse_range, required=True,
                        metavar="A..B", help="Inclusive range A..B of m values.")
    report.add_argument("--s-range", type=_parse_range, required=True,
                        metavar="C..D", help="Inclusive range C..D of s values.")
    report.add_argument("--policy", choices=("exact", "witness-only"),
                        default="exact", help="(default: %(default)s)")
    report.add_argument("--format", dest="fmt", choices=("json", "csv"),
                        default="json", help="(default: %(default)s)")
    report.add_argument("--cache", dest="cache_path", metavar="PATH",
                        help="Append-only JSONL result cache "
                             "(default: $ZCLRP_CACHE).")
    return root


_PARSER = _build_parser()


def main(args: list[str] | None = None, *, standalone_mode: bool = True) -> None:
    """Run the command that args (default: sys.argv[1:]) name.

    Every exit code but 0 leaves by SystemExit, as do --help and --version.
    standalone_mode changes nothing; it is accepted for callers written
    against the click-based main of earlier versions.
    """
    options = vars(_PARSER.parse_args(args))
    handler = options.pop("_handler")
    handler(**{key: value for key, value in options.items()
               if not key.startswith("_")})


if __name__ == "__main__":
    main()
