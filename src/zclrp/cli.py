"""Command-line interface, on the standard library's argparse.

Commands live in one flat table from their command words to a handler and
its options.  main() takes the leading words while they name an entry.  A
rest of plain "--option value" pairs that argparse would take as given is
read straight off the entry's options; anything else (--help, --version,
--opt=value, a repeated option, "--", a value that fails its type or
choices, a missing option, a group) goes to the entry's argparse parser,
built on first use, so argparse alone formats help and usage errors.  Then
main() runs the entry's handler.  Every command emits only what it has
decided.  Exit codes: 0 success, 1 invariant violation (an internal
certified check failed, i.e. a bug), 2 undetermined (the work is over
MAX_DP_CELLS, checked before any work), 64 bad input: an option value out
of range, such as --m 0, with one line on stderr, or a usage error, such
as a missing option, a non-integer value, an unknown option, choice or
subcommand, or a group run without a subcommand, with a "Usage: " line and
an "Error: " line on stderr.  --help and --version exit 0.  A line on
stderr gives an integer of more than 20 digits by its length
(errors.short_ints).
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
from .cuplength import ZclResult, g_stabilization_probe, zcl_exact
from .errors import InvariantViolationError, UndeterminedError, short_ints
from .join_model import sample_report
from .parity import two_adic_profile
from .ring import RingSpec
from .zero_divisors import verify_generators_lemma

EX_USAGE = 64


def _bad_input(message: str) -> None:
    """Exit EX_USAGE with one short line on stderr."""
    print(short_ints(f"bad input: {message}"), file=sys.stderr)
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

def profile_cmd(m):
    """Dyadic profile of m: trailing-ones length e, z, and sigma."""
    _at_least("--m", m, 1)
    _echo_json(two_adic_profile(m).as_dict())


def zcl_exact_cmd(m, s):
    """Exact cup-length by the residue digit greedy, with a certified witness.

    Shapes whose charge, 2*(s-1) steps to build and check the witness's
    factors, is over the work cap exit 2 before the greedy runs.
    """
    _at_least("--m", m, 1)
    _at_least("--s", s, 2)
    t0 = time.perf_counter()
    result = zcl_exact(m, s)
    _echo_json(_zcl_payload(result, (time.perf_counter() - t0) * 1000))


def zcl_probe_cmd(m, s_max):
    """Gap sequence s*m - zcl over s = 2..s-max, with stabilization flag."""
    _at_least("--m", m, 1)
    _at_least("--s-max", s_max, 2)
    probe = g_stabilization_probe(m, s_max)
    _echo_json(probe.as_dict())


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
    failed = [c for c in checks if not c.passed]
    if failed:  # within the work cap a mismatch is at most 86 bytes, at (1, 16)
        raise InvariantViolationError(
            f"{len(failed)} of {len(checks)} degrees failed; the first is "
            f"degree {failed[0].degree}, mismatch {failed[0].mismatch}")


def verify_join_cmd(s, k, samples, seed):
    """Sampled component structure of U_j inside the stage-k join."""
    _at_least("--s", s, 2)
    _at_least("--k", k, 0)
    _at_least("--samples", samples, 1)
    report = sample_report(s, k, samples=samples, seed=seed)
    _echo_json(report.as_dict())
    if not (report.transitive and report.segment_checks_passed == report.samples):
        raise InvariantViolationError("join component checks failed")


def report_cmd(m_range, s_range, policy, fmt, cache_path):
    """Bound-table rows s*m >= TC_s >= secat >= zcl over the given ranges.

    Each row holds the exact zcl.  Rows whose charge, the check's bound for
    their witness, is over the work cap are skipped with a note on stderr
    and exit code 2.  A grid of more rows than the cap exits 2 before any
    row.
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
    rows, skipped = build_table(m_range, s_range, cache_path=cache_path)
    sys.stdout.write(emit(rows, fmt).decode())
    sys.stdout.flush()
    if skipped:
        for m, s, reason in skipped:
            print(short_ints(f"skipped ({m},{s}): {reason}"), file=sys.stderr)
        sys.exit(2)


# -- the command table ------------------------------------------------------------

class _Formatter(argparse.HelpFormatter):
    """Help with a "Usage: " prefix, the paragraphs of a docstring kept and
    each word of a group's COMMAND listed with its summary."""

    def _format_usage(self, usage, actions, groups, prefix):
        return super()._format_usage(usage, actions, groups, "Usage: ")

    def _fill_text(self, text, width, indent):
        fill = super()._fill_text
        return "\n\n".join(fill(p, width, indent) for p in text.split("\n\n"))

    def _iter_indented_subactions(self, action):
        # a group's COMMAND has a dict of choices, word -> summary
        if isinstance(action.choices, dict):
            self._indent()
            for word, summary in action.choices.items():
                yield argparse.Action((), word, help=summary)
            self._dedent()


# a value that starts with "-" is an option to argparse unless it matches this;
# _Parser gives it to argparse and _read judges values by it
_NEGATIVE = re.compile(r"^-\d")


class _Parser(argparse.ArgumentParser):
    """A parser whose usage errors exit EX_USAGE with a "Usage: " line and an
    "Error: " line on stderr.  Options are never abbreviated (--sam is not
    --samples), help is --help alone, and a value may start with "-" and a
    digit (--m-range -3..2 is bad input)."""

    def __init__(self, **kwargs):
        super().__init__(formatter_class=_Formatter, allow_abbrev=False,
                         add_help=False, **kwargs)
        self._negative_number_matcher = _NEGATIVE
        self.add_argument("--help", action="help",
                          help="Show this message and exit.")

    def error(self, message):
        self.print_usage(sys.stderr)
        print(short_ints(f"Error: {message}"), file=sys.stderr)
        sys.exit(EX_USAGE)


_INT = {"type": int, "required": True}
_DEFAULT = "(default: %(default)s)"

# command words -> (the command's handler, or a group's one-line doc; its
# options as add_argument keywords).  The groups are the root, zcl and verify.
_TABLE = {
    (): ("Zero-divisor cup-lengths of (RP^m)^s and TC_s bound tables.", {
        "--version": {"action": "version",
                      "version": f"zclrp {__version__} ({BACKEND_NAME} kernel)",
                      "help": "Show the version and exit."}}),
    ("profile",): (profile_cmd, {"--m": _INT}),
    ("zcl",): ("Zero-divisor cup-length computations.", {}),
    ("zcl", "exact"): (zcl_exact_cmd, {"--m": _INT, "--s": _INT}),
    ("zcl", "probe"): (zcl_probe_cmd, {"--m": _INT, "--s-max": _INT}),
    ("verify",): ("Structural verifications (linear algebra, join model).", {}),
    ("verify", "generators"): (verify_generators_cmd, {
        "--m": _INT, "--s": _INT, "--max-degree": {"type": int}}),
    ("verify", "join"): (verify_join_cmd, {
        "--s": _INT, "--k": _INT,
        "--samples": {"type": int, "default": 1000, "help": _DEFAULT},
        "--seed": {"type": int, "default": 0, "help": _DEFAULT}}),
    ("report",): (report_cmd, {
        "--m-range": {"type": _parse_range, "required": True, "metavar": "A..B",
                      "help": "Inclusive range A..B of m values."},
        "--s-range": {"type": _parse_range, "required": True, "metavar": "C..D",
                      "help": "Inclusive range C..D of s values."},
        # one choice, kept so that existing scripts that pass --policy exact,
        # the benchmark's among them, still run
        "--policy": {"choices": ("exact",), "default": "exact",
                     "help": _DEFAULT},
        "--format": {"dest": "fmt", "choices": ("json", "csv"),
                     "default": "json", "help": _DEFAULT},
        "--cache": {"dest": "cache_path", "metavar": "PATH",
                    "help": "Append-only JSONL result cache "
                            "(default: $ZCLRP_CACHE)."}}),
}


def _doc(head) -> str:
    return head if isinstance(head, str) else head.__doc__


@functools.cache
def _parser(words: tuple[str, ...]) -> _Parser:
    """The argparse parser of the entry that words name, built on first use."""
    head, options = _TABLE[words]
    parser = _Parser(prog=" ".join(("zclrp", *words)), description=_doc(head))
    for option, kwargs in options.items():
        parser.add_argument(option, **kwargs)
    if isinstance(head, str):
        # main runs a group's parser only when the next word names none of
        # its commands, so it ends in help or a usage error; nargs=PARSER
        # keeps a "--" as that word and ends the usage with "COMMAND ..."
        parser.add_argument("command", metavar="COMMAND", nargs=argparse.PARSER,
                            choices={key[-1]: _doc(entry).split("\n", 1)[0]
                                     for key, (entry, _) in _TABLE.items()
                                     if key and key[:-1] == words})
    return parser


def _read(words: tuple[str, ...], rest: list[str]) -> dict | None:
    """The options of the command that words name, read straight off its
    table entry, or None where its parser must read rest.

    They are read when rest is "--option value" pairs that the parser would
    take as given: each option spelled in full and given once, no value
    that the parser would take for an option, each value converted by the
    option's type and among its choices, and every required option given;
    the others take their defaults.  A group's rest is always None.
    """
    head, options = _TABLE[words]
    pairs = dict(zip(rest[::2], rest[1::2]))
    if isinstance(head, str) or 2 * len(pairs) != len(rest):
        return None
    read = {}
    for option, kwargs in options.items():
        dest = kwargs.get("dest", option[2:].replace("-", "_"))
        if option not in pairs:
            if kwargs.get("required"):
                return None
            read[dest] = kwargs.get("default")
            continue
        value = pairs.pop(option)
        if value[:1] == "-" and not _NEGATIVE.match(value):
            return None
        try:
            value = kwargs.get("type", str)(value)
        except (argparse.ArgumentTypeError, TypeError, ValueError):
            return None
        if "choices" in kwargs and value not in kwargs["choices"]:
            return None
        read[dest] = value
    return None if pairs else read


def main(args: list[str] | None = None, *, standalone_mode: bool = True) -> None:
    """Run the command that args (default: sys.argv[1:]) name.

    Every exit code but 0 leaves by SystemExit, as do --help and --version.
    standalone_mode changes nothing; it is accepted for callers written
    against the click-based main of earlier versions.
    """
    if args is None:
        args = sys.argv[1:]
    words = ()
    for word in args:
        if words + (word,) not in _TABLE:
            break
        words += (word,)
    rest = args[len(words):]
    options = _read(words, rest)
    if options is None:
        options = vars(_parser(words).parse_args(rest))
    try:
        _TABLE[words][0](**options)
    except UndeterminedError as exc:
        print(f"undetermined: {exc}", file=sys.stderr)
        sys.exit(2)
    except InvariantViolationError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        sys.exit(1)


if __name__ == "__main__":
    main()
