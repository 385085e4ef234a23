"""Layer spans recorded from outside the package, for the traced passes.

Each public function of a layer is replaced, at every name its callers look
it up by, with a wrapper that times the call and counts its work.  Spans
nest on one stack, so a span's self time is its duration minus the time of
the spans it encloses.  Time the harness spends on its own work inside a
span (a span's counter update, a pace sample taken by the worker) is
reported through ``exclude`` and taken out of the duration and self time of
every span open at that moment.  ``trace.overhead_ratio`` reports the total
cost of tracing.

The layer map below also states, per workload, which layers must run and
which must not.  A traced pass that breaks it fails the run: it means a
wrapper sits at a name nobody calls, or a workload no longer runs the layer
it was chosen for.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict

SEARCH = frozenset({"query", "table"})
TABLES = frozenset({"table", "table-cached"})
RINGS = frozenset({"table", "table-cached", "verify"})
VERIFY = frozenset({"verify"})

# span name -> (names it is bound at, workloads on which it must be called;
# on every other workload it must not be)
SPANS = {
    "cuplength.zcl_exact": (("zclrp.cuplength:zcl_exact", "zclrp.bounds:zcl_exact",
                             "zclrp.cli:zcl_exact"), SEARCH),
    "cuplength.verify_witness": (("zclrp.cuplength:verify_witness",
                                  "zclrp.bounds:verify_witness"), TABLES),
    "ring.get_ring": (("zclrp.ring:get_ring", "zclrp.cuplength:get_ring",
                       "zclrp.zero_divisors:get_ring"), RINGS),
    "ring.Ring.mul": (("zclrp.ring:Ring.mul",), RINGS),
    "ring.Ring.binomial_pow": (("zclrp.ring:Ring.binomial_pow",), TABLES),
    "gf2.rref": (("zclrp.gf2:rref", "zclrp.zero_divisors:rref"), VERIFY),
    "gf2.nullspace": (("zclrp.gf2:nullspace", "zclrp.zero_divisors:nullspace"), VERIFY),
    "zero_divisors.ideal_degree_basis": (("zclrp.zero_divisors:ideal_degree_basis",), VERIFY),
    "zero_divisors.kernel_basis": (("zclrp.zero_divisors:kernel_basis",), VERIFY),
    "join_model.sample_point": (("zclrp.join_model:sample_point",), VERIFY),
    "join_model.segment_in_component": (("zclrp.join_model:segment_in_component",), VERIFY),
    "join_model.sample_report": (("zclrp.join_model:sample_report",
                                  "zclrp.cli:sample_report"), VERIFY),
    "bounds.cache_get": (("zclrp.bounds:cache_get",), frozenset({"table-cached"})),
    "bounds.build_row": (("zclrp.bounds:build_row",), TABLES),
    "bounds.build_table": (("zclrp.bounds:build_table", "zclrp.cli:build_table"), TABLES),
    "bounds.emit": (("zclrp.bounds:emit", "zclrp.cli:emit"), TABLES),
}

# Counted but not timed: a span per call would cost more than the call.
# word_nonzero is the search's inner test; Ring.__init__ marks a ring build
# (a get_ring cache miss); _entry_from_json parses one cache line.
COUNTERS = {
    "cuplength.word_nonzero": (("zclrp.cuplength:word_nonzero",), SEARCH),
    "ring.Ring.__init__": (("zclrp.ring:Ring.__init__",), RINGS),
    "bounds._entry_from_json": (("zclrp.bounds:_entry_from_json",),
                                frozenset({"table-cached"})),
}

PER_LAYER = (
    ("cuplength.zcl_exact.calls", "count"),
    ("cuplength.zcl_exact.ms", "ms"),
    ("cuplength.word_nonzero.calls", "count"),
    ("cuplength.word_nonzero.hit_ratio", "ratio"),
    ("cuplength.verify_witness.calls", "count"),
    ("cuplength.verify_witness.self_ms", "ms"),
    ("ring.get_ring.builds", "count"),
    ("ring.get_ring.ms", "ms"),
    ("ring.get_ring.basis_bits", "bits"),
    ("ring.Ring.mul.calls", "count"),
    ("ring.Ring.mul.ms", "ms"),
    ("ring.Ring.mul.terms", "count"),
    ("ring.Ring.mul.peak_terms", "count"),
    ("ring.Ring.binomial_pow.ms", "ms"),
    ("gf2.rref.calls", "count"),
    ("gf2.rref.ms", "ms"),
    ("gf2.rref.rows_in", "count"),
    ("gf2.rref.rank_ratio", "ratio"),
    ("gf2.nullspace.ms", "ms"),
    ("zero_divisors.ideal_degree_basis.self_ms", "ms"),
    ("zero_divisors.kernel_basis.self_ms", "ms"),
    ("join_model.sample_point.calls", "count"),
    ("join_model.sample_point.ms", "ms"),
    ("join_model.segment_in_component.ms", "ms"),
    ("join_model.sample_report.self_ms", "ms"),
    ("bounds.cache_get.calls", "count"),
    ("bounds.cache_get.self_ms", "ms"),
    ("bounds.cache_get.hit_ratio", "ratio"),
    ("bounds.cache_get.lines_read", "count"),
    ("bounds.build_row.self_ms", "ms"),
    ("bounds.emit.ms", "ms"),
    ("cli.self_ms", "ms"),
    ("trace.overhead_ratio", "ratio"),
)


def _resolve(target: str):
    """(owner object, attribute name) for 'module:attr' or 'module:Class.attr';
    None when the package no longer has that name."""
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    return (owner, attr) if hasattr(owner, attr) else None


class Tracer:
    """Per-name call counts, total and self nanoseconds, and work counters."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.ns = defaultdict(int)
        self.self_ns = defaultdict(int)
        self.count = defaultdict(int)   # work counters, keyed "span.counter"
        self.peak = defaultdict(int)
        self.absent: list[str] = []     # layers with no bindable name left
        self._stack: list[int] = []
        self._excluded = [0]            # harness nanoseconds, running total

    def exclude(self, ns: int) -> None:
        """Take ns nanoseconds of harness work out of every open span."""
        self._excluded[0] += ns

    def span(self, name: str, fn, after=None):
        """Wrap fn in a timed span; after(result, args) updates counters."""
        calls, ns, self_ns, stack = self.calls, self.ns, self.self_ns, self._stack
        excluded = self._excluded
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            calls[name] += 1
            stack.append(0)
            x0 = excluded[0]
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0 - (excluded[0] - x0)
                inner = stack.pop()
                ns[name] += dt
                self_ns[name] += dt - inner
                if stack:
                    stack[-1] += dt
            if after is not None:
                t1 = clock()
                after(result, args)
                excluded[0] += clock() - t1
            return result
        return wrapper

    def counter(self, name: str, fn, after=None):
        """Wrap fn so that it is counted but not timed."""
        calls = self.calls

        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            calls[name] += 1
            if after is not None:
                after(result, args)
            return result
        return wrapper

    # -- counters computed from a call's arguments and result ---------------

    def _after(self, name: str):
        count, peak = self.count, self.peak
        if name == "ring.Ring.mul":
            def after(result, _args):
                terms = result.bits.bit_count()
                count["ring.Ring.mul.terms"] += terms
                if terms > peak["ring.Ring.mul.terms"]:
                    peak["ring.Ring.mul.terms"] = terms
            return after
        if name == "gf2.rref":
            def after(result, args):
                count["gf2.rref.rows_in"] += len(args[0])
                count["gf2.rref.rows_out"] += len(result)
            return after
        if name == "bounds.cache_get":
            def after(result, _args):
                count["bounds.cache_get.hits"] += result is not None
            return after
        if name == "cuplength.word_nonzero":
            def after(result, _args):
                count["cuplength.word_nonzero.hits"] += bool(result[0])
            return after
        if name == "ring.Ring.__init__":
            def after(_result, args):
                count["ring.get_ring.basis_bits"] += args[1].size
            return after
        return None

    def install(self) -> None:
        """Bind every span and counter at each of its names that still exists."""
        for table, make in ((SPANS, self.span), (COUNTERS, self.counter)):
            for name, (targets, _) in table.items():
                wrapped = {}
                for target in targets:
                    found = _resolve(target)
                    if found is None:
                        continue
                    owner, attr = found
                    original = getattr(owner, attr)
                    if id(original) not in wrapped:
                        wrapped[id(original)] = make(name, original, self._after(name))
                    setattr(owner, attr, wrapped[id(original)])
                if not wrapped:
                    self.absent.append(name)

    def expectation_failures(self, workload: str) -> list[str]:
        """Layers called where the map predicts none, or idle where it
        predicts work.  Layers whose names are all gone are not judged."""
        problems = []
        for table in (SPANS, COUNTERS):
            for name, (_, works_on) in table.items():
                if name in self.absent:
                    continue
                n = self.calls[name]
                if workload in works_on and n == 0:
                    problems.append(f"{name}: 0 calls on {workload}, expected some")
                elif workload not in works_on and n:
                    problems.append(f"{name}: {n} calls on {workload}, expected 0")
        return problems

    def metrics(self) -> dict[str, float]:
        """The per-layer metrics of one pass (all but trace.overhead_ratio).

        Commands run inside a "cli" span, so its self time is the command
        time that no layer span covers.
        """
        calls, ns, self_ns, count = self.calls, self.ns, self.self_ns, self.count

        def ms(x):
            return x / 1e6

        def ratio(a, b):
            return a / b if b else 0.0

        return {
            "cuplength.zcl_exact.calls": calls["cuplength.zcl_exact"],
            "cuplength.zcl_exact.ms": ms(ns["cuplength.zcl_exact"]),
            "cuplength.word_nonzero.calls": calls["cuplength.word_nonzero"],
            "cuplength.word_nonzero.hit_ratio": ratio(
                count["cuplength.word_nonzero.hits"], calls["cuplength.word_nonzero"]),
            "cuplength.verify_witness.calls": calls["cuplength.verify_witness"],
            "cuplength.verify_witness.self_ms": ms(self_ns["cuplength.verify_witness"]),
            "ring.get_ring.builds": calls["ring.Ring.__init__"],
            "ring.get_ring.ms": ms(ns["ring.get_ring"]),
            "ring.get_ring.basis_bits": count["ring.get_ring.basis_bits"],
            "ring.Ring.mul.calls": calls["ring.Ring.mul"],
            "ring.Ring.mul.ms": ms(ns["ring.Ring.mul"]),
            "ring.Ring.mul.terms": count["ring.Ring.mul.terms"],
            "ring.Ring.mul.peak_terms": self.peak["ring.Ring.mul.terms"],
            "ring.Ring.binomial_pow.ms": ms(ns["ring.Ring.binomial_pow"]),
            "gf2.rref.calls": calls["gf2.rref"],
            "gf2.rref.ms": ms(ns["gf2.rref"]),
            "gf2.rref.rows_in": count["gf2.rref.rows_in"],
            "gf2.rref.rank_ratio": ratio(count["gf2.rref.rows_out"],
                                         count["gf2.rref.rows_in"]),
            "gf2.nullspace.ms": ms(ns["gf2.nullspace"]),
            "zero_divisors.ideal_degree_basis.self_ms":
                ms(self_ns["zero_divisors.ideal_degree_basis"]),
            "zero_divisors.kernel_basis.self_ms":
                ms(self_ns["zero_divisors.kernel_basis"]),
            "join_model.sample_point.calls": calls["join_model.sample_point"],
            "join_model.sample_point.ms": ms(ns["join_model.sample_point"]),
            "join_model.segment_in_component.ms":
                ms(ns["join_model.segment_in_component"]),
            "join_model.sample_report.self_ms": ms(self_ns["join_model.sample_report"]),
            "bounds.cache_get.calls": calls["bounds.cache_get"],
            "bounds.cache_get.self_ms": ms(self_ns["bounds.cache_get"]),
            "bounds.cache_get.hit_ratio": ratio(count["bounds.cache_get.hits"],
                                                calls["bounds.cache_get"]),
            "bounds.cache_get.lines_read": calls["bounds._entry_from_json"],
            "bounds.build_row.self_ms": ms(self_ns["bounds.build_row"]),
            "bounds.emit.ms": ms(ns["bounds.emit"]),
            "cli.self_ms": ms(self_ns["cli"]),
        }
