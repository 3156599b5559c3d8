"""Span tracer for the benchmark's traced run, and the per-layer metrics.

The program carries no tracing code.  `install` wraps the public functions
of the five modules where their callers look them up -- module globals such
as `search.build_qpq`, names imported into another module such as
`asymptotics.sturm_count`, and class attributes such as
`IntPoly.eval_mod` -- so that every call opens and closes a span.

Spans are aggregated per name as they close (calls, busy time, self time)
instead of being kept one by one: a search over p <= 40 makes about 1.8 * 10^5
calls to `IntPoly.eval_mod` alone.  A span's self time is its duration minus
the durations of its direct child spans; within one thread, child spans
never overlap, so their sum is the part of the parent they cover.

A name that a later version of the program deletes is recorded as absent
and its metrics read 0; it is not an error.
"""

from __future__ import annotations

import inspect
import os
import time

# Span names that the metric derivation and the wrappers share.
SCAN = "search.scan_pair"
REPLAY = "search.replay"
EVAL_INT = "exact_arith.eval_int"
POOL_WAIT = "search.pool_wait"
MERGE = "search.merge"


class Tracer:
    """Aggregating span recorder for one thread of one process.

    `stats[name]` is `[calls, busy_s, self_s]`; `counts[name]` is an integer
    counter.  A span nested inside a span of the same name adds its calls
    and self time but not its busy time, so busy time is never counted
    twice.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.enabled = True
        self.stats = {}
        self.counts = {}
        self._stack = []  # open spans: [name, start, time covered by children]
        self._open = {}  # name -> number of open spans with that name

    def top(self):
        return self._stack[-1][0] if self._stack else None

    def open(self, name):
        self._open[name] = self._open.get(name, 0) + 1
        self._stack.append([name, self.clock(), 0.0])

    def close(self):
        end = self.clock()
        name, start, covered = self._stack.pop()
        duration = end - start
        depth = self._open[name] - 1
        self._open[name] = depth
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = [0, 0.0, 0.0]
        st[0] += 1
        if depth == 0:
            st[1] += duration
        st[2] += duration - covered
        if self._stack:
            self._stack[-1][2] += duration

    def add_busy(self, name, seconds):
        """Time spent outside any wrapped call, such as waiting on a pool."""
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = [0, 0.0, 0.0]
        st[0] += 1
        st[1] += seconds
        st[2] += seconds

    def count(self, name, n=1):
        self.counts[name] = self.counts.get(name, 0) + n


def _span(tracer, name, fn, name_for=None, after=None):
    """Wrap `fn` in a span.  `name_for(args, kwargs)` picks the span name
    per call; `after(span, parent, result)` records counters from the
    result.  In a forked pool worker the tracer is disabled and the wrapper
    only passes the call through."""

    def wrapped(*args, **kwargs):
        if not tracer.enabled:
            return fn(*args, **kwargs)
        span = name_for(args, kwargs) if name_for else name
        parent = tracer.top()
        tracer.open(span)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close()
        if after is not None:
            after(span, parent, result)
        return result

    wrapped.__name__ = getattr(fn, "__name__", name)
    return wrapped


def _counted(tracer, name, fn):
    """Count calls without timing them; their time stays in the caller."""

    def wrapped(*args, **kwargs):
        if tracer.enabled:
            tracer.count(name)
        return fn(*args, **kwargs)

    wrapped.__name__ = getattr(fn, "__name__", name)
    return wrapped


def _timed_results(tracer, results):
    """Iterate pool results, timing how long the parent blocks on each one
    (pool wait) and how long it works between them (merge)."""
    clock = tracer.clock
    while True:
        start = clock()
        try:
            item = next(results)
        except StopIteration:
            tracer.add_busy(POOL_WAIT, clock() - start)
            return
        got = clock()
        tracer.add_busy(POOL_WAIT, got - start)
        yield item
        tracer.add_busy(MERGE, clock() - got)


def _pool_class(tracer, base):
    class TracedPool(base):
        def map(self, fn, *iterables, **kwargs):
            return _timed_results(tracer, super().map(fn, *iterables, **kwargs))

    return TracedPool


def _evaluate_flag(args, kwargs):
    """Span name for `scan_pair(pair, config, evaluate=True)`: calls with
    evaluate=False only rebuild counters on resume."""
    evaluate = kwargs.get("evaluate", args[2] if len(args) > 2 else True)
    return SCAN if evaluate else REPLAY


def _after_pairs(tracer):
    def after(span, parent, pairs):
        tracer.count("search.pairs_walked", len(pairs))
    return after


def _after_bounds(tracer):
    def after(span, parent, bounds):
        if bounds is not None:
            tracer.count("search.pairs_nonempty")
    return after


def _after_scan(tracer):
    def after(span, parent, scan):
        if span != SCAN:
            return
        tested = getattr(scan, "t_tested", 0)
        tracer.count("search.candidates", tested + getattr(scan, "sieve_rejections", 0))
        tracer.count("search.sieve_passed", tested)
        tracer.count("search.hits", len(getattr(scan, "hits", ())))
    return after


def _after_eval_int(tracer):
    def after(span, parent, value):
        if parent == SCAN:
            tracer.count("search.exact_evals")
            if value == 0:
                tracer.count("search.roots")
    return after


# (module, attribute where callers look the name up, span name, kind)
SITES = (
    ("cli", "main", "cli.main", "span"),
    ("cli", "sturm_count", "exact_arith.sturm_count", "span"),
    ("search", "run_search", "search.run_search", "span"),
    ("search", "pairs_for_p", "search.pairs_for_p", "pairs"),
    ("search", "t_bounds", "search.t_bounds", "bounds"),
    ("search", "scan_pair", SCAN, "scan"),
    ("search", "modular_sieve", "search.modular_sieve", "span"),
    ("search", "divisor_candidates", "search.divisor_candidates", "span"),
    ("search", "build_qpq", "cuboid_eqs.build_qpq", "span"),
    ("search", "reconstruct_cuboid", "cuboid_eqs.reconstruct_cuboid", "count"),
    ("search", "SearchCheckpoint.write", "search.checkpoint_write", "span"),
    ("search", "SearchCheckpoint.read", "search.checkpoint_read", "span"),
    ("search", "ProcessPoolExecutor", "search.pool", "pool"),
    ("cuboid_eqs", "build_qpq", "cuboid_eqs.build_qpq", "span"),
    ("cuboid_eqs", "factorization_check", "cuboid_eqs.factorization_check", "span"),
    ("cuboid_eqs", "reconstruct_cuboid", "cuboid_eqs.reconstruct_cuboid", "count"),
    ("asymptotics", "certify_roots", "asymptotics.certify_roots", "span"),
    ("asymptotics", "asymptotic_intervals", "asymptotics.asymptotic_intervals", "span"),
    ("asymptotics", "check_disjoint", "asymptotics.check_disjoint", "span"),
    ("asymptotics", "build_qpq", "cuboid_eqs.build_qpq", "span"),
    ("asymptotics", "sturm_count", "exact_arith.sturm_count", "span"),
    ("asymptotics", "eval_poly_quad", "exact_arith.eval_poly_quad", "span"),
    ("asymptotics", "quad_sign", "exact_arith.quad_sign", "count"),
    ("exact_arith", "sturm_sequence", "exact_arith.sturm_sequence", "span"),
    ("exact_arith", "sturm_count", "exact_arith.sturm_count", "span"),
    ("exact_arith", "eval_poly_quad", "exact_arith.eval_poly_quad", "span"),
    ("exact_arith", "quad_sign", "exact_arith.quad_sign", "count"),
    ("exact_arith", "IntPoly.eval_mod", "exact_arith.eval_mod", "span"),
    ("exact_arith", "IntPoly.eval_int", EVAL_INT, "eval_int"),
    ("exact_arith", "IntPoly.__mul__", "exact_arith.IntPoly.mul", "span"),
)


def _wrap(tracer, kind, name, fn):
    if kind == "count":
        return _counted(tracer, name, fn)
    if kind == "pool":
        return _pool_class(tracer, fn)
    if kind == "pairs":
        return _span(tracer, name, fn, after=_after_pairs(tracer))
    if kind == "bounds":
        return _span(tracer, name, fn, after=_after_bounds(tracer))
    if kind == "scan":
        return _span(tracer, name, fn, name_for=_evaluate_flag, after=_after_scan(tracer))
    if kind == "eval_int":
        return _span(tracer, name, fn, after=_after_eval_int(tracer))
    return _span(tracer, name, fn)


def install(tracer, modules):
    """Wrap every site in SITES; return the sorted list of absent ones.

    `modules` maps the short module names used in SITES to the imported
    modules.  Forked pool workers inherit the wrappers, so the tracer turns
    itself off in them: spans are recorded on the parent side only.
    """
    absent = []
    for module_name, attr, name, kind in SITES:
        owner = modules[module_name]
        *outer, leaf = attr.split(".")
        for part in outer:
            owner = getattr(owner, part, None)
        raw = None
        if owner is not None:
            raw = owner.__dict__.get(leaf) if isinstance(owner, type) else getattr(owner, leaf, None)
        if raw is None:
            absent.append(f"{module_name}.{attr}")
            continue
        if isinstance(raw, staticmethod):
            setattr(owner, leaf, staticmethod(_wrap(tracer, kind, name, raw.__func__)))
        else:
            setattr(owner, leaf, _wrap(tracer, kind, name, raw))
        if kind == "scan" and "evaluate" not in inspect.signature(raw).parameters:
            absent.append(f"{module_name}.{attr}(evaluate)")
    os.register_at_fork(after_in_child=lambda: setattr(tracer, "enabled", False))
    return sorted(absent)


# Per-layer metrics: name -> unit.  The order is the order of the report.
LAYER_METRICS = {
    "search.pairs_walked": "count",
    "search.pairs_nonempty": "count",
    "search.nonempty_ratio": "ratio",
    "search.pairs_for_p.busy_s": "s",
    "search.t_bounds.busy_s": "s",
    "search.scan_pair.calls": "count",
    "search.scan_pair.self_s": "s",
    "search.modular_sieve.calls": "count",
    "search.modular_sieve.busy_s": "s",
    "search.candidates": "count",
    "search.sieve_pass_ratio": "ratio",
    "search.exact_evals": "count",
    "search.roots": "count",
    "search.hits": "count",
    "search.replay_s": "s",
    "search.replay_pairs": "count",
    "search.checkpoint_write.calls": "count",
    "search.checkpoint_write.busy_s": "s",
    "search.checkpoint_read.busy_s": "s",
    "search.pool_wait_s": "s",
    "search.merge_s": "s",
    "exact_arith.eval_mod.calls": "count",
    "exact_arith.eval_mod.busy_s": "s",
    "exact_arith.eval_int.calls": "count",
    "exact_arith.eval_int.busy_s": "s",
    "exact_arith.sturm_sequence.calls": "count",
    "exact_arith.sturm_sequence.busy_s": "s",
    "exact_arith.sturm_count.busy_s": "s",
    "exact_arith.eval_poly_quad.busy_s": "s",
    "exact_arith.quad_sign.calls": "count",
    "exact_arith.IntPoly.mul.busy_s": "s",
    "cuboid_eqs.build_qpq.calls_per_nonempty_pair": "ratio",
    "cuboid_eqs.build_qpq.busy_s": "s",
    "cuboid_eqs.factorization_check.busy_s": "s",
    "cuboid_eqs.reconstruct_cuboid.calls": "count",
    "asymptotics.certify_roots.busy_s": "s",
    "asymptotics.certify_roots.self_s": "s",
    "asymptotics.asymptotic_intervals.busy_s": "s",
    "asymptotics.check_disjoint.busy_s": "s",
    "cli.main.calls": "count",
    "cli.main.self_s": "s",
    "trace.overhead_s": "s",
}


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(stats, counts):
    """Per-layer metric values from one traced call sequence.

    `trace.overhead_s` compares traced with untraced runs, so the caller
    fills it in.
    """

    def field(name, i):
        return stats.get(name, (0, 0.0, 0.0))[i]

    def calls(name):
        return field(name, 0)

    def busy(name):
        return field(name, 1)

    def self_s(name):
        return field(name, 2)

    def count(name):
        return counts.get(name, 0)

    walked = count("search.pairs_walked")
    nonempty = count("search.pairs_nonempty")
    candidates = count("search.candidates")
    values = {
        "search.pairs_walked": walked,
        "search.pairs_nonempty": nonempty,
        "search.nonempty_ratio": _ratio(nonempty, walked),
        "search.pairs_for_p.busy_s": busy("search.pairs_for_p"),
        "search.t_bounds.busy_s": busy("search.t_bounds"),
        "search.scan_pair.calls": calls(SCAN),
        "search.scan_pair.self_s": self_s(SCAN),
        "search.modular_sieve.calls": calls("search.modular_sieve"),
        "search.modular_sieve.busy_s": busy("search.modular_sieve"),
        "search.candidates": candidates,
        "search.sieve_pass_ratio": _ratio(count("search.sieve_passed"), candidates),
        "search.exact_evals": count("search.exact_evals"),
        "search.roots": count("search.roots"),
        "search.hits": count("search.hits"),
        "search.replay_s": busy(REPLAY),
        "search.replay_pairs": calls(REPLAY),
        "search.checkpoint_write.calls": calls("search.checkpoint_write"),
        "search.checkpoint_write.busy_s": busy("search.checkpoint_write"),
        "search.checkpoint_read.busy_s": busy("search.checkpoint_read"),
        "search.pool_wait_s": busy(POOL_WAIT),
        "search.merge_s": busy(MERGE),
        "exact_arith.eval_mod.calls": calls("exact_arith.eval_mod"),
        "exact_arith.eval_mod.busy_s": busy("exact_arith.eval_mod"),
        "exact_arith.eval_int.calls": calls(EVAL_INT),
        "exact_arith.eval_int.busy_s": busy(EVAL_INT),
        "exact_arith.sturm_sequence.calls": calls("exact_arith.sturm_sequence"),
        "exact_arith.sturm_sequence.busy_s": busy("exact_arith.sturm_sequence"),
        "exact_arith.sturm_count.busy_s": busy("exact_arith.sturm_count"),
        "exact_arith.eval_poly_quad.busy_s": busy("exact_arith.eval_poly_quad"),
        "exact_arith.quad_sign.calls": count("exact_arith.quad_sign"),
        "exact_arith.IntPoly.mul.busy_s": busy("exact_arith.IntPoly.mul"),
        "cuboid_eqs.build_qpq.calls_per_nonempty_pair": _ratio(
            calls("cuboid_eqs.build_qpq"), nonempty
        ),
        "cuboid_eqs.build_qpq.busy_s": busy("cuboid_eqs.build_qpq"),
        "cuboid_eqs.factorization_check.busy_s": busy("cuboid_eqs.factorization_check"),
        "cuboid_eqs.reconstruct_cuboid.calls": count("cuboid_eqs.reconstruct_cuboid"),
        "asymptotics.certify_roots.busy_s": busy("asymptotics.certify_roots"),
        "asymptotics.certify_roots.self_s": self_s("asymptotics.certify_roots"),
        "asymptotics.asymptotic_intervals.busy_s": busy("asymptotics.asymptotic_intervals"),
        "asymptotics.check_disjoint.busy_s": busy("asymptotics.check_disjoint"),
        "cli.main.calls": calls("cli.main"),
        "cli.main.self_s": self_s("cli.main"),
    }
    return values
