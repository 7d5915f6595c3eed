"""Span recorder for the traced benchmark run.

Each public function of the hostlab layer modules is wrapped from outside:
the wrapper is bound in every hostlab namespace that holds the function
(``from .measures import sample_digits`` in ``pipeline`` and ``ergodic``
makes three bindings of one function), so calls through any of them are
seen.  Spans are kept in memory, one parent stack per thread; the items of
``reports.parallel_map`` run on pool threads and are recorded as children of
their map call, under the name of the function that called the map.

Self time is attributed by a sweep over span boundaries: at each instant
the elapsed time is split evenly between the spans that are innermost on a
running thread (an open span with no open child).  On one thread this is
span time minus child time; with items running in parallel it still adds
up to wall time, so layer self times plus the harness remainder account for
the traced wall time.
"""

from __future__ import annotations

import inspect
import itertools
import math
import os
import threading
import time
from collections import defaultdict

import numpy as np

LAYERS = ("adic", "measures", "fourier", "ergodic", "pipeline", "reports", "cli")

# reports.fmt runs once per CSV cell: a span per call would time the
# recorder, so its cost stays with write_csv.
UNWRAPPED = {"reports.fmt"}


class Span:
    __slots__ = ("sid", "name", "parent", "start", "end", "attrs", "cpu")

    def __init__(self, sid, name, parent, start, attrs=None):
        self.sid = sid
        self.name = name
        self.parent = parent
        self.start = start
        self.end = None
        self.attrs = attrs if attrs is not None else {}
        self.cpu = 0.0

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """In-memory spans with a parent stack per thread."""

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name, attrs=None, parent=None) -> Span:
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        span = Span(next(self._ids), name, parent, time.perf_counter(), attrs)
        stack.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()
        self.spans.append(span)


# ---------------------------------------------------------------------------
# Attribute extractors: the counts a metric divides by, read from arguments.
# Each mirrors the leading parameters of the function it describes.
# ---------------------------------------------------------------------------

def ft_path(mu) -> str:
    """Transform path of ft_adic_many, by the rule the code uses: a
    factorization with level >= 1 is structured; otherwise a nonzero share
    of at most 1/8 is sparse; otherwise dense."""
    if mu.structure is not None and mu.level >= 1:
        return "structured"
    if np.count_nonzero(mu.weights) * 8 <= len(mu.weights):
        return "sparse"
    return "dense"


def _weyl_sum(x, b, freqs, checkpoints, *_, **__):
    mod = x.denominator
    bits = mod.bit_length() - 1
    pow2 = (1 << bits) == mod and bits > 60
    return {"steps": max(int(n) for n in checkpoints),
            "path": "pow2_denominator" if pow2 else "general"}


def _compare(gen, past, x, b, k, m, N, *_, **__):
    return {"N": int(N)}


def _make_point(base, digits, *_, **__):
    return {"digits": len(digits)}


def _kronecker(a, b, N, *_, **__):
    return {"steps": int(N)}


def _sample_digits(gen, n, *_, **__):
    return {"digits": int(n), "kind": "markov" if gen.kind == "markov" else "iid"}


def _correlation(mu, r, *_, **__):
    # The span holds mu, so its id is not reused while the spans live.
    return {"key": (id(mu), float(r)), "mu": mu}


def _ft_many(mu, xis, *_, **__):
    return {"freqs": int(np.size(xis)), "path": ft_path(mu)}


EXTRACTORS = {
    "pipeline.weyl_sum": _weyl_sum,
    "pipeline.orbit_vs_conditional_compare": _compare,
    "adic.make_point_from_digits": _make_point,
    "adic.kronecker_schedule": _kronecker,
    "measures.sample_digits": _sample_digits,
    "measures.correlation_integral": _correlation,
    "fourier.ft_adic_many": _ft_many,
}


def _wrap(rec: Recorder, name: str, fn):
    extract = EXTRACTORS.get(name)

    def traced(*args, **kwargs):
        attrs = extract(*args, **kwargs) if extract else None
        span = rec.begin(name, attrs)
        try:
            return fn(*args, **kwargs)
        finally:
            rec.end(span)
            if name == "reports.write_csv":
                span.attrs["bytes"] = os.path.getsize(args[0] if args else kwargs["path"])

    traced.__wrapped__ = fn
    return traced


def _wrap_parallel_map(rec: Recorder, fn):
    def traced(func, items):
        span = rec.begin("reports.parallel_map")
        owner = span.parent.name if span.parent is not None else "harness"
        items = list(items)
        span.attrs["items"] = len(items)

        def item(it):
            child = rec.begin(owner, {"item": True}, parent=span)
            c0 = time.thread_time()
            try:
                return func(it)
            finally:
                child.cpu = time.thread_time() - c0
                rec.end(child)

        try:
            return fn(item, items)
        finally:
            rec.end(span)

    traced.__wrapped__ = fn
    return traced


class Tracer:
    """Installs wrappers on every binding of the layers' public functions,
    and removes them again."""

    def __init__(self, rec: Recorder):
        self.rec = rec
        self._undo: list[tuple] = []

    def install(self) -> None:
        import hostlab
        from hostlab import adic, cli, ergodic, fourier, measures, pipeline, reports

        layer_mods = [adic, measures, fourier, ergodic, pipeline, reports]
        wrappers = {}
        for mod in layer_mods:
            layer = mod.__name__.rsplit(".", 1)[1]
            for attr, obj in vars(mod).items():
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                name = f"{layer}.{attr}"
                if name in UNWRAPPED:
                    continue
                if name == "reports.parallel_map":
                    wrappers[obj] = _wrap_parallel_map(self.rec, obj)
                else:
                    wrappers[obj] = _wrap(self.rec, name, obj)
        for ns in [hostlab, cli, *layer_mods]:
            for attr, obj in list(vars(ns).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._undo.append((ns, attr, obj))
                    setattr(ns, attr, wrappers[obj])

    def remove(self) -> None:
        for ns, attr, obj in reversed(self._undo):
            setattr(ns, attr, obj)
        self._undo.clear()


# ---------------------------------------------------------------------------
# Self-time attribution
# ---------------------------------------------------------------------------

def attribute(spans) -> dict:
    """Self time of each span (keyed by span id), splitting concurrent time
    evenly between the innermost open spans of all threads."""
    events = []
    for s in spans:
        events.append((s.start, 1, s))
        events.append((s.end, 0, s))
    events.sort(key=lambda e: (e[0], e[1], e[2].sid))
    self_time = {s.sid: 0.0 for s in spans}
    open_children: dict[int, int] = {}
    active: dict[int, Span] = {}
    prev = events[0][0] if events else 0.0
    for t, kind, s in events:
        if active and t > prev:
            share = (t - prev) / len(active)
            for sid in active:
                self_time[sid] += share
        prev = t
        p = s.parent
        if kind == 1:
            active[s.sid] = s
            if p is not None and p.sid in self_time:
                open_children[p.sid] = open_children.get(p.sid, 0) + 1
                active.pop(p.sid, None)
        else:
            active.pop(s.sid, None)
            if p is not None and p.sid in self_time:
                open_children[p.sid] -= 1
                if open_children[p.sid] == 0 and p.end is not None and p.end > t:
                    active[p.sid] = p
    return self_time


def inclusive(spans, self_time: dict) -> dict:
    """Attributed time of each span's subtree (its self time plus that of
    every descendant)."""
    total = dict(self_time)
    for s in sorted(spans, key=lambda s: -_depth(s)):
        if s.parent is not None and s.parent.sid in total:
            total[s.parent.sid] += total[s.sid]
    return total


def _depth(s: Span) -> int:
    d = 0
    while s.parent is not None:
        s = s.parent
        d += 1
    return d


# ---------------------------------------------------------------------------
# Per-layer metrics of a traced run
# ---------------------------------------------------------------------------

CLI_SUBCOMMANDS = ("weyl", "fourier-cert", "proof-chain", "martingale",
                   "time-change", "equivariance", "controls")
COMPARE_NS = (1000, 4000, 8000)
FT_PATHS = ("structured", "sparse", "dense")

# name -> unit, for every per-layer metric the traced run reports
PER_LAYER_UNITS = {
    "pipeline.weyl_sum.ns_per_step.general": "ns",
    "pipeline.weyl_sum.ns_per_step.pow2_denominator": "ns",
    "pipeline.weyl_sum.steps": "count",
    **{f"pipeline.orbit_vs_conditional_compare.self_s.N{n}": "s" for n in COMPARE_NS},
    "pipeline.orbit_vs_conditional_compare.growth_exponent": "exponent",
    "pipeline.host_experiment.self_s": "s",
    "pipeline.proof_chain_quantity.self_s": "s",
    "adic.make_point_from_digits.ns_per_digit": "ns",
    "adic.kronecker_schedule.ns_per_step": "ns",
    "adic.kronecker_schedule.calls": "count",
    "measures.sample_digits.ns_per_digit.markov": "ns",
    "measures.sample_digits.ns_per_digit.iid": "ns",
    "measures.sample_digits.digits": "count",
    "measures.conditional_on_past.self_s": "s",
    "measures.conditional_on_past.calls": "count",
    "measures.correlation_integral.ms_per_call": "ms",
    "measures.correlation_integral.calls": "count",
    "measures.correlation_integral.distinct_ratio": "ratio",
    **{f"fourier.ft_adic_many.us_per_freq.{p}": "us" for p in FT_PATHS},
    **{f"fourier.ft_adic_many.freqs.{p}": "count" for p in FT_PATHS},
    "fourier.scaled_sq_integral.ms_per_call": "ms",
    "fourier.scaled_sq_integral.calls": "count",
    "fourier.scaled_sq_integral.freqs_per_call": "count",
    "fourier.c1_bound_check.self_s": "s",
    "ergodic.martingale_avg_experiment.self_s": "s",
    "ergodic.time_change_joint_experiment.self_s": "s",
    "reports.parallel_map.parallelism": "ratio",
    "reports.parallel_map.items": "count",
    "reports.write_csv.self_s": "s",
    "reports.write_csv.bytes": "bytes",
    "reports.version_string.self_s": "s",
    **{f"cli.{c}.{k}": "s" for c in CLI_SUBCOMMANDS for k in ("wall_s", "self_s")},
    **{f"layer.{name}.self_s": "s" for name in (*LAYERS, "harness")},
    "trace.wall_s": "s",
    "trace.overhead": "ratio",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _median(values) -> float:
    s = sorted(values)
    n = len(s)
    return 0.5 * (s[(n - 1) // 2] + s[n // 2])


def per_layer(passes, traced_walls, untraced_walls) -> dict:
    """Per-layer metrics from the spans of each traced pass.  Counts and
    self times are per pass; rates divide attributed time by the work
    count summed over passes.  A rate whose work count is 0 reads 0: the
    layer did no such work on this workload."""
    t = defaultdict(float)
    for spans in passes:
        self_time = attribute(spans)
        incl = inclusive(spans, self_time)
        for s in spans:
            st, a = self_time[s.sid], s.attrs
            t[f"self:{s.name}"] += st
            t[f"layer:{s.layer if s.layer in LAYERS else 'harness'}"] += st
            if a.get("item"):
                t["items"] += 1
                t["item_cpu"] += s.cpu
                continue
            t[f"calls:{s.name}"] += 1
            t[f"incl:{s.name}"] += incl[s.sid]
            t[f"wall:{s.name}"] += s.duration
            if s.name == "pipeline.weyl_sum":
                t[f"weyl_time:{a['path']}"] += st
                t[f"weyl_steps:{a['path']}"] += a["steps"]
            elif s.name == "pipeline.orbit_vs_conditional_compare":
                t[f"cmp_self:{a['N']}"] += st
                t[f"cmp_calls:{a['N']}"] += 1
            elif s.name in ("adic.make_point_from_digits", "measures.sample_digits"):
                key = f"{s.name}:{a.get('kind', '')}"
                t[f"rate_time:{key}"] += st
                t[f"rate_work:{key}"] += a["digits"]
            elif s.name == "adic.kronecker_schedule":
                t["kron_steps"] += a["steps"]
            elif s.name == "fourier.ft_adic_many":
                t[f"ft_time:{a['path']}"] += st
                t[f"ft_freqs:{a['path']}"] += a["freqs"]
                if s.parent is not None and s.parent.name == "fourier.scaled_sq_integral":
                    t["ssq_freqs"] += a["freqs"]
            elif s.name == "reports.write_csv":
                t["csv_bytes"] += a["bytes"]
        t["corr_distinct"] += len({s.attrs["key"] for s in spans
                                   if s.name == "measures.correlation_integral"})

    n = len(passes)
    traced_total = sum(traced_walls)
    cmp = {N: _ratio(t[f"cmp_self:{N}"], t[f"cmp_calls:{N}"]) for N in COMPARE_NS}
    m = {
        "pipeline.weyl_sum.ns_per_step.general":
            1e9 * _ratio(t["weyl_time:general"], t["weyl_steps:general"]),
        "pipeline.weyl_sum.ns_per_step.pow2_denominator":
            1e9 * _ratio(t["weyl_time:pow2_denominator"], t["weyl_steps:pow2_denominator"]),
        "pipeline.weyl_sum.steps":
            (t["weyl_steps:general"] + t["weyl_steps:pow2_denominator"]) / n,
        **{f"pipeline.orbit_vs_conditional_compare.self_s.N{N}": cmp[N] for N in COMPARE_NS},
        "pipeline.orbit_vs_conditional_compare.growth_exponent":
            math.log2(cmp[8000] / cmp[4000]) if cmp[8000] and cmp[4000] else 0.0,
        "pipeline.host_experiment.self_s": t["self:pipeline.host_experiment"] / n,
        "pipeline.proof_chain_quantity.self_s": t["self:pipeline.proof_chain_quantity"] / n,
        "adic.make_point_from_digits.ns_per_digit":
            1e9 * _ratio(t["rate_time:adic.make_point_from_digits:"],
                         t["rate_work:adic.make_point_from_digits:"]),
        "adic.kronecker_schedule.ns_per_step":
            1e9 * _ratio(t["self:adic.kronecker_schedule"], t["kron_steps"]),
        "adic.kronecker_schedule.calls": t["calls:adic.kronecker_schedule"] / n,
        **{f"measures.sample_digits.ns_per_digit.{kind}":
           1e9 * _ratio(t[f"rate_time:measures.sample_digits:{kind}"],
                        t[f"rate_work:measures.sample_digits:{kind}"])
           for kind in ("markov", "iid")},
        "measures.sample_digits.digits":
            (t["rate_work:measures.sample_digits:markov"]
             + t["rate_work:measures.sample_digits:iid"]) / n,
        "measures.conditional_on_past.self_s": t["self:measures.conditional_on_past"] / n,
        "measures.conditional_on_past.calls": t["calls:measures.conditional_on_past"] / n,
        "measures.correlation_integral.ms_per_call":
            1e3 * _ratio(t["incl:measures.correlation_integral"],
                         t["calls:measures.correlation_integral"]),
        "measures.correlation_integral.calls": t["calls:measures.correlation_integral"] / n,
        "measures.correlation_integral.distinct_ratio":
            _ratio(t["corr_distinct"], t["calls:measures.correlation_integral"]),
        **{f"fourier.ft_adic_many.us_per_freq.{p}":
           1e6 * _ratio(t[f"ft_time:{p}"], t[f"ft_freqs:{p}"]) for p in FT_PATHS},
        **{f"fourier.ft_adic_many.freqs.{p}": t[f"ft_freqs:{p}"] / n for p in FT_PATHS},
        "fourier.scaled_sq_integral.ms_per_call":
            1e3 * _ratio(t["incl:fourier.scaled_sq_integral"],
                         t["calls:fourier.scaled_sq_integral"]),
        "fourier.scaled_sq_integral.calls": t["calls:fourier.scaled_sq_integral"] / n,
        "fourier.scaled_sq_integral.freqs_per_call":
            _ratio(t["ssq_freqs"], t["calls:fourier.scaled_sq_integral"]),
        "fourier.c1_bound_check.self_s": t["self:fourier.c1_bound_check"] / n,
        "ergodic.martingale_avg_experiment.self_s":
            t["self:ergodic.martingale_avg_experiment"] / n,
        "ergodic.time_change_joint_experiment.self_s":
            t["self:ergodic.time_change_joint_experiment"] / n,
        "reports.parallel_map.parallelism":
            _ratio(t["item_cpu"], t["wall:reports.parallel_map"]),
        "reports.parallel_map.items": t["items"] / n,
        "reports.write_csv.self_s": t["self:reports.write_csv"] / n,
        "reports.write_csv.bytes": t["csv_bytes"] / n,
        "reports.version_string.self_s": t["self:reports.version_string"] / n,
        **{f"cli.{c}.wall_s": t[f"wall:cli.{c}"] / n for c in CLI_SUBCOMMANDS},
        **{f"cli.{c}.self_s": t[f"self:cli.{c}"] / n for c in CLI_SUBCOMMANDS},
        **{f"layer.{name}.self_s": t[f"layer:{name}"] / n for name in LAYERS},
        "layer.harness.self_s":
            (traced_total - sum(t[f"layer:{name}"] for name in LAYERS)) / n,
        "trace.wall_s": traced_total / n,
        "trace.overhead": _median(traced_walls) / _median(untraced_walls) - 1.0,
    }
    assert set(m) == set(PER_LAYER_UNITS)
    return m
