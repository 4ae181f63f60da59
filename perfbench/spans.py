"""Span tracing around the package's layer boundaries, from outside the package.

A span is recorded for every call that passes a wrapped binding site while a
request is active: the request's entry points (the ``api`` namespace the
workloads call through) and the module globals through which one layer calls
the next (``kpii_stem.cli.u_on_grid`` and so on).  Wrapping a module global
changes only the callers that look the name up in that module, so each site
is named explicitly.  Spans stay in memory and are written out at the end.
"""

from __future__ import annotations

import functools
import json
import statistics
import time
import tracemalloc
from collections import defaultdict
from dataclasses import asdict, dataclass
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import kpii_stem.cli
import kpii_stem.geometry
import kpii_stem.verify

LAYERS = ("cli", "catalog", "geometry", "tau", "verify")
GRID_POINTS = 10_000


def _size(args, kwargs, result):
    return int(np.size(result))


def _bytes_written(args, kwargs, result):
    argv = args[0]
    return Path(argv[argv.index("--out") + 1]).stat().st_size


def _dropped_scans(args, kwargs, result):
    return kwargs["n_scans"] - len(result.samples)


# (module, global name, span name, count hook, track memory)
BINDING_SITES = (
    (kpii_stem.cli, "load_scenario", "cli.load_scenario", None, False),
    (kpii_stem.cli, "build_case", "catalog.build_case", None, False),
    (kpii_stem.cli, "u_on_grid", "tau.u_on_grid", _size, True),
    (kpii_stem.geometry, "u_on_grid", "tau.u_on_grid", _size, False),
    (kpii_stem.geometry, "skeleton", "geometry.skeleton", None, False),
    (kpii_stem.verify, "u_on_grid", "tau.u_on_grid", _size, False),
    (kpii_stem.verify, "_u_partials", "tau.u_partials", None, False),
    (kpii_stem.verify, "skeleton", "geometry.skeleton", None, False),
    (kpii_stem.verify, "make_generic", "catalog.make_generic", None, False),
)

# api attribute -> (span name, count hook)
ENTRY_POINTS = {
    "cli_main": ("cli.sample", _bytes_written),
    "build_case": ("catalog.build_case", None),
    "arm_catalog": ("geometry.arm_catalog", None),
    "stem_endpoints": ("geometry.stem_endpoints", None),
    "stem_length_formula": ("geometry.stem_length_formula", None),
    "cross_section": ("geometry.cross_section", lambda a, k, r: len(r)),
    "velocity_table": ("geometry.velocity_table", None),
    "trajectory_line": ("geometry.trajectory_line", None),
    "kp_residual": ("verify.kp_residual", lambda a, k, r: r.n_points),
    "limit_convergence": ("verify.limit_convergence", None),
    "asymptotic_match": ("verify.asymptotic_match", None),
    "section_anchor": ("verify.section_anchor", None),
    "ridge_trace": ("verify.ridge_trace", _dropped_scans),
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None                  # index into Tracer.spans
    request: str
    count: int | None = None            # points, bytes or dropped scans
    peak_bytes: int | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.request: str | None = None
        self._stack: list[int] = []
        self._saved: list = []

    def wrap(self, name, fn, count=None, memory=False):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.request is None:
                return fn(*args, **kwargs)
            return self._record(name, fn, args, kwargs, count, memory)
        return wrapper

    def _record(self, name, fn, args, kwargs, count, memory):
        parent = self._stack[-1] if self._stack else None
        span = Span(name, 0.0, 0.0, parent, self.request)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        if memory:
            tracemalloc.start()
        span.start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            if memory:
                span.peak_bytes = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
            self._stack.pop()
        if count is not None:
            span.count = count(args, kwargs, result)
        return result

    def request_span(self, request_id: str, fn, *args):
        """Run fn(*args) as one request under a root span named 'request'."""
        self.request = request_id
        try:
            return self._record("request", fn, args, {}, None, False)
        finally:
            self.request = None

    def install(self, api: SimpleNamespace):
        for module, attr, name, count, memory in BINDING_SITES:
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self.wrap(name, fn, count, memory))
        for attr, (name, count) in ENTRY_POINTS.items():
            fn = getattr(api, attr)
            self._saved.append((api, attr, fn))
            setattr(api, attr, self.wrap(name, fn, count))

    def uninstall(self):
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()

    def write(self, path: Path):
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span)) + "\n")


def _median(values):
    return statistics.median(values) if values else None


def layer_metrics(spans: list[Span], requests: set, exact: set) -> dict:
    """Per-layer metrics over the spans of `requests`; exact counts over `exact`.

    A metric whose spans are absent is left out.  Values are (value, unit).
    """
    self_time = [s.duration for s in spans]
    for s in spans:
        if s.parent is not None:
            self_time[s.parent] -= s.duration
    by_name = defaultdict(list)
    exact_by_name = defaultdict(list)
    for i, s in enumerate(spans):
        if s.request in requests:
            by_name[s.name].append(i)
        if s.request in exact:
            exact_by_name[s.name].append(i)

    def durations(name, keep=lambda s: True):
        return [spans[i].duration for i in by_name[name] if keep(spans[i])]

    def children(name, parent_name, table):
        return [i for i in table[name]
                if spans[i].parent is not None and spans[spans[i].parent].name == parent_name]

    out = {}

    def put(metric, value, unit, scale=1.0):
        if value is not None:
            out[metric] = (value * scale if scale != 1.0 else value, unit)

    put("catalog.build_case.us_per_call", _median(durations("catalog.build_case")), "us", 1e6)
    if exact_by_name["catalog.build_case"]:
        put("catalog.build_case.calls", len(exact_by_name["catalog.build_case"]), "count")
    if exact_by_name["catalog.make_generic"]:
        put("catalog.make_generic.calls", len(exact_by_name["catalog.make_generic"]), "count")

    put("geometry.arm_catalog.us_per_cold_call", _median(durations("geometry.arm_catalog")), "us", 1e6)
    if exact_by_name["geometry.arm_catalog"]:
        put("geometry.skeleton.calls_per_catalog",
            len(children("geometry.skeleton", "geometry.arm_catalog", exact_by_name))
            / len(exact_by_name["geometry.arm_catalog"]), "count")
    put("geometry.skeleton.us_per_call", _median(durations("geometry.skeleton")), "us", 1e6)
    put("geometry.stem_endpoints.us_per_call", _median(durations("geometry.stem_endpoints")), "us", 1e6)
    put("geometry.stem_length_formula.us_per_call",
        _median(durations("geometry.stem_length_formula")), "us", 1e6)
    put("geometry.cross_section.ns_per_point",
        _median([spans[i].duration / spans[i].count for i in by_name["geometry.cross_section"]]),
        "ns", 1e9)

    grid_calls = exact_by_name["tau.u_on_grid"]
    if grid_calls:
        put("tau.u_on_grid.calls", len(grid_calls), "count")
        put("tau.u_on_grid.points", sum(spans[i].count for i in grid_calls), "count")
    grid = [spans[i] for i in by_name["tau.u_on_grid"] if spans[i].count >= GRID_POINTS]
    put("tau.u_on_grid.ns_per_point_grid", _median([s.duration / s.count for s in grid]), "ns", 1e9)
    put("tau.u_on_grid.us_per_scalar_call",
        _median(durations("tau.u_on_grid", lambda s: s.count == 1)), "us", 1e6)
    put("tau.peak_bytes_per_point",
        _median([s.peak_bytes / s.count for s in grid if s.peak_bytes is not None]), "B")

    put("verify.kp_residual.ns_per_point",
        _median([spans[i].duration / spans[i].count for i in by_name["verify.kp_residual"]]),
        "ns", 1e9)
    put("verify.ridge_trace.ms_per_call", _median(durations("verify.ridge_trace")), "ms", 1e3)
    traces = exact_by_name["verify.ridge_trace"]
    if traces:
        put("verify.ridge_trace.u_calls_per_trace",
            len(children("tau.u_on_grid", "verify.ridge_trace", exact_by_name)) / len(traces),
            "count")
        put("verify.ridge_trace.dropped_scans", sum(spans[i].count for i in traces), "count")
    put("verify.asymptotic_match.ms_per_call", _median(durations("verify.asymptotic_match")), "ms", 1e3)
    put("verify.limit_convergence.ms_per_call",
        _median(durations("verify.limit_convergence")), "ms", 1e3)

    put("cli.load_scenario.us_per_call", _median(durations("cli.load_scenario")), "us", 1e6)
    put("cli.sample.build_s", _median(
        [spans[i].duration for i in children("catalog.build_case", "cli.sample", by_name)]), "s")
    put("cli.sample.compute_s", _median(
        [spans[i].duration for i in children("tau.u_on_grid", "cli.sample", by_name)]), "s")
    # the children of a sample request are load, build and compute, so its
    # self time is the rest: argument parsing and serialization
    put("cli.sample.serialize_s", _median([self_time[i] for i in by_name["cli.sample"]]), "s")
    samples = exact_by_name["cli.sample"]
    if samples:
        points = sum(spans[i].count for i in children("tau.u_on_grid", "cli.sample", exact_by_name))
        put("cli.sample.bytes_per_point", sum(spans[i].count for i in samples) / points, "B")

    for layer in LAYERS:
        idx = [i for name, ids in by_name.items() if name.split(".")[0] == layer for i in ids]
        if idx:
            # per request that reaches the layer
            reached = len({spans[i].request for i in idx})
            put(f"{layer}.self_s", sum(self_time[i] for i in idx) / reached, "s")
    return out
