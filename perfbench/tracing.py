"""Spans around the layer calls of the real `run_experiment`.

`traced_run` calls `gaussrde.run_experiment` itself, with the functions it
looks up as module globals (in `gaussrde.experiments`, and `p_variation` in
`gaussrde.rde`) replaced for the length of the call by wrappers that open
one span per call: name, start, end, parent span and sample index.  The
trace therefore always measures the pipeline as it stands.  `build_fields`
also wraps the vector field callables, through `dataclasses.replace`, to
count and time every field evaluation; that time is charged to the span
that made the call rather than recorded as a span of its own, which keeps
the span list small.

Spans are named after the module that defines the function, e.g.
`young.p_variation`.  `p_variation` runs inside `solve_flow_jacobian`, so
its span is a child of the solve span and the solve's self time excludes it.
The private KDE helpers are wrapped when `gaussrde.experiments` still has
them; without them their time stays in the root span's self time.

The traced call must write the same CSV and summary bytes as an untraced
call; the worker compares them, because wrappers that changed a result would
make the trace measure a different program.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import math
import os
from contextlib import contextmanager
from time import perf_counter

import gaussrde
from gaussrde import experiments, rde

FIELD_CALLABLES = ("value", "jacobian", "hessian", "drift", "drift_jacobian",
                   "drift_hessian")

# Globals of gaussrde.experiments that run_experiment calls, each with the
# work count its span records, from the call's arguments by name.
EXPERIMENT_CALLS = {
    "build_model": None,
    "build_fields": None,
    "nondegeneracy_check": None,
    "sample_paths": None,
    "cameron_martin_basis": None,
    "lift_piecewise_linear": None,
    "solve_flow_jacobian": lambda a: a["X"].grid.n - 1,
    "malliavin_matrix_2d": None,
    "spectrum": None,
    "malliavin_matrix_parseval": lambda a: a["vf"].d * a["basis"].size,
    "silverman_bandwidth": None,
    "kde_density": None,
    "write_rows_csv": lambda a: os.path.getsize(a["path"]),
}
OPTIONAL_EXPERIMENT_CALLS = ("_default_query_grid", "_kde_mass",
                             "_reference_comparison", "_write_artifacts")

# Spans of one sample's work; a lift span starts the next sample.
SAMPLE_START = "lift.lift_piecewise_linear"
PER_SAMPLE = (SAMPLE_START, "young.p_variation", "rde.solve_flow_jacobian",
              "malliavin.malliavin_matrix_2d", "malliavin.spectrum",
              "malliavin.malliavin_matrix_parseval")

# Span fields, in order.
NAME, START, END, PARENT, SAMPLE, WORK, FIELD_CALLS, FIELD_S = range(8)
SPAN_FIELDS = ("name", "start", "end", "parent", "sample", "work",
               "field_calls", "field_s")

# Per-layer metric prefix -> names of the spans whose self time it sums.
LAYERS = {
    "gaussian.sample": ("gaussian.sample_paths",),
    "gaussian.basis": ("gaussian.cameron_martin_basis",),
    "gaussian.gate": ("gaussian.nondegeneracy_check",),
    "lift.lift": ("lift.lift_piecewise_linear",),
    "rde.solve": ("rde.solve_flow_jacobian",),
    "young.pvar": ("young.p_variation",),
    "malliavin.sigma2d": ("malliavin.malliavin_matrix_2d",),
    "malliavin.spectrum": ("malliavin.spectrum",),
    "malliavin.parseval": ("malliavin.malliavin_matrix_parseval",),
    "experiments.kde": ("experiments.silverman_bandwidth",
                        "experiments.default_query_grid",
                        "experiments.kde_density", "experiments.kde_mass",
                        "experiments.reference_comparison"),
    "experiments.csv": ("experiments.write_rows_csv",),
}


def span_name(fn) -> str:
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__.lstrip('_')}"


class Tracer:
    """Spans held in memory as lists, in the order they were opened."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []
        self._sample = -1

    @contextmanager
    def span(self, name: str):
        if name == SAMPLE_START:
            self._sample += 1
        parent = self._open[-1] if self._open else -1
        sample = self._sample if name in PER_SAMPLE else -1
        rec = [name, 0.0, 0.0, parent, sample, 0, 0, 0.0]
        self._open.append(len(self.spans))
        self.spans.append(rec)
        rec[START] = perf_counter()
        try:
            yield rec
        finally:
            rec[END] = perf_counter()
            self._open.pop()

    def wrap(self, fn, work=None):
        """`fn` with a span around each call; `work` maps the call's
        arguments, by name, to the count the span records."""
        name = span_name(fn)
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def call(*args, **kwargs):
            with self.span(name) as rec:
                out = fn(*args, **kwargs)
                if work is not None:
                    rec[WORK] = work(signature.bind(*args, **kwargs).arguments)
            return out
        return call

    def timed_field(self, fn):
        """Wrap a field callable; each call is counted on the open span."""
        def call(y):
            t0 = perf_counter()
            try:
                return fn(y)
            finally:
                rec = self.spans[self._open[-1]]
                rec[FIELD_CALLS] += 1
                rec[FIELD_S] += perf_counter() - t0
        return call

    def traced_fields(self, build_fields):
        """`build_fields` whose system has every field callable timed."""
        def call(config):
            vf = build_fields(config)
            return dataclasses.replace(vf, **{
                name: self.timed_field(getattr(vf, name))
                for name in FIELD_CALLABLES if getattr(vf, name) is not None})
        return call


@contextmanager
def _patched(module, replacements: dict):
    saved = {name: getattr(module, name) for name in replacements}
    for name, fn in replacements.items():
        setattr(module, name, fn)
    try:
        yield
    finally:
        for name, fn in saved.items():
            setattr(module, name, fn)


def traced_run(config, out_dir: str, tracer: Tracer):
    """`gaussrde.run_experiment(config, out_dir)` with a span per layer call.

    The config must run single-threaded: the open-span stack is shared.
    """
    if config.threads != 1:
        raise ValueError("the traced run needs threads = 1")
    wrapped = {name: tracer.wrap(getattr(experiments, name), work)
               for name, work in EXPERIMENT_CALLS.items()}
    wrapped.update((name, tracer.wrap(getattr(experiments, name)))
                   for name in OPTIONAL_EXPERIMENT_CALLS
                   if hasattr(experiments, name))
    wrapped["build_fields"] = tracer.traced_fields(wrapped["build_fields"])
    rde_wrapped = {"p_variation": tracer.wrap(rde.p_variation)}
    with _patched(experiments, wrapped), _patched(rde, rde_wrapped):
        with tracer.span("experiments.run_experiment"):
            return gaussrde.run_experiment(config, out_dir=out_dir)


def layer_metrics(spans: list[list], untraced_wall_s: float,
                  count: int) -> dict[str, float]:
    """Per-layer seconds, shares and counts from one traced pass.

    A layer's seconds are the self time of its spans: span duration minus
    child spans minus the field evaluations made inside it.  Field time is
    reported once, as fields.eval_s, so layer and field time do not overlap.
    """
    root = spans[0]
    wall = root[END] - root[START]
    children_s = [0.0] * len(spans)
    for rec in spans[1:]:
        children_s[rec[PARENT]] += rec[END] - rec[START]
    self_s: dict[str, float] = {}
    work: dict[str, int] = {}
    for i, rec in enumerate(spans):
        own = rec[END] - rec[START] - children_s[i] - rec[FIELD_S]
        self_s[rec[NAME]] = self_s.get(rec[NAME], 0.0) + own
        work[rec[NAME]] = work.get(rec[NAME], 0) + rec[WORK]

    out: dict[str, float] = {}
    for layer, names in LAYERS.items():
        seconds = math.fsum(self_s.get(name, 0.0) for name in names)
        out[layer + "_s"] = seconds
        out[layer + "_share"] = seconds / wall
    field_s = math.fsum(rec[FIELD_S] for rec in spans)
    field_calls = sum(rec[FIELD_CALLS] for rec in spans)
    out["fields.eval_s"] = field_s
    out["fields.eval_share"] = field_s / wall
    out["fields.calls"] = field_calls
    out["fields.calls_per_sample"] = field_calls / count
    out["rde.steps"] = work.get("rde.solve_flow_jacobian", 0)
    out["malliavin.parseval_directions"] = work.get(
        "malliavin.malliavin_matrix_parseval", 0)
    out["experiments.csv_bytes"] = work.get("experiments.write_rows_csv", 0)
    out["trace.coverage"] = math.fsum(
        rec[END] - rec[START] for rec in spans if rec[PARENT] == 0) / wall
    out["trace.overhead"] = wall / untraced_wall_s - 1.0
    return out
