"""Spans around the calls into each tgcs module, recorded from outside the toolkit.

`Tracer.install` wraps every public function of the eight tgcs modules in
every tgcs namespace that holds it (so ``statistics.excitation_distribution``
is traced as well as ``states.excitation_distribution``), plus
``StateSpec.__post_init__`` (the construction probe) and the ``log_g`` method
of each ``GSequence`` subclass.

A span is (name, start, end, parent, op id).  ``log_g`` runs once per series
term, millions of times in a pass, so its calls are not spans of their own:
each is added to the count and time of the span that made it.  Self time is
a span's duration minus its child spans and its ``log_g`` time.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from array import array
from pathlib import Path

import numpy as np

import tgcs
import tgcs.gseq
import tgcs.states

MODULES = ("cli", "gseq", "specfun", "states", "statistics", "completeness",
           "zeros", "sampler")

# per-layer metric -> the spans whose calls and self time it sums, matched by
# exact name; the cli layer takes every span of the module ("cli." prefix)
LAYERS = {
    "gseq.mellin_transform": ("gseq.mellin_transform",),
    "specfun.series": ("specfun.mittag_leffler", "specfun.wright",
                       "specfun.truncated_series", "specfun.truncated_series_scaled",
                       "specfun.log_truncated_series"),
    "specfun.kratzel_kernel": ("specfun.kratzel_kernel",),
    "states.spec": ("states.spec",),
    "states.distribution": ("states.excitation_distribution", "states.normalization",
                            "states.log_normalization", "states.amplitudes"),
    "statistics.moment_route": ("statistics.mandel_q", "statistics.correlation_g2",
                                "statistics.number_moments"),
    "statistics.closed_form": ("statistics.mandel_q_closed_form",
                               "statistics.mandel_q2_closed_form"),
    "completeness.quadrature": ("completeness.quadrature_improper",),
    "zeros.polynomial_roots": ("zeros.polynomial_roots",),
    "sampler.sample_counts": ("sampler.sample_counts",),
}
MODULE_LAYERS = {"cli.main": "cli."}
# the layer whose call count is the metric, when not every span in it counts
CALL_SPANS = {"cli.main": "cli.main"}
USEFUL_P = 1e-30


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.leaf_calls = array("q")
        self.leaf_s = array("d")
        self.stack = [-1]
        self.op_id = -1
        self.counts = {"states.support_terms": 0, "states.useful": 0,
                       "completeness.integrand_evals": 0, "sampler.draws": 0}

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def begin(self, name: str) -> int:
        i = len(self.start)
        self.name.append(self._id(name))
        self.parent.append(self.stack[-1])
        self.op.append(self.op_id)
        self.leaf_calls.append(0)
        self.leaf_s.append(0.0)
        self.end.append(0.0)
        self.stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def finish(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self.stack.pop()

    def span(self, name: str, fn):
        """fn wrapped in a span, with the counts of BEFORE/AFTER recorded around it."""
        before, after = BEFORE.get(name), AFTER.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                args = before(self, args)
            i = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.finish(i)
            if after is not None:
                after(self, result)
            return result

        return wrapper

    def leaf(self, fn):
        """fn timed and counted against the enclosing span."""

        @functools.wraps(fn)
        def wrapper(*args):
            t0 = time.perf_counter()
            try:
                return fn(*args)
            finally:
                top = self.stack[-1]
                if top >= 0:
                    self.leaf_s[top] += time.perf_counter() - t0
                    self.leaf_calls[top] += 1

        return wrapper

    def install(self) -> None:
        wrapped = {}
        for short in MODULES:
            mod = getattr(tgcs, short)
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    name = f"{short}.{attr}"
                    wrapped[obj] = self.span(name, obj)
        for mod in [tgcs] + [getattr(tgcs, short) for short in MODULES]:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    setattr(mod, attr, wrapped[obj])
        for cls in _subclasses(tgcs.gseq.GSequence):
            if "log_g" in vars(cls):
                cls.log_g = self.leaf(vars(cls)["log_g"])
        spec = tgcs.states.StateSpec
        spec.__post_init__ = self.span("states.spec", vars(spec)["__post_init__"])

    # ------------------------------------------------------------ reduction

    def self_times(self) -> np.ndarray:
        start = np.frombuffer(self.start, dtype=float)
        dur = np.frombuffer(self.end, dtype=float) - start
        parent = np.frombuffer(self.parent, dtype=np.int32)
        child = np.zeros(len(dur))
        inner = parent >= 0
        np.add.at(child, parent[inner], dur[inner])
        return dur - child - np.frombuffer(self.leaf_s, dtype=float)

    def layer_metrics(self, first: int, stop: int) -> dict[str, float]:
        """Calls and self seconds per layer over spans [first, stop)."""
        ids = np.frombuffer(self.name, dtype=np.int32)[first:stop]
        self_s = self.self_times()[first:stop]
        out: dict[str, float] = {}
        for layer in [*MODULE_LAYERS, *LAYERS]:
            member_ids = [i for i, n in enumerate(self.names) if in_layer(n, layer)]
            members = np.isin(ids, member_ids)
            counted = members
            if layer in CALL_SPANS:
                counted = ids == self._ids.get(CALL_SPANS[layer], -1)
            out[f"{layer}.calls"] = int(np.count_nonzero(counted))
            out[f"{layer}.self_s"] = float(self_s[members].sum())
        leaf_calls = np.frombuffer(self.leaf_calls, dtype=np.int64)[first:stop]
        leaf_s = np.frombuffer(self.leaf_s, dtype=float)[first:stop]
        out["gseq.log_g.calls"] = int(leaf_calls.sum())
        out["gseq.log_g.self_s"] = float(leaf_s.sum())
        return out

    def write(self, path: Path) -> None:
        """All spans, as columns, with the name table alongside."""
        np.savez_compressed(
            path, name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            op=np.frombuffer(self.op, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=float),
            end=np.frombuffer(self.end, dtype=float),
            leaf_calls=np.frombuffer(self.leaf_calls, dtype=np.int64),
            leaf_s=np.frombuffer(self.leaf_s, dtype=float),
            self_s=self.self_times(), names=np.array(json.dumps(self.names)))


def in_layer(span: str, layer: str) -> bool:
    if layer in MODULE_LAYERS:
        return span.startswith(MODULE_LAYERS[layer])
    return span in LAYERS[layer]


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def _count_integrand(tracer: Tracer, args):
    """quadrature_improper(f, ...) with f counting its evaluations."""
    f = args[0]

    def counted(u):
        tracer.counts["completeness.integrand_evals"] += 1
        return f(u)

    return (counted,) + args[1:]


def _count_support(tracer: Tracer, dist) -> None:
    tracer.counts["states.support_terms"] += len(dist.probs)
    tracer.counts["states.useful"] += int(np.count_nonzero(dist.probs > USEFUL_P))


def _count_draws(tracer: Tracer, run) -> None:
    tracer.counts["sampler.draws"] += run.n_samples


BEFORE = {"completeness.quadrature_improper": _count_integrand}
AFTER = {"states.excitation_distribution": _count_support,
         "sampler.sample_counts": _count_draws}
