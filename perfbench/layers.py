"""Layer tracing from outside the program.

:class:`LayerTracer` wraps the public entry points of each module of the
program (and, for pure counts, a few hot internal calls) while a traced run
is active.  Each timed wrapper is a span: it records its duration, and the
time of the spans opened inside it is taken off, so every layer reports
*self* time.  The self times of all spans add up to the time covered by the
outermost spans, so ``campaign seconds - sum(self times)`` is the time no
layer claimed (``mla.unattributed_s``), never negative.

Spans are kept in memory as per-layer totals and taken per round with
:meth:`LayerTracer.take`.  Only calls on the thread that installed the
tracer are timed; the benchmark's workloads run every layer on that thread,
and calls from any other thread are counted in ``off_thread`` so a change
that moves work to threads shows up instead of silently breaking the
partition.
"""

from __future__ import annotations

import functools
import json
import math
import os
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Sized, Tuple

BENCHMARK_JSON = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                              "BENCHMARK.json")


def per_layer_spec() -> List[Tuple[str, str]]:
    """``(name, unit)`` of every per-layer metric, as ``BENCHMARK.json``
    lists them."""
    with open(BENCHMARK_JSON, "r", encoding="utf-8") as fh:
        return [(m["name"], m["unit"]) for m in json.load(fh)["per_layer"]]


#: layer name -> the per-layer metric its self time is reported under
SELF_TIME_METRIC = {
    "lcm.fit": "lcm.fit_s",
    "lcm.extend": "lcm.extend_s",
    "lcm.predict": "lcm.predict_tasks_s",
    "sparse_lcm.fit": "sparse_lcm.fit_s",
    "sparse_lcm.extend": "sparse_lcm.extend_s",
    "sparse_lcm.predict": "sparse_lcm.predict_s",
    "search.pso": "search.pso_s",
    "search.nsga2": "search.nsga2_s",
    "search.penalty": "search.penalty_s",
    "space.feasible": "space.feasible_s",
    "eval": "eval.s",
    "async.wait": "async.wait_s",
    "checkpoint": "checkpoint.s",
    "service.request": "service.request_s",
}


def _points(X: Any) -> int:
    """Candidate points in a ``(..., beta)`` block."""
    shape = getattr(X, "shape", (len(X), 0))
    return math.prod(shape[:-1]) if len(shape) > 1 else 1


class LayerTracer:
    """Self-time and count accounting around the program's layer calls."""

    def __init__(self):
        self._thread = threading.get_ident()
        self._stack: List[List[float]] = []
        self._patches: List[tuple] = []
        self.off_thread = 0
        self._reset()

    def _reset(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, float] = defaultdict(float)
        self.request_s: List[float] = []

    # -- wrappers ----------------------------------------------------------------
    def _patch(self, owner: Any, attr: str, make: Callable[[Callable], Callable]) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        setattr(owner, attr, make(original))
        self._patches.append((owner, attr, original))

    def span(self, fn: Callable, layer: str, count: Optional[str] = None,
             after: Optional[Callable[[tuple, Any, float, bool], None]] = None) -> Callable:
        """Wrap ``fn`` so each call is a span of ``layer``.

        ``after(args, result, seconds, outermost)`` runs once the call has
        returned; ``outermost`` is False when the call is nested in another
        span of the same layer.
        """
        tracer = self

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if threading.get_ident() != tracer._thread:
                tracer.off_thread += 1
                return fn(*args, **kwargs)
            stack = tracer._stack
            outermost = not any(f[1] == layer for f in stack)
            frame = [0.0, layer]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                d = time.perf_counter() - t0
                stack.pop()
                tracer.self_s[layer] += d - frame[0]
                if stack:
                    stack[-1][0] += d
                if count is not None:
                    tracer.counts[count] += 1
            if after is not None:
                after(args, out, d, outermost)
            return out

        return span

    def timed(self, owner: Any, attr: str, layer: str, count: Optional[str] = None,
              after: Optional[Callable[[tuple, Any, float, bool], None]] = None) -> None:
        """Make every call of ``owner.attr`` a span of ``layer``."""
        self._patch(owner, attr, lambda fn: self.span(fn, layer, count, after))

    def counted(self, owner: Any, attr: str, count: str,
                points: Optional[Callable[[tuple, Any], float]] = None,
                points_key: Optional[str] = None) -> None:
        """Count calls of ``owner.attr`` without opening a span."""
        tracer = self

        def make(fn):
            @functools.wraps(fn)
            def counter(*args, **kwargs):
                out = fn(*args, **kwargs)
                tracer.counts[count] += 1
                if points is not None:
                    tracer.counts[points_key] += points(args, out)
                return out

            return counter

        self._patch(owner, attr, make)

    # -- the program's layers ----------------------------------------------------------
    def install(self) -> "LayerTracer":
        import repro.core.mla as mla
        from repro.core.acquisition import BatchedEIAcquisition, EIAcquisition
        from repro.core.lcm import LCM
        from repro.core.model.sparse_lcm import SparseLCM
        from repro.core.problem import TuningProblem
        from repro.core.search.nsga2 import NSGA2
        from repro.core.search.penalty import PenalizedAcquisition
        from repro.core.search.pso import ParticleSwarm
        from repro.core.search.pso_batched import BatchedParticleSwarm
        from repro.core.space import Space
        from repro.runtime.async_engine import AsyncEvalEngine
        from repro.runtime.resilience import RunCheckpoint
        from repro.service.client import ServiceClient

        self.timed(LCM, "fit", "lcm.fit", "lcm.fit_calls")
        self.counted(LCM, "_nll_and_grad", "lcm.nll_grad_calls")
        self.timed(LCM, "extend", "lcm.extend", "lcm.extend_calls")
        self.timed(LCM, "predict_tasks", "lcm.predict", "lcm.predict_tasks_calls")
        self.timed(LCM, "predict", "lcm.predict")
        self.timed(SparseLCM, "fit", "sparse_lcm.fit", "sparse_lcm.fit_calls")
        self.timed(SparseLCM, "extend", "sparse_lcm.extend", "sparse_lcm.extend_calls")
        self.timed(SparseLCM, "predict_tasks", "sparse_lcm.predict")
        self.timed(SparseLCM, "predict", "sparse_lcm.predict")

        self.timed(ParticleSwarm, "maximize", "search.pso")
        self.timed(BatchedParticleSwarm, "maximize", "search.pso")
        for method in ("initialize", "ask", "tell", "minimize"):
            self.timed(NSGA2, method, "search.nsga2")
        for acq in (EIAcquisition, BatchedEIAcquisition):
            self.counted(acq, "__call__", "search.acq_calls",
                         points=lambda a, out: _points(a[1]), points_key="search.acq_points")
        self.timed(PenalizedAcquisition, "__call__", "search.penalty")
        self.timed(mla, "constant_liar", "search.penalty")
        self.timed(mla, "penalize_lcb", "search.penalty")

        def feasible_points(args, out, d, outermost):
            # a vectorised check counts its rows; the per-point calls it
            # makes inside are the same points
            n = len(out) if isinstance(out, Sized) else 1
            if outermost:
                self.counts["space.feasible_points"] += n

        self.timed(Space, "is_feasible", "space.feasible", after=feasible_points)

        def wrap_check(fn):
            @functools.wraps(fn)
            def feasibility_on_unit(*args, **kwargs):
                return self.span(fn(*args, **kwargs), "space.feasible", after=feasible_points)

            return feasibility_on_unit

        self._patch(TuningProblem, "feasibility_on_unit", wrap_check)

        self.timed(TuningProblem, "evaluate_outcome", "eval", "eval.calls")
        self.timed(AsyncEvalEngine, "drain", "async.wait", "async.drains")

        def checkpoint_bytes(args, out, d, outermost):
            self.counts["checkpoint.bytes"] += os.path.getsize(args[1])

        self.timed(RunCheckpoint, "save", "checkpoint", "checkpoint.writes", after=checkpoint_bytes)

        def request_done(args, out, d, outermost):
            if outermost:
                self.request_s.append(d)

        for method in ("records", "append", "query", "stats", "problems", "count", "etag",
                       "compact"):
            self.timed(ServiceClient, method, "service.request", after=request_done)

        def response_bytes(args, out):
            return float(out[2].get("content-length", 0) or 0)

        self.counted(ServiceClient, "_request", "service.requests",
                     points=response_bytes, points_key="service.bytes_read")
        return self

    def uninstall(self) -> None:
        """Restore every wrapped attribute."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- readout --------------------------------------------------------------------
    def take(self) -> Dict[str, Any]:
        """Per-layer totals since the last call, then start afresh."""
        out = {
            "self_s": dict(self.self_s),
            "counts": dict(self.counts),
            "request_s": list(self.request_s),
        }
        self._reset()
        return out
