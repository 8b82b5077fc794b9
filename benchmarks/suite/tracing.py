"""Span tracing around the program's layer boundaries, installed from outside.

:class:`Tracer` replaces a fixed set of public functions and methods with
timing wrappers: module-level names where the runner looks them up
(``repro.experiments.runner.<name>``) and methods on their classes.  Nothing
in ``src/`` is edited, and :meth:`Tracer.uninstall` puts every original
back.

Each call opens a span (name, start, end, parent).  Spans stay in memory
until the rep ends.  A layer's time is its spans' *self* time: duration
minus the part of it that child spans cover, so nested layers are never
counted twice.  ``runner.glue_s`` is the part of the traced wall time that
no root span covers.  When spans nest properly (children inside their
parent, siblings apart, roots inside the timed body) the layer times and
glue add up to the wall time exactly, and ``tracing.coverage`` is 1.  Time
covered twice (spans crossing their parent's end, overlapping siblings,
as spans recorded from two threads would be) pushes it above 1.
"""

from __future__ import annotations

import functools
import json
import os
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

#: Span name -> per-layer time metric.
LAYER_TIMES = {
    "graph.load": "graph.load_s",
    "reorder.apply": "reorder.apply_s",
    "analytics.run": "analytics.run_s",
    "trace.gen": "trace.gen_s",
    "filter": "filter.s",
    "fused.feed": "fused.feed_s",
    "replay.rrip": "replay.rrip_s",
    "replay.ship": "replay.ship_s",
    "replay.hawkeye": "replay.hawkeye_s",
    "replay.leeway": "replay.leeway_s",
    "replay.pin": "replay.pin_s",
    "opt.next_use": "opt.next_use_s",
    "opt.replay": "opt.replay_s",
    "hints.classify": "hints.classify_s",
    "memo.get": "memo.get_s",
    "memo.contains": "memo.contains_s",
    "memo.put": "memo.put_s",
    "spill": "spill.s",
}

#: Work counters reported as they are, with their units.
LAYER_COUNTS = {
    "graph.edges": "count",
    "analytics.iterations": "count",
    "trace.refs": "count",
    "filter.refs": "count",
    "fused.refs": "count",
    "fused.chunks": "count",
    "replay.accesses": "count",
    "hints.accesses": "count",
    "memo.gets": "count",
    "memo.put_bytes": "bytes",
    "spill.bytes": "bytes",
}

#: Every per-layer metric: name -> (unit, which direction is better).
#: Less work or time for the same results is better; so are memo hits and
#: a breakdown that covers the whole wall time.
LAYER_METRICS = {
    **{metric: ("s", "lower") for metric in LAYER_TIMES.values()},
    **{name: (unit, "lower") for name, unit in LAYER_COUNTS.items()},
    "filter.keep_ratio": ("ratio", "lower"),
    "memo.hit_ratio": ("ratio", "higher"),
    "service.tasks_executed": ("count", "lower"),
    "service.tasks_cached": ("count", "higher"),
    "runner.glue_s": ("s", "lower"),
    "tracing.spans": ("count", "lower"),
    "tracing.coverage": ("ratio", "higher"),
    "tracing.overhead_pct": ("%", "lower"),
}


def _covered(intervals: List[tuple], low: float, high: float) -> float:
    """Length of the union of ``(start, end)`` intervals clipped to [low, high]."""
    total, reach = 0.0, low
    for start, end in sorted(intervals):
        end = min(end, high)
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def _family(policy) -> str:
    """Engine family of an LLC policy, as the fast-path dispatch decides it."""
    from repro.fastsim.hawkeye import hawkeye_spec
    from repro.fastsim.leeway import leeway_spec
    from repro.fastsim.pin import pin_spec
    from repro.fastsim.rrip import rrip_spec
    from repro.fastsim.ship import ship_spec

    for family, spec in (
        ("rrip", rrip_spec), ("pin", pin_spec), ("ship", ship_spec),
        ("hawkeye", hawkeye_spec), ("leeway", leeway_spec),
    ):
        if spec(policy) is not None:
            return family
    return type(policy).__name__.lower()


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self, rep: int = 0) -> None:
        self.rep = rep
        #: [name, start, end, parent index or -1]
        self.spans: List[list] = []
        self.counters: Dict[str, float] = defaultdict(float)
        self.origin = time.perf_counter()
        self._open: List[int] = []
        self._patches: List[tuple] = []

    # -- spans ------------------------------------------------------------

    def timed(self, name, fn: Callable, count: Optional[Callable] = None) -> Callable:
        """``fn`` wrapped in a span; ``count(counters, args, result)`` runs after.

        ``name`` is a span name or a function of the call's arguments.
        """
        spans, stack, counters = self.spans, self._open, self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append([
                name if isinstance(name, str) else name(args),
                time.perf_counter(), 0.0, stack[-1] if stack else -1,
            ])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index][2] = time.perf_counter()
                stack.pop()
            if count is not None:
                count(counters, args, result)
            return result

        return wrapper

    def current(self) -> Optional[str]:
        """Name of the innermost open span."""
        return self.spans[self._open[-1]][0] if self._open else None

    # -- installation -----------------------------------------------------

    def _patch(self, owner, attribute: str, make: Callable[[Callable], Callable]) -> None:
        original = vars(owner)[attribute]
        self._patches.append((owner, attribute, original))
        setattr(owner, attribute, make(original))

    def _traced_methods(self, factory: Callable, method: str, name: str, count=None):
        """Wrap ``factory`` so each object it returns has ``method`` traced."""

        @functools.wraps(factory)
        def wrapper(*args, **kwargs):
            obj = factory(*args, **kwargs)
            setattr(obj, method, self.timed(name, getattr(obj, method), count))
            return obj

        return wrapper

    def _traced_chunks(self, generator_fn: Callable) -> Callable:
        """Wrap a chunk generator so each ``next()`` is a ``trace.gen`` span."""
        spans, stack, counters = self.spans, self._open, self.counters

        @functools.wraps(generator_fn)
        def wrapper(*args, **kwargs):
            chunks = generator_fn(*args, **kwargs)
            while True:
                index = len(spans)
                spans.append(["trace.gen", time.perf_counter(), 0.0, stack[-1] if stack else -1])
                stack.append(index)
                try:
                    chunk = next(chunks)
                except StopIteration:
                    return
                finally:
                    spans[index][2] = time.perf_counter()
                    stack.pop()
                counters["trace.refs"] += len(chunk.trace)
                yield chunk

        return wrapper

    def install(self) -> None:
        """Patch every layer boundary the benchmark measures."""
        from repro.core.classification import GraspClassifier
        from repro.experiments import runner
        from repro.experiments.memo import ChunkSpill, DiskMemo
        from repro.fastsim.filter import FilterStream
        from repro.fastsim.opt import OptStream
        from repro.fastsim.pipeline import FusedPipeline, MultiFusedPipeline
        from repro.fastsim.replay import PolicyReplayStream

        def add(key, amount):
            def count(counters, args, result):
                counters[key] += amount(args, result)
            return count

        timed = self.timed
        self._patch(runner, "load_for_experiment", lambda f: timed(
            "graph.load", f, add("graph.edges", lambda a, r: r.num_edges)))
        self._patch(runner, "get_technique", lambda f: self._traced_methods(
            f, "apply", "reorder.apply"))
        self._patch(runner, "get_application", lambda f: self._traced_methods(
            f, "run", "analytics.run",
            add("analytics.iterations", lambda a, r: len(r.iterations))))
        self._patch(runner, "generate_iteration_trace", lambda f: timed(
            "trace.gen", f, add("trace.refs", lambda a, r: len(r))))
        self._patch(runner, "iter_execution_trace", self._traced_chunks)

        def filtered(counters, args, keep):
            counters["filter.refs"] += len(keep)
            counters["filter.kept"] += int(keep.sum())

        self._patch(runner, "run_filter", lambda f: timed(
            "filter", f, lambda c, a, r: filtered(c, a, r.keep)))
        self._patch(FilterStream, "feed", lambda f: timed("filter", f, filtered))

        def fed(counters, args, result):
            counters["fused.refs"] += len(args[1])
            counters["fused.chunks"] += 1

        self._patch(FusedPipeline, "feed", lambda f: timed("fused.feed", f, fed))
        self._patch(MultiFusedPipeline, "feed", lambda f: timed("fused.feed", f, fed))

        self._patch(PolicyReplayStream, "feed", lambda f: timed(
            lambda a: "replay." + type(a[0].engine).__name__[: -len("Stream")].lower(),
            f, add("replay.accesses", lambda a, r: len(a[1]))))
        self._patch(runner, "vector_policy_replay", lambda f: timed(
            lambda a: "replay." + _family(a[0]),
            f, add("replay.accesses", lambda a, r: len(a[1]))))
        self._patch(runner, "resolve_chunk_next_use", lambda f: timed("opt.next_use", f))
        self._patch(runner, "vector_opt_replay", lambda f: timed("opt.replay", f))
        self._patch(OptStream, "feed", lambda f: timed("opt.replay", f))

        self._patch(GraspClassifier, "classify_array", lambda f: timed(
            "hints.classify", f, add("hints.accesses", lambda a, r: len(r))))

        def memo_get(original):
            traced = timed("memo.get", original, looked_up)

            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                # contains() is a get() underneath: keep its load in its span.
                if self.current() == "memo.contains":
                    return original(*args, **kwargs)
                return traced(*args, **kwargs)

            return wrapper

        def looked_up(counters, args, value):
            counters["memo.gets"] += 1
            counters["memo.hits"] += value is not None

        def stored(counters, args, result):
            memo, kind, key = args[:3]
            try:
                counters["memo.put_bytes"] += os.path.getsize(memo.path_for(kind, key))
            except OSError:
                pass

        self._patch(DiskMemo, "get", memo_get)
        self._patch(DiskMemo, "contains", lambda f: timed("memo.contains", f))
        self._patch(DiskMemo, "put", lambda f: timed("memo.put", f, stored))
        self._patch(ChunkSpill, "put", lambda f: timed(
            "spill", f, add("spill.bytes", lambda a, r: a[3].nbytes)))
        self._patch(ChunkSpill, "get", lambda f: timed(
            "spill", f, add("spill.bytes", lambda a, r: r.nbytes)))

    def uninstall(self) -> None:
        """Restore every patched attribute, last patch first."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    # -- results ----------------------------------------------------------

    def layer_metrics(self, body_start: float, body_end: float,
                      span_cost_s: float) -> Dict[str, float]:
        """Per-layer self times and counters for a traced body timed by
        ``perf_counter`` from ``body_start`` to ``body_end``."""
        wall_s = body_end - body_start
        children: List[list] = [[] for _ in self.spans]
        roots = []
        for _, start, end, parent in self.spans:
            if parent >= 0:
                children[parent].append((start, end))
            else:
                roots.append((start, end))
        metrics = {metric: 0.0 for metric in LAYER_TIMES.values()}
        for index, (name, start, end, _) in enumerate(self.spans):
            metric = LAYER_TIMES.get(name, name + "_s")
            own = end - start - _covered(children[index], start, end)
            metrics[metric] = metrics.get(metric, 0.0) + own
        layered = sum(metrics.values())
        glue = wall_s - _covered(roots, body_start, body_end)
        counters = self.counters
        metrics.update({name: int(counters.get(name, 0)) for name in LAYER_COUNTS})
        metrics["filter.keep_ratio"] = (
            counters["filter.kept"] / counters["filter.refs"] if counters["filter.refs"] else 0.0
        )
        metrics["memo.hit_ratio"] = (
            counters["memo.hits"] / counters["memo.gets"] if counters["memo.gets"] else 0.0
        )
        metrics["runner.glue_s"] = glue
        metrics["tracing.spans"] = len(self.spans)
        metrics["tracing.coverage"] = (layered + glue) / wall_s
        metrics["tracing.overhead_pct"] = 100.0 * len(self.spans) * span_cost_s / wall_s
        return metrics

    def write_spans(self, path: str) -> None:
        """Append this rep's spans to a JSON-lines file."""
        with open(path, "a") as handle:
            for name, start, end, parent in self.spans:
                handle.write(json.dumps({
                    "name": name, "start": start - self.origin, "end": end - self.origin,
                    "parent": parent, "rep": self.rep,
                }) + "\n")


def per_span_cost(calls: int = 20000, trials: int = 5) -> float:
    """Host seconds one traced call adds over an untraced one (best of trials)."""
    tracer = Tracer()

    def noop():
        return None

    traced = tracer.timed("calibrate", noop, lambda counters, args, result: None)
    best = float("inf")
    for _ in range(trials):
        started = time.perf_counter()
        for _ in range(calls):
            noop()
        plain = time.perf_counter() - started
        tracer.spans.clear()
        started = time.perf_counter()
        for _ in range(calls):
            traced()
        best = min(best, (time.perf_counter() - started - plain) / calls)
    return max(best, 0.0)
