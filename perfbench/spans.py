"""Span recorder for the traced benchmark run.

The recorder wraps public functions of the simulator from the outside: it
replaces every binding of a target function (the defining module and every
``repro.*`` module that imported the name, or the class attribute for a
method) with a wrapper that records one span per call.  Nothing inside
``src/`` changes.

A span is ``(span_id, parent_id, name, start_ns, end_ns, run_id, value)``;
``value`` is a small tuple of per-call outcomes (hit or miss; rungs and
their measured instructions) summed into the per-layer counts.  One
process records one traced run, so ``run_id`` is the process id.  Spans
live in memory and are written out once, when the run ends.  Parents come
from a per-thread stack, so the service's runner thread and its event loop
keep separate span trees.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import sys
import threading
import time
from collections import defaultdict


def _found(value):
    return (0 if value is None else 1,)


def _rungs(results):
    return (len(results), sum(result.instructions for result in results))


#: (module, function or Class.method, layer, outcome function or None).
#: The span name is the function's name as written here; every concrete
#: ``ReplayEngine.replay`` is wrapped as well (see ``install``).
TARGETS = (
    ("repro.sim.runner", "resolve_trace", "workloads", None),
    ("repro.workloads.ingest", "ingest_trace_file", "workloads", None),
    ("repro.sim.tracecache", "TraceCache.get", "sim.tracecache", _found),
    ("repro.sim.tracecache", "TraceCache.put", "sim.tracecache", None),
    ("repro.sim.predecode", "build_decoded", "sim.predecode", None),
    ("repro.sim.predecode", "build_pilot", "sim.predecode", None),
    ("repro.sim.ladder", "run_fused", "sim.ladder", _rungs),
    ("repro.sim.engine", "ReplayContext.close_interval", "sim.engine", None),
    ("repro.resizing.dynamic_strategy", "DynamicResizing.observe_interval", "resizing", None),
    ("repro.sim.runner", "job_fingerprint", "sim.runner", None),
    ("repro.sim.jobcache", "JobCache.get", "sim.jobcache", _found),
    ("repro.sim.jobcache", "JobCache.put", "sim.jobcache", None),
    ("repro.sim.runner", "SweepRunner.drain", "sim.runner", None),
    ("repro.sim.shm", "SegmentRegistry.publish", "sim.shm", None),
    ("repro.experiments.orchestrator", "DoEOrchestrator.plan", "experiments", None),
    ("repro.experiments.orchestrator", "DoEOrchestrator.enqueue", "experiments", None),
    ("repro.experiments.orchestrator", "DoEOrchestrator.analyze", "experiments", None),
)
LAYER_OF = {name: layer for _, name, layer, _ in TARGETS}
LAYER_OF["ReplayEngine.replay"] = "sim.engine"

#: Every layer a self time is reported for, plus "other" (unattributed).
LAYERS = (
    "workloads", "sim.tracecache", "sim.predecode", "sim.ladder", "sim.engine",
    "resizing", "sim.runner", "sim.jobcache", "sim.pool", "sim.shm",
    "experiments", "other",
)


class SpanRecorder:
    """In-memory span store plus the patches that feed it."""

    def __init__(self) -> None:
        self.spans = []
        self.run_id = os.getpid()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._restore = []

    # ------------------------------------------------------------ recording
    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, function, outcome=None):
        clock = time.perf_counter_ns

        @functools.wraps(function)
        def traced(*args, **kwargs):
            stack = self._stack()
            span_id = next(self._ids)
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            start = clock()
            value = None
            try:
                result = function(*args, **kwargs)
                if outcome is not None:
                    value = outcome(result)
                return result
            finally:
                end = clock()
                stack.pop()
                self.spans.append((span_id, parent, name, start, end, self.run_id, value))

        return traced

    # -------------------------------------------------------------- patching
    def install(self) -> None:
        """Patch every binding of every target (once per process)."""
        for module_name, name, _, outcome in TARGETS:
            module = importlib.import_module(module_name)
            if "." in name:
                class_name, method = name.split(".")
                self._patch_method(getattr(module, class_name), method, name, outcome)
            else:
                self._patch_function(getattr(module, name), name, outcome)
        engine = importlib.import_module("repro.sim.engine")
        for cls in _subclasses(engine.ReplayEngine):
            if "replay" in cls.__dict__ and not getattr(
                cls.__dict__["replay"], "__isabstractmethod__", False
            ):
                self._patch_method(cls, "replay", "ReplayEngine.replay", None)

    def uninstall(self) -> None:
        """Undo every patch ``install`` made."""
        while self._restore:
            owner, attribute, original = self._restore.pop()
            setattr(owner, attribute, original)

    def _patch(self, owner, attribute, original, wrapper) -> None:
        setattr(owner, attribute, wrapper)
        self._restore.append((owner, attribute, original))

    def _patch_method(self, cls, method, name, outcome) -> None:
        original = cls.__dict__[method]
        self._patch(cls, method, original, self.wrap(name, original, outcome))

    def _patch_function(self, original, name, outcome) -> None:
        wrapper = self.wrap(name, original, outcome)
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == "repro" or module_name.startswith("repro.")):
                continue
            for attribute, value in list(vars(module).items()):
                if value is original:
                    self._patch(module, attribute, original, wrapper)

    def write(self, path: str) -> None:
        """Write every span as one JSON line: the run's raw trace."""
        keys = ("span", "parent", "name", "start_ns", "end_ns", "run", "value")
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(dict(zip(keys, span))) + "\n")


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def summarize(spans, wall_s, pooled):
    """Per-span-name totals and per-layer self times for one run.

    A span's self time is its duration minus its children's durations (a
    child is recorded only inside its parent's interval on the same
    thread).  ``pooled`` says the drain dispatched to worker processes, so
    the drain's self time is time spent waiting on the pool (``sim.pool``)
    rather than runner bookkeeping.  ``other`` is the run's wall time not
    covered by any top-level span.
    """
    child_ns = defaultdict(int)
    for span in spans:
        if span[1]:
            child_ns[span[1]] += span[4] - span[3]
    by_name = defaultdict(lambda: {"calls": 0, "total_ns": 0, "self_ns": 0, "values": []})
    layer_ns = dict.fromkeys(LAYERS, 0)
    top_ns = 0
    for span_id, parent, name, start, end, _, value in spans:
        duration = end - start
        self_ns = duration - child_ns[span_id]
        entry = by_name[name]
        entry["calls"] += 1
        entry["total_ns"] += duration
        entry["self_ns"] += self_ns
        if value:
            sums = entry["values"]
            sums.extend([0] * (len(value) - len(sums)))
            for index, item in enumerate(value):
                sums[index] += item
        layer = LAYER_OF[name]
        if name == "SweepRunner.drain" and pooled:
            layer = "sim.pool"
        layer_ns[layer] += self_ns
        if not parent:
            top_ns += duration
    wall_ns = int(wall_s * 1e9)
    layer_ns["other"] = max(wall_ns - top_ns, 0)
    return dict(by_name), {layer: ns / 1e9 for layer, ns in layer_ns.items()}
