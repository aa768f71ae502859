"""The traced pass: in-memory spans around calls into each layer.

Wrappers are installed from here, onto the public functions and methods
of the ``repro`` modules (never by editing them), and removed again
after the traced iteration.  Each wrapped call records one span — layer
name, start, end, parent span — into flat arrays; the run id is the
tracer's.  A few targets are counted rather than timed
(``Topology.index``, whose per-call cost is below a span's own).

A target that no longer exists (a later change deleted or renamed it)
is skipped and listed in the output; the rest still trace.

Self time is a span's duration minus the time its child spans cover.
Children of one span never overlap — the program runs its layers on one
thread — so the covered time is the sum of the children's durations.

Worker processes of the parallel shard drain run under the same
wrappers (they are forked from the traced process); each returns its
spans with its result.  Workers run side by side, so their self times
enter the layer totals divided by the worker count, and the pool span
keeps the rest of its wall time: pool start-up, pickling and idle.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from array import array
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import numpy as np


@dataclass
class Spans:
    """A flat span set: parallel arrays plus the layer-name table."""

    names: list[str] = field(default_factory=list)
    name: array = field(default_factory=lambda: array("i"))
    start: array = field(default_factory=lambda: array("d"))
    end: array = field(default_factory=lambda: array("d"))
    parent: array = field(default_factory=lambda: array("i"))

    def __len__(self) -> int:
        return len(self.start)


def self_times(spans: Spans) -> dict[str, float]:
    """Seconds of self time per layer name."""
    n = len(spans)
    if n == 0:
        return {}
    start = np.frombuffer(spans.start, dtype=float)
    end = np.frombuffer(spans.end, dtype=float)
    parent = np.frombuffer(spans.parent, dtype=np.int32)
    name = np.frombuffer(spans.name, dtype=np.int32)
    duration = end - start
    nested = parent >= 0
    covered = np.bincount(parent[nested], weights=duration[nested], minlength=n)
    own = duration - covered
    per_name = np.bincount(name, weights=own, minlength=len(spans.names))
    present = np.bincount(name, minlength=len(spans.names)) > 0
    return {spans.names[i]: float(per_name[i]) for i in np.flatnonzero(present)}


def root_time(spans: Spans) -> float:
    """Total duration of the spans that have no parent."""
    start = np.frombuffer(spans.start, dtype=float)
    end = np.frombuffer(spans.end, dtype=float)
    roots = np.frombuffer(spans.parent, dtype=np.int32) < 0
    return float((end - start)[roots].sum())


class Tracer:
    """Records spans and counters for one traced run."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.pid = os.getpid()
        self.spans = Spans()
        self._ids: dict[str, int] = {}
        self.stack: list[int] = []
        self.counts: dict[str, float] = {}
        self.weather_keys: set = set()
        #: ``events_processed`` at entry of each open ``Simulator.run``.
        self.sim_events_at_entry: list[int] = []
        #: Spans shipped back by worker processes, one set per shard.
        self.worker_spans: list[Spans] = []
        self.worker_counts: list[dict[str, float]] = []
        self.workers_used = 0
        #: ``ShardResult.wall_s`` of every shard drained.
        self.shard_walls: list[float] = []

    def name_id(self, name: str) -> int:
        """The index of layer ``name`` in the name table."""
        if name not in self._ids:
            self._ids[name] = len(self.spans.names)
            self.spans.names.append(name)
        return self._ids[name]

    def add(self, key: str, value: float = 1.0) -> None:
        """Add ``value`` to counter ``key``."""
        self.counts[key] = self.counts.get(key, 0.0) + value

    def peak(self, key: str, value: float) -> None:
        """Raise high-water mark ``key`` to ``value``."""
        if value > self.counts.get(key, 0.0):
            self.counts[key] = value

    def wrap(
        self,
        layer: str,
        fn: Callable,
        before: Optional[Callable] = None,
        after: Optional[Callable] = None,
    ) -> Callable:
        """``fn`` timed as one span of ``layer`` per call.

        ``before(args, kwargs)`` may return replacement ``(args,
        kwargs)``; ``after(result, args)`` sees the result.
        """
        name_id = self.name_id(layer)
        spans = self.spans
        stack = self.stack
        perf = time.perf_counter
        starts, ends, names, parents = spans.start, spans.end, spans.name, spans.parent

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            index = len(starts)
            parents.append(stack[-1] if stack else -1)
            names.append(name_id)
            ends.append(0.0)
            stack.append(index)
            starts.append(perf())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = perf()
                stack.pop()
            if after is not None:
                after(result, args)
            return result

        return wrapper

    def counter(self, key: str, fn: Callable) -> Callable:
        """``fn`` with its calls counted under ``key`` (no span)."""
        counts = self.counts
        counts.setdefault(key, 0.0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1.0
            return fn(*args, **kwargs)

        return wrapper

    # -- worker processes ------------------------------------------------

    def detach_for_worker(self) -> int:
        """Start a fresh span set inside a forked worker; returns its mark."""
        self.stack.clear()
        for key in self.counts:
            self.counts[key] = 0.0
        self.weather_keys.clear()
        return len(self.spans)

    def worker_payload(self, mark: int) -> tuple:
        """The spans and counts recorded since ``mark``, re-indexed."""
        s = self.spans
        parent = [p - mark if p >= mark else -1 for p in s.parent[mark:]]
        return (
            list(s.names),
            array("i", s.name[mark:]),
            array("d", s.start[mark:]),
            array("d", s.end[mark:]),
            array("i", parent),
            dict(self.counts),
        )

    def harvest(self, payload: tuple) -> None:
        """Keep the spans and counts a worker shipped home."""
        names, name, start, end, parent, counts = payload
        self.worker_spans.append(Spans(names, name, start, end, parent))
        self.worker_counts.append(counts)

    # -- results ---------------------------------------------------------

    def layer_self_times(self, pool_layer: str) -> dict[str, float]:
        """Self seconds per layer, worker shards folded in by wall share."""
        totals = self_times(self.spans)
        if self.worker_spans and self.workers_used > 0:
            share = 1.0 / self.workers_used
            covered = 0.0
            for spans in self.worker_spans:
                for layer, seconds in self_times(spans).items():
                    totals[layer] = totals.get(layer, 0.0) + seconds * share
                covered += root_time(spans) * share
            totals[pool_layer] = totals.get(pool_layer, 0.0) - covered
        return totals

    def inclusive_seconds(self, layer: str) -> float:
        """Summed duration of ``layer``'s spans (the layer never nests in itself)."""
        if layer not in self._ids:
            return 0.0
        name = np.frombuffer(self.spans.name, dtype=np.int32)
        start = np.frombuffer(self.spans.start, dtype=float)
        end = np.frombuffer(self.spans.end, dtype=float)
        mask = name == self._ids[layer]
        return float((end - start)[mask].sum())

    def layer_calls(self) -> dict[str, int]:
        """Span count per layer, worker shards included."""
        out: dict[str, int] = {}
        for spans in [self.spans, *self.worker_spans]:
            counts = np.bincount(np.frombuffer(spans.name, dtype=np.int32), minlength=len(spans.names))
            for i, c in enumerate(counts):
                out[spans.names[i]] = out.get(spans.names[i], 0) + int(c)
        return out

    def total_counts(self) -> dict[str, float]:
        """Counters, worker shards included (peaks take the maximum)."""
        out = dict(self.counts)
        for counts in self.worker_counts:
            for key, value in counts.items():
                if key.endswith(".peak"):
                    out[key] = max(out.get(key, 0.0), value)
                else:
                    out[key] = out.get(key, 0.0) + value
        return out

    def dump(self, path: Path) -> None:
        """Write every span (workers' included) as a compressed archive."""
        path.parent.mkdir(parents=True, exist_ok=True)
        sets = [self.spans, *self.worker_spans]
        arrays: dict[str, np.ndarray] = {}
        for k, spans in enumerate(sets):
            arrays[f"set{k}_name"] = np.frombuffer(spans.name, dtype=np.int32)
            arrays[f"set{k}_start"] = np.frombuffer(spans.start, dtype=float)
            arrays[f"set{k}_end"] = np.frombuffer(spans.end, dtype=float)
            arrays[f"set{k}_parent"] = np.frombuffer(spans.parent, dtype=np.int32)
        header = {
            "run_id": self.run_id,
            "sets": len(sets),
            "names": [spans.names for spans in sets],
            "workers_used": self.workers_used,
        }
        np.savez_compressed(path, header=np.array(json.dumps(header)), **arrays)


# -- targets -----------------------------------------------------------


@dataclass(frozen=True)
class Target:
    """One wrapped entry point: ``module:Qual.name`` → layer."""

    layer: str
    path: str
    #: ``span`` times each call; ``count`` only counts it.
    kind: str = "span"


def _public_methods(module: str, cls: str, layer: str) -> list[Target]:
    """Every public function defined on ``cls`` (not inherited)."""
    try:
        klass = getattr(importlib.import_module(module), cls)
    except (ImportError, AttributeError):
        return [Target(layer, f"{module}:{cls}.*")]
    return [
        Target(layer, f"{module}:{cls}.{name}")
        for name, value in vars(klass).items()
        if not name.startswith("_")
        and (isinstance(value, (classmethod, staticmethod)) or callable(value))
        and not isinstance(value, type)
    ]


def _classes_defining(module: str, method: str, layer: str) -> list[Target]:
    """``method`` on every class of ``module`` that defines it."""
    try:
        mod = importlib.import_module(module)
    except ImportError:
        return [Target(layer, f"{module}:*.{method}")]
    return [
        Target(layer, f"{module}:{name}.{method}")
        for name, value in vars(mod).items()
        if isinstance(value, type) and value.__module__ == module and method in vars(value)
    ]


def targets() -> list[Target]:
    """The wrapped entry points, by layer."""
    out = [
        Target("sim", "repro.sim.kernel:Simulator.run"),
        Target("net.weather", "repro.net.dynamics:FluctuationModel.factor"),
        Target("net.weather", "repro.runtime.scenarios:ScenarioModel.factor"),
        Target("net.capacity", "repro.net.simulator:NetworkSimulator.pair_capacity"),
        Target("net.topology.lookups", "repro.net.topology:Topology.index", kind="count"),
        Target("net.alloc", "repro.net.sharing:allocate"),
        Target("net.alloc", "repro.net.batch:allocate_batch"),
        Target("net.transfer", "repro.net.simulator:NetworkSimulator.start_transfer"),
        Target("net.transfer", "repro.net.simulator:NetworkSimulator.cancel_transfer"),
        Target("net.transfer", "repro.net.batch:VectorKernel.advance"),
        Target("net.transfer", "repro.net.batch:VectorKernel.progress"),
        Target("net.measurement", "repro.net.measurement:measure_simultaneous"),
        Target("net.measurement", "repro.net.measurement:snapshot"),
        Target("pipeline.train", "repro.pipeline.core:Pipeline.train"),
        Target("pipeline.gauge", "repro.pipeline.stages:SnapshotGauger.gauge"),
        Target("pipeline.predict", "repro.pipeline.stages:ForestPredictor.predict"),
        Target("pipeline.plan", "repro.pipeline.stages:WindowPlanner.plan"),
        Target("pipeline.deploy", "repro.pipeline.deploy:Deployment.install"),
        Target("pipeline.deploy", "repro.pipeline.deploy:Deployment.teardown"),
        Target("runtime.scheduling.parallel", "repro.runtime.scheduling.parallel:ShardExecutor.run"),
        Target("runtime.scheduling.parallel", "repro.runtime.scheduling.parallel:run_shard"),
        Target("runtime.drift", "repro.runtime.drift:DriftDetector.check"),
        Target("runtime.drift", "repro.runtime.drift:DriftDetector.rebase"),
        Target("runtime.recalibrator", "repro.runtime.recalibrator:CapacityRecalibrator.tick"),
        Target("runtime.recalibrator", "repro.runtime.recalibrator:CapacityRecalibrator.rebase"),
    ]
    for scheduler in ("repro.runtime.scheduler:JobScheduler", "repro.runtime.scheduling.shards:ShardedScheduler"):
        for method in ("submit", "submit_at", "submit_many", "preempt", "stats"):
            out.append(Target("runtime.scheduler", f"{scheduler}.{method}"))
    out += _classes_defining("repro.runtime.scheduling.policies", "order", "runtime.scheduler")
    out += _classes_defining("repro.runtime.control.preemption", "select", "runtime.control")
    out += _public_methods("repro.runtime.control.governor", "BandwidthGovernor", "runtime.control")
    out += _public_methods("repro.runtime.control.autoscaler", "ConcurrencyAutoscaler", "runtime.control")
    out += _public_methods("repro.runtime.control.plane", "ControlPlane", "runtime.control")
    out += _public_methods("repro.runtime.observability.hub", "ObservabilityHub", "runtime.observability")
    out += _public_methods("repro.runtime.observability.warehouse", "MetricsLog", "runtime.observability")
    out += _public_methods("repro.runtime.observability.trace", "EventTrace", "runtime.observability")
    out += _public_methods("repro.runtime.telemetry", "TelemetryStore", "runtime.telemetry")
    out += _public_methods("repro.runtime.telemetry", "LinkSeries", "runtime.telemetry")
    out += _public_methods("repro.runtime.service", "PipelineService", "runtime.service")
    return out


# -- per-target hooks --------------------------------------------------


def _hooks(tracer: Tracer, target: Target):
    """``(before, after)`` for targets that count more than calls."""
    method = target.path.rsplit(".", 1)[-1].rsplit(":", 1)[-1]
    if target.path.endswith("FluctuationModel.factor"):
        keys = tracer.weather_keys

        def before(args, kwargs):
            model, i, j, t = args[0], args[1], args[2], args[3]
            period = getattr(model, "noise_period_s", None)
            if period:
                tracer.add("net.weather.derivations")
                key = (id(model), i, j, int(t // period))
                if key in keys:
                    tracer.add("net.weather.repeats")
                else:
                    keys.add(key)
            return args, kwargs

        return before, None
    if target.layer == "net.alloc":

        def after(result, args):
            tracer.add("net.alloc.flows", len(args[0]))

        return None, after
    if method == "start_transfer":

        def before(args, kwargs):
            args = list(args)
            if len(args) > 4:
                original = args[4]
            else:
                original = kwargs.get("on_complete")

            def on_complete(transfer, _original=original):
                tracer.add("net.transfer.active", -1.0)
                if transfer.src != transfer.dst:
                    tracer.add("net.transfer.delivered_mbits", transfer.size_mbits)
                if _original is not None:
                    _original(transfer)

            if len(args) > 4:
                args[4] = on_complete
            else:
                kwargs["on_complete"] = on_complete
            return tuple(args), kwargs

        def after(transfer, args):
            tracer.add("net.transfer.started")
            if transfer.tag == "iperf":
                tracer.add("net.measurement.probe_transfers")
            tracer.add("net.transfer.active")
            tracer.peak("net.transfer.active.peak", tracer.counts["net.transfer.active"])

        return before, after
    if method == "cancel_transfer":

        def before(args, kwargs):
            transfer = args[1] if len(args) > 1 else kwargs["transfer"]
            if not transfer.done:
                tracer.add("net.transfer.cancelled")
                tracer.add("net.transfer.active", -1.0)
            return args, kwargs

        return before, None
    if target.path.endswith("Simulator.run"):

        def before(args, kwargs):
            tracer.sim_events_at_entry.append(args[0].events_processed)
            return args, kwargs

        def after(result, args):
            tracer.add("sim.events", args[0].events_processed - tracer.sim_events_at_entry.pop())

        return before, after
    if target.layer == "runtime.scheduler" and method == "order":

        def after(result, args):
            tracer.peak("runtime.scheduler.queue.peak", len(args[1]))

        return None, after
    if method == "check" and target.layer == "runtime.drift":

        def after(result, args):
            tracer.add("runtime.drift.checks")

        return None, after
    if method == "tick" and target.layer == "runtime.recalibrator":

        def after(result, args):
            tracer.add("runtime.recalibrator.ticks")

        return None, after
    return None, None


def _worker_entry(tracer: Tracer, wrapped: Callable) -> Callable:
    """``run_shard`` that ships its spans home from a worker process."""

    @functools.wraps(wrapped)
    def run_shard(task):
        if os.getpid() == tracer.pid:
            return wrapped(task)
        mark = tracer.detach_for_worker()
        result = wrapped(task)
        result.perfbench_spans = tracer.worker_payload(mark)
        return result

    return run_shard


def _harvest_entry(tracer: Tracer, wrapped: Callable) -> Callable:
    """``ShardExecutor.run`` that collects the workers' spans."""

    @functools.wraps(wrapped)
    def run(executor, tasks):
        results = wrapped(executor, tasks)
        for result in results:
            tracer.shard_walls.append(result.wall_s)
            payload = getattr(result, "perfbench_spans", None)
            if payload is not None:
                tracer.harvest(payload)
                del result.perfbench_spans
        tracer.workers_used = max(tracer.workers_used, executor.workers_used)
        return results

    return run


@dataclass
class Installation:
    """Wrappers in place; :meth:`restore` puts the originals back."""

    patched: list[tuple[object, str, object]] = field(default_factory=list)
    skipped: list[str] = field(default_factory=list)
    installed: list[str] = field(default_factory=list)

    def restore(self) -> None:
        """Undo every patch, newest first."""
        for owner, attr, original in reversed(self.patched):
            setattr(owner, attr, original)
        self.patched.clear()


def _resolve(path: str):
    module_name, qual = path.split(":")
    module = importlib.import_module(module_name)
    parts = qual.split(".")
    owner = module
    for part in parts[:-1]:
        owner = getattr(owner, part)
    attr = parts[-1]
    if isinstance(owner, type):
        # The class's own attribute, so classmethods stay classmethods
        # and inherited methods are left to the class that defines them.
        return module, owner, attr, vars(owner)[attr]
    return module, owner, attr, getattr(owner, attr)


def install(tracer: Tracer) -> Installation:
    """Wrap every target that exists; list the rest as skipped."""
    inst = Installation()
    for target in targets():
        try:
            module, owner, attr, original = _resolve(target.path)
        except (ImportError, AttributeError, KeyError, ValueError):
            inst.skipped.append(target.path)
            continue
        binder = type(original) if isinstance(original, (classmethod, staticmethod)) else None
        function = original.__func__ if binder is not None else original
        if target.kind == "count":
            wrapper = tracer.counter(target.layer, function)
        else:
            before, after = _hooks(tracer, target)
            wrapper = tracer.wrap(target.layer, function, before, after)
        if target.path.endswith(":run_shard"):
            wrapper = _worker_entry(tracer, wrapper)
        if target.path.endswith("ShardExecutor.run"):
            wrapper = _harvest_entry(tracer, wrapper)
        if binder is not None:
            wrapper = binder(wrapper)
        inst.patched.append((owner, attr, original))
        setattr(owner, attr, wrapper)
        inst.installed.append(target.path)
        if owner is module:
            # ``from module import fn`` bindings elsewhere in the package.
            for name, other in list(sys.modules.items()):
                if other is None or other is module or not name.startswith("repro"):
                    continue
                for binding, value in list(vars(other).items()):
                    if value is original:
                        inst.patched.append((other, binding, original))
                        setattr(other, binding, wrapper)
    return inst
