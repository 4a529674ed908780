"""Per-layer host-time spans, installed from outside the program.

A *layer* is a group of ``src/repro`` modules (:data:`LAYERS`, kept in
``ledger.json`` with the rest of the benchmark's documentation). Tracing
replaces, in place, every public function and public method defined in
those modules — plus every generator function, public or private,
because the engine resumes process bodies directly — with a wrapper
that records a span: call count, duration, and the part of that
duration covered by spans opened inside it. A layer's *self time* is
the sum of its spans' durations minus their child spans, so the self
times of all layers never exceed the wall time of the process. A
generator span covers one resumption, not the generator's lifetime.

Names are rebound wherever the program holds them: the defining module,
every loaded ``repro`` module that imported the name, and module-level
dicts that map names to it (``comm.patterns.PATTERNS``). Methods are
replaced on their class, so subclasses inherit the wrapper.

Time spent in modules no layer names (``repro.simulation.clock``,
``repro.storage.ordered_index``, ``repro.utils.hashing``...) lands in
the self time of the layer that called it.

Each process keeps its spans in memory. The root process writes them
when the workload returns; a forked sweep-pool child starts from zero
and writes its own file when it exits, through ``multiprocessing``'s
after-fork and exit hooks, so the runner sums every process of a run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import multiprocessing.connection
import multiprocessing.util
import os
import pkgutil
import sys
import time
from collections import defaultdict
from pathlib import Path

#: layer name -> modules (a package means every submodule), from ledger.json.
LAYERS: dict[str, list[str]] = json.loads(
    (Path(__file__).resolve().parent / "ledger.json").read_text()
)["layers"]

#: Private methods that another layer calls directly, so they are layer
#: boundaries too: the engine applies storage effects at completion time.
BOUNDARY_PRIVATE = {
    "repro.storage.base.ObjectStore": (
        "_do_put", "_do_get", "_do_delete", "_do_list", "_exists", "_count_prefix",
    ),
}

#: Functions whose inclusive time is the sweep's artifact and trace I/O.
SWEEP_IO = {
    "repro.sweep.artifacts.write_artifact",
    "repro.sweep.artifacts.load_artifact",
    "repro.sweep.artifacts.scan_artifacts",
    "repro.substrate.traces.write_trace",
    "repro.substrate.traces.load_trace",
    "repro.substrate.traces.scan_traces",
}


def _count_storage_op(counts, args, kwargs, result):
    op = args[1] if len(args) > 1 else kwargs["op"]
    counts["storage.ops"] += 1
    if op == "put":
        counts["storage.puts"] += 1
    elif op == "get":
        counts["storage.gets"] += 1


def _count_polls(counts, args, kwargs, result):
    counts["storage.polls"] += args[1] if len(args) > 1 else kwargs["count"]


def _count_attach(counts, args, kwargs, result):
    from repro.substrate import RecordingSubstrate, ReplaySubstrate

    if isinstance(args[0], RecordingSubstrate):
        counts["substrate.recorded"] += 1
    elif isinstance(args[0], ReplaySubstrate):
        counts["substrate.replayed"] += 1


def _count_sweep(counts, args, kwargs, result):
    counts["sweep.points_planned"] += result.ran + result.skipped
    counts["sweep.points_run"] += result.ran
    counts["sweep.points_resumed"] += result.skipped


def _count_crashes(counts, args, kwargs, result):
    counts["faults.crashes"] += result["crashes"]


def _count_requests(counts, args, kwargs, result):
    records, _pool = result
    counts["serving.requests"] += len(records)


def _counter(name):
    def count(counts, args, kwargs, result):
        counts[name] += 1

    return count


#: "module.qualname" -> hook(counts, args, kwargs, result) run after the call.
COUNTERS = {
    "repro.storage.base.ObjectStore.schedule_op": _count_storage_op,
    "repro.storage.base.ObjectStore.record_polls": _count_polls,
    "repro.simulation.tracing.TimeBreakdown.add": _counter("simulation.tracing.adds"),
    "repro.substrate.base.Substrate.attach": _count_attach,
    "repro.faults.injector.FaultInjector.events": _count_crashes,
    "repro.sweep.orchestrator.run_sweep": _count_sweep,
    "repro.sweep.artifacts.write_artifact": _counter("sweep.artifact_writes"),
    "repro.sweep.artifacts.load_artifact": _counter("sweep.artifact_reads"),
    "repro.serving.runtime.ServingRuntime.run": _count_requests,
}
for _scaler in ("Autoscaler", "FixedScaler", "ConcurrencyScaler", "QueueDepthScaler"):
    COUNTERS[f"repro.serving.autoscale.{_scaler}.desired"] = _counter(
        "serving.autoscale_calls"
    )


class Recorder:
    """One process's spans: self time and counts per layer."""

    def __init__(self, out_dir: str) -> None:
        self.out_dir = out_dir
        self.stack: list[list[float]] = []  # open spans: [start, child time]
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.io = [0, 0.0]  # [open I/O calls, inclusive I/O seconds]
        self.engine_stats: list = []  # filled by engine.capture_stats
        self.stats_from = 0
        self.import_s = 0.0
        self.role = "root"

    def after_fork(self) -> None:
        """Start a forked child from zero; write its file when it exits."""
        self.stack.clear()
        self.self_s.clear()
        self.counts.clear()
        self.io[:] = [0, 0.0]
        self.stats_from = len(self.engine_stats)
        self.import_s = 0.0
        self.role = "child"
        multiprocessing.util.Finalize(self, self.flush, exitpriority=0)

    def summary(self) -> dict:
        stats = self.engine_stats[self.stats_from:]
        return {
            "pid": os.getpid(),
            "role": self.role,
            "import_s": self.import_s,
            "self_s": dict(self.self_s),
            "counts": dict(self.counts),
            "io_s": self.io[1],
            "engine": {
                "events": sum(s.events for s in stats),
                "batches": sum(s.batches for s in stats),
                "peak_heap": max((s.peak_heap for s in stats), default=0),
            },
        }

    def flush(self) -> None:
        path = os.path.join(self.out_dir, f"spans-{os.getpid()}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.summary(), fh, sort_keys=True)


def _span(fn, layer: str, rec: Recorder, hook=None, io: bool = False):
    """Wrap a plain callable in a span of `layer`."""
    perf = time.perf_counter
    stack, self_s, counts, io_state = rec.stack, rec.self_s, rec.counts, rec.io
    calls = f"{layer}.calls"

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        frame = [perf(), 0.0]
        stack.append(frame)
        if io:
            io_state[0] += 1
        try:
            result = fn(*args, **kwargs)
        finally:
            stack.pop()
            elapsed = perf() - frame[0]
            self_s[layer] += elapsed - frame[1]
            if stack:
                stack[-1][1] += elapsed
            if io:
                io_state[0] -= 1
                if not io_state[0]:
                    io_state[1] += elapsed
        counts[calls] += 1
        if hook is not None:
            hook(counts, args, kwargs, result)
        return result

    return wrapper


def _generator_span(fn, layer: str, rec: Recorder):
    """Wrap a generator function so each resumption is a span of `layer`."""
    perf = time.perf_counter
    stack, self_s, counts = rec.stack, rec.self_s, rec.counts
    steps = f"{layer}.steps"

    def traced(gen):
        value, error = None, None
        while True:
            frame = [perf(), 0.0]
            stack.append(frame)
            try:
                command = gen.send(value) if error is None else gen.throw(error)
            except StopIteration as stop:
                return stop.value
            finally:
                stack.pop()
                elapsed = perf() - frame[0]
                self_s[layer] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
                counts[steps] += 1
            try:
                value, error = (yield command), None
            except GeneratorExit:
                gen.close()
                raise
            except BaseException as exc:  # delivered to the wrapped generator
                value, error = None, exc

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return traced(fn(*args, **kwargs))

    return wrapper


def _modules(names) -> list:
    modules = []
    for name in names:
        module = importlib.import_module(name)
        modules.append(module)
        if hasattr(module, "__path__"):
            for info in pkgutil.walk_packages(module.__path__, name + "."):
                modules.append(importlib.import_module(info.name))
    return modules


def _wrap(fn, layer: str, rec: Recorder, key: str):
    if inspect.isgeneratorfunction(fn):
        return _generator_span(fn, layer, rec)
    return _span(fn, layer, rec, COUNTERS.get(key), io=key in SWEEP_IO)


def _wrap_class(cls, layer: str, rec: Recorder) -> None:
    prefix = f"{cls.__module__}.{cls.__qualname__}"
    private = BOUNDARY_PRIVATE.get(prefix, ())
    for name, attr in list(vars(cls).items()):
        kind = type(attr) if isinstance(attr, (staticmethod, classmethod)) else None
        fn = attr.__func__ if kind else attr
        if not inspect.isfunction(fn) or name.startswith("__"):
            continue
        if name.startswith("_") and name not in private and not inspect.isgeneratorfunction(fn):
            continue
        wrapped = _wrap(fn, layer, rec, f"{prefix}.{name}")
        setattr(cls, name, kind(wrapped) if kind else wrapped)


def install(rec: Recorder) -> None:
    """Wrap every layer boundary; call once per process."""
    # id(original) -> wrapper; each wrapper keeps its original alive, so
    # an id cannot be reused by another object while this runs.
    replaced: dict[int, object] = {}
    for layer, names in LAYERS.items():
        for module in _modules(names):
            for name, attr in list(vars(module).items()):
                if getattr(attr, "__module__", None) != module.__name__:
                    continue  # imported here, wrapped where it is defined
                if inspect.isclass(attr):
                    if not issubclass(attr, BaseException):
                        _wrap_class(attr, layer, rec)
                elif inspect.isfunction(attr) and (
                    not name.startswith("_") or inspect.isgeneratorfunction(attr)
                ):
                    wrapped = _wrap(attr, layer, rec, f"{module.__name__}.{name}")
                    replaced[id(attr)] = wrapped
                    setattr(module, name, wrapped)
    # Rebind the originals wherever the program already holds them.
    for module in list(sys.modules.values()):
        if not getattr(module, "__name__", "").startswith("repro"):
            continue
        for name, attr in list(vars(module).items()):
            if id(attr) in replaced:
                setattr(module, name, replaced[id(attr)])
            elif isinstance(attr, dict):
                for key, value in list(attr.items()):
                    if id(value) in replaced:
                        attr[key] = replaced[id(value)]
    # The sweep parent blocks here while its pool children work; a span
    # keeps that idle time out of the sweep layer's self time.
    multiprocessing.connection.wait = _span(
        multiprocessing.connection.wait, "sweep.pool_wait", rec
    )
    multiprocessing.util.register_after_fork(rec, Recorder.after_fork)

