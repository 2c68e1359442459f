"""In-memory spans around calls into the program's layers.

The tracer never touches ``src/``: :func:`instrument` wraps the public
functions each layer exposes (module functions, registered algorithm
adapters, class methods) from the outside, records one span per call,
and :meth:`Instrumentation.restore` puts every original back.  A span
is ``[name, start, end, parent]`` plus ``busy`` seconds and a ``calls``
count; spans live in a list until the run ends and are written out once
(:meth:`Tracer.dump`).

``protocol.step`` is the one exception to one-span-per-call: the engine
calls ``on_round`` once per node per round (10^5..10^6 calls per run),
so those calls are folded into one aggregate span per parent, carrying
the summed busy time and the call count.

A span's self time is its busy time minus the busy time of its direct
children (:meth:`Tracer.summary`); each thread keeps its own stack of
open spans, so children never overlap their siblings.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time
from pathlib import Path

NAME, START, END, PARENT, BUSY, CALLS = range(6)

clock = time.perf_counter


class Tracer:
    """Span records plus a per-thread stack of open spans."""

    def __init__(self) -> None:
        self.records: list[list] = []
        self._local = threading.local()
        self._leaves: dict[tuple, int] = {}
        self._lock = threading.Lock()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def clear(self) -> None:
        """Drop every record; spans still open when called are dropped too."""
        with self._lock:
            self.records = []
            self._leaves = {}
        self._local = threading.local()

    def begin(self, name: str) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else -1
        with self._lock:
            self.records.append([name, clock(), 0.0, parent, 0.0, 1])
            index = len(self.records) - 1
        stack.append(index)
        return index

    def end(self, index: int, name: str | None = None) -> None:
        stack = self._stack()
        if not stack or stack[-1] != index:
            return  # opened before a clear()
        stack.pop()
        record = self.records[index]
        record[END] = clock()
        record[BUSY] = record[END] - record[START]
        if name is not None:
            record[NAME] = name

    def leaf(self, name: str, start: float, end: float) -> None:
        """Fold one hot call into its parent's aggregate ``name`` span."""
        stack = self._stack()
        parent = stack[-1] if stack else -1
        key = (parent, name)
        index = self._leaves.get(key)
        if index is None:
            with self._lock:
                self.records.append([name, start, end, parent, end - start, 1])
                index = self._leaves[key] = len(self.records) - 1
            return
        record = self.records[index]
        record[END] = end
        record[BUSY] += end - start
        record[CALLS] += 1

    def summary(self) -> dict[str, dict]:
        """Per span name: summed ``busy`` and ``self`` seconds, ``calls``."""
        child_busy = [0.0] * len(self.records)
        for record in self.records:
            if record[PARENT] >= 0:
                child_busy[record[PARENT]] += record[BUSY]
        table: dict[str, dict] = {}
        for index, record in enumerate(self.records):
            row = table.setdefault(record[NAME], {"busy": 0.0, "self": 0.0, "calls": 0})
            row["busy"] += record[BUSY]
            row["self"] += record[BUSY] - child_busy[index]
            row["calls"] += record[CALLS]
        return table

    def dump(self, path: Path) -> None:
        """Write every span once, as ``{"fields": [...], "spans": [...]}``."""
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {"fields": ["name", "start", "end", "parent", "busy", "calls"],
                   "spans": self.records}
        path.write_text(json.dumps(payload))


def _timed(tracer: Tracer, name: str, fn, rename=None):
    """``fn`` wrapped in a span; ``rename(result)`` may refine the name."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = tracer.begin(name)
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            refined = rename(result) if rename is not None and result is not None else None
            tracer.end(index, refined)

    return wrapper


def _assign(owner, attr: str, value) -> None:
    # object.__setattr__ also reaches frozen dataclass fields (the
    # registry's AlgorithmSpec), but refuses type objects.
    if isinstance(owner, type):
        setattr(owner, attr, value)
    else:
        object.__setattr__(owner, attr, value)


class Instrumentation:
    """The attribute swaps :func:`instrument` made, undoable."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._undo: list[tuple] = []

    def swap(self, owner, attr: str, value) -> None:
        namespace = vars(owner)
        self._undo.append((owner, attr, attr in namespace, namespace.get(attr)))
        _assign(owner, attr, value)

    def function(self, fn, name: str, modules: list | None = None, rename=None) -> None:
        """Rebind ``fn`` wherever a ``repro`` module (or ``modules``) holds it."""
        wrapper = _timed(self.tracer, name, fn, rename)
        if modules is None:
            modules = [
                module
                for key, module in list(sys.modules.items())
                if key == "repro" or key.startswith("repro.")
            ]
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self.swap(module, attr, wrapper)

    def method(self, cls: type, attr: str, name: str) -> None:
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            self.swap(cls, attr, classmethod(_timed(self.tracer, name, raw.__func__)))
        else:
            self.swap(cls, attr, _timed(self.tracer, name, raw))

    def restore(self) -> None:
        for owner, attr, had, old in reversed(self._undo):
            if had:
                _assign(owner, attr, old)
            else:
                delattr(owner, attr)
        self._undo = []


def _leaf_hook(tracer: Tracer, hook):
    @functools.wraps(hook)
    def timed_hook(self, ctx):
        start = clock()
        try:
            return hook(self, ctx)
        finally:
            tracer.leaf("protocol.step", start, clock())

    return timed_hook


def _engine_run(tracer: Tracer, run):
    """``SimulationEngine.run`` as an ``engine.run`` span, with the
    protocol class's hooks folded into ``protocol.step`` for the call."""

    @functools.wraps(run)
    def wrapper(self, algorithm_factory):
        index = tracer.begin("engine.run")
        hooks = Instrumentation(tracer)
        try:
            if isinstance(algorithm_factory, type):
                for hook in ("on_init", "on_round"):
                    original = getattr(algorithm_factory, hook)
                    hooks.swap(algorithm_factory, hook, _leaf_hook(tracer, original))
            return run(self, algorithm_factory)
        finally:
            hooks.restore()
            tracer.end(index)

    return wrapper


def instrument(tracer: Tracer) -> Instrumentation:
    """Wrap each layer's public entry points; returns the undo handle.

    ======================  ==============================================
    span                    wrapped call
    ======================  ==============================================
    kernel.build.<backend>  ``GraphKernel(graph)``,
                            ``PackedGraphKernel.from_graph``,
                            ``kernel_from_wire``
    algorithm.<name>        every registered ``AlgorithmSpec.run`` adapter
    validate                ``is_dominating_set``/``is_vertex_cover`` as
                            the batch runner calls them
    opt                     ``optimum_size`` as the batch runner calls it
    serialize               ``run_report_to_dict``/``sim_report_to_dict``
    network.init            ``Network.__init__``
    engine.run              ``SimulationEngine.run``
    protocol.step           the protocol's ``on_init``/``on_round`` (folded)
    churn.materialize       ``materialize_churn``
    ======================  ==============================================
    """
    from repro import io
    from repro.api import list_algorithms, runner
    from repro.graphs import kernel, packed
    from repro.local_model import adversary, engine, network

    handle = Instrumentation(tracer)
    handle.method(kernel.GraphKernel, "__init__", "kernel.build.int")
    handle.method(packed.PackedGraphKernel, "from_graph", "kernel.build.packed")
    handle.function(
        kernel.kernel_from_wire,
        "kernel.build",
        rename=lambda built: f"kernel.build.{built.backend}",
    )
    for spec in list_algorithms():
        handle.swap(spec, "run", _timed(tracer, f"algorithm.{spec.name}", spec.run))
    handle.function(runner.is_dominating_set, "validate", [runner])
    handle.function(runner.is_vertex_cover, "validate", [runner])
    handle.function(runner.optimum_size, "opt", [runner])
    handle.function(io.run_report_to_dict, "serialize")
    handle.function(io.sim_report_to_dict, "serialize")
    handle.method(network.Network, "__init__", "network.init")
    handle.swap(
        engine.SimulationEngine,
        "run",
        _engine_run(tracer, engine.SimulationEngine.__dict__["run"]),
    )
    handle.function(adversary.materialize_churn, "churn.materialize")
    return handle
