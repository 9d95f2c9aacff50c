"""Per-layer timing spans, attached to the program from outside.

The program is not edited.  :class:`Instrumentation` replaces, at run
time, every public function and method defined in the modules of a layer
(see :data:`LAYERS`) with a wrapper.  Callables that the program hands
across a layer boundary through a *port* (see :data:`PORTS`: the DES
``schedule`` calls, unit, job and node-fault callbacks) are wrapped too,
and belong to the layer of their ``__module__``.  The discrete-event
loop is covered because ``Simulator.step`` and ``Simulator.run`` are
public methods of ``repro.eventsim``.

Every wrapped call is counted.  A call that enters a layer from another
layer also records a span: a name, a start, an end and the index of its
parent span.  A call within its caller's layer records none, because it
cannot move time between layers; the few entry points in
:data:`ALWAYS_SPAN` record one anyway, for their inclusive time.

Spans are kept in memory, in flat typed arrays, and written out after the
run.  A span's self time is its duration minus the durations of its
direct children.  The self times of a layer's spans add up to the layer's
self time; the root span's self time, plus that of spans no layer claims,
is ``unattributed_s``.  Layer self times and ``unattributed_s`` therefore
add up to the root span's duration, the traced wall time.

A span's clocks are read right around the wrapped call, so its own
bookkeeping is charged to its parent.  That cost grows with the number
of calls, not with the work done, so :func:`layer_report` also gives
each layer's self time net of the wrapper cost measured by
:func:`calibrate_span_cost`.

Recording is single-threaded: simulated runs execute every callback on
the calling thread.
"""

from __future__ import annotations

import enum
import functools
import importlib
import inspect
import pkgutil
import statistics
import sys
import time
from array import array

import numpy as np

#: Layer -> module prefixes, matched longest prefix first, so
#: ``repro.pilot.agent.slots`` is ``slots`` and the rest of
#: ``repro.pilot.agent`` is ``agent``.  ``repro.telemetry`` is the write
#: side of tracing at run time (profiler sinks, metrics, the span
#: ``Tracer``); its read side is timed separately by the ``analysis.*``
#: metrics, after the instrumentation is removed.  ``repro.utils``
#: (clocks, ids, logging) belongs to no layer: its time stays with its
#: callers.
LAYERS: dict[str, tuple[str, ...]] = {
    "eventsim": ("repro.eventsim",),
    "slots": ("repro.pilot.agent.slots",),
    "agent": ("repro.pilot.agent",),
    "units": ("repro.pilot",),
    "pattern": ("repro.core", "repro.kernels"),
    "trace": ("repro.pilot.profiler", "repro.telemetry"),
    "cluster": ("repro.cluster", "repro.saga"),
}

#: Modules inside a layer's packages that no simulated workload runs:
#: the real molecular-dynamics kernels (they import the scipy stack).
SKIP_MODULES = ("repro.kernels.md", "repro.kernels.analysis",
                "repro.kernels.exchange")

#: Ports: (module, qualname) -> parameters whose callable the program
#: later invokes from another layer.
PORTS: dict[tuple[str, str], tuple[str, ...]] = {
    ("repro.eventsim.simulator", "Simulator.schedule"): ("callback",),
    ("repro.eventsim.simulator", "Simulator.schedule_at"): ("callback",),
    ("repro.pilot.unit_manager", "UnitManager.submit_units"): ("callback",),
    ("repro.pilot.agent.agent", "Agent.on_unit_final"): ("callback",),
    ("repro.pilot.agent.agent", "Agent.on_unit_killed"): ("callback",),
    ("repro.cluster.faults", "NodeFaultProcess.__init__"):
        ("on_fail", "on_repair"),
    ("repro.saga.job", "Job.add_callback"): ("callback",),
}

#: Entry points whose arguments or results feed a counter.
COUNTED: dict[tuple[str, str], str] = {
    ("repro.eventsim.simulator", "Simulator.step"): "events",
    ("repro.eventsim.simulator", "Simulator.schedule"): "heap",
    ("repro.pilot.agent.slots", "CoreSlotScheduler.alloc"): "alloc_ok",
    ("repro.pilot.agent.executor", "SimExecutor.launch"): "launched_one",
    ("repro.pilot.agent.executor", "SimExecutor.launch_units"):
        "launched_many",
    ("repro.pilot.unit_store", "UnitStore.advance"): "transition_one",
    ("repro.pilot.unit_store", "UnitStore.advance_many"): "transition_many",
    ("repro.pilot.profiler", "Profiler.event"): "record",
    ("repro.pilot.profiler", "Profiler.record"): "record",
}

#: Entry points that record a span on every call, for their inclusive time.
ALWAYS_SPAN = {("repro.core.kernel_plugin", "Kernel.bind")}

#: Reported call counts -> the wrapped functions they add up.
CALLS: dict[str, tuple[str, ...]] = {
    "cancelled": ("repro.eventsim.simulator:Simulator.cancel",),
    "alloc_calls": ("repro.pilot.agent.slots:CoreSlotScheduler.alloc",),
    "dealloc_calls": ("repro.pilot.agent.slots:CoreSlotScheduler.dealloc",),
    "advance_calls": ("repro.pilot.unit_store:UnitStore.advance",
                      "repro.pilot.unit_store:UnitStore.advance_many"),
    "bind_calls": ("repro.core.kernel_plugin:Kernel.bind",),
    "submit_calls": ("repro.core.drivers.base:PatternDriver.submit",),
    "metric_updates": tuple(
        f"repro.telemetry.metrics:MetricsRegistry.{name}"
        for name in ("count", "gauge", "adjust", "sample")
    ),
}

#: The layer of the stack's bottom: no layer, and not ``None`` either, so
#: that the root span (layer ``None``) counts as an entry.
_OUTSIDE = "<outside>"


def layer_of(module: str) -> str | None:
    """The layer that claims *module*, or ``None``."""
    best, best_len = None, -1
    for layer, prefixes in LAYERS.items():
        for prefix in prefixes:
            if (module == prefix or module.startswith(prefix + ".")) \
                    and len(prefix) > best_len:
                best, best_len = layer, len(prefix)
    return best


class SpanRecorder:
    """Spans in flat columns (index ``i`` is the ``i``-th span opened),
    plus a call count per wrapped function."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.layers: list[str | None] = []
        self.ids: dict[str, int] = {}
        self.calls: list[int] = []
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.layer_stack: list[str | None] = [_OUTSIDE]
        self.counters: dict[str, int] = {}
        self.events: dict[str, int] = {}
        self.heap_peak = 0

    def name_id(self, name: str, layer: str | None) -> int:
        nid = self.ids.get(name)
        if nid is None:
            nid = self.ids[name] = len(self.names)
            self.names.append(name)
            self.layers.append(layer)
            self.calls.append(0)
        return nid

    def clear(self) -> None:
        """Forget every span and count (the name table is kept)."""
        for column in (self.name, self.parent, self.start, self.end):
            del column[:]
        self.stack[:] = [-1]
        self.layer_stack[:] = [_OUTSIDE]
        self.calls[:] = [0] * len(self.calls)
        self.counters.clear()
        self.events.clear()
        self.heap_peak = 0

    def count(self, key: str, n: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + n

    def make_span(self, fn, nid: int, always: bool = False):
        """``fn`` wrapped: counted, and spanned when it enters its layer."""
        layer = self.layers[nid]
        calls, layer_stack, stack = self.calls, self.layer_stack, self.stack
        start, end = self.start, self.end
        start_add, name_add = start.append, self.name.append
        parent_add, end_add = self.parent.append, end.append
        push, pop = stack.append, stack.pop
        layer_push, layer_pop = layer_stack.append, layer_stack.pop
        clock = time.perf_counter

        def span(*args, **kwargs):
            calls[nid] += 1
            if layer_stack[-1] == layer and not always:
                return fn(*args, **kwargs)
            i = len(start)
            name_add(nid)
            parent_add(stack[-1])
            start_add(0.0)
            end_add(0.0)
            push(i)
            layer_push(layer)
            # The clocks are read right around the call, so the span's own
            # bookkeeping lands in its parent; see calibrate_span_cost.
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                pop()
                layer_pop()
                start[i] = t0
                end[i] = t1

        return span

    # -- results -------------------------------------------------------------

    def columns(self) -> dict[str, np.ndarray]:
        return {
            "name": np.array(self.name, dtype=np.int32),
            "parent": np.array(self.parent, dtype=np.int32),
            "start": np.array(self.start, dtype=np.float64),
            "end": np.array(self.end, dtype=np.float64),
        }

    def write(self, path) -> None:
        """Every span, the name table and the call counts, as ``.npz``."""
        np.savez(path, names=np.array(self.names, dtype=str),
                 layers=np.array([lay or "" for lay in self.layers],
                                 dtype=str),
                 calls=np.array(self.calls, dtype=np.int64),
                 **self.columns())


def _target(callback):
    """The program's function behind a callable: unbinds methods and
    partials, and looks through this module's own wrappers."""
    while True:
        if isinstance(callback, functools.partial):
            callback = callback.func
        elif hasattr(callback, "__func__"):
            callback = callback.__func__
        elif hasattr(callback, "__wrapped__"):
            callback = callback.__wrapped__
        else:
            return callback


class Instrumentation:
    """Install and remove the layer wrappers on the imported program."""

    def __init__(self, recorder: SpanRecorder) -> None:
        self.rec = recorder
        self._restore: list[tuple[object, str, object]] = []
        self._callback_ids: dict[tuple[str, object], int] = {}
        self.wrapped = 0
        self.missing: list[str] = []
        #: Port qualname -> callbacks wrapped since install.
        self.ports_wrapped: dict[str, int] = {
            qualname: 0 for _, qualname in PORTS}

    def wrap_callback(self, port: str, callback):
        """*callback* spanned under the layer of its own module."""
        if callback is None or getattr(callback, "_perfbench_port", False):
            return callback
        self.ports_wrapped[port] += 1
        target = _target(callback)
        key = (port, getattr(target, "__code__", target))
        nid = self._callback_ids.get(key)
        if nid is None:
            module = getattr(target, "__module__", None) or ""
            qualname = getattr(target, "__qualname__", type(target).__name__)
            nid = self._callback_ids[key] = self.rec.name_id(
                f"{port}>{module}:{qualname}", layer_of(module))
        wrapped = self.rec.make_span(callback, nid)
        wrapped._perfbench_port = True
        return wrapped

    def _wrapper(self, fn, module: str, qualname: str, layer: str):
        rec = self.rec
        key = (module, qualname)
        nid = rec.name_id(f"{module}:{qualname}", layer)
        ports, counted = PORTS.get(key), COUNTED.get(key)
        if ports is None and counted is None:
            return functools.wraps(fn)(
                rec.make_span(fn, nid, always=key in ALWAYS_SPAN))

        params = list(inspect.signature(fn).parameters)
        port_slots = [(params.index(name), name) for name in ports or ()]
        wrap_callback = self.wrap_callback

        def observed(*args, **kwargs):
            result = fn(*args, **kwargs)
            if counted is not None:
                _count(rec, counted, args, result)
            return result

        span = rec.make_span(observed, nid)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if port_slots:
                args = list(args)
                for index, name in port_slots:
                    if index < len(args):
                        args[index] = wrap_callback(qualname, args[index])
                    elif name in kwargs:
                        kwargs[name] = wrap_callback(qualname, kwargs[name])
            return span(*args, **kwargs)

        return wrapper

    def install(self) -> "Instrumentation":
        """Import every layer module, so that modules the run would import
        lazily are covered too, and wrap each public entry point."""
        for prefixes in LAYERS.values():
            for prefix in prefixes:
                package = importlib.import_module(prefix)
                for info in pkgutil.walk_packages(
                        getattr(package, "__path__", []), prefix + "."):
                    if not info.name.startswith(SKIP_MODULES):
                        importlib.import_module(info.name)
        originals: dict[int, object] = {}
        for module_name, module in sorted(sys.modules.items()):
            layer = layer_of(module_name)
            if layer is None or module_name.startswith(SKIP_MODULES):
                continue
            for attr, value in list(vars(module).items()):
                if getattr(value, "__module__", None) != module_name:
                    continue
                if inspect.isclass(value):
                    self._wrap_class(value, module_name, layer)
                elif inspect.isfunction(value) and _public(attr) \
                        and not inspect.isgeneratorfunction(value):
                    originals[id(value)] = self._wrapper(
                        value, module_name, value.__qualname__, layer)
                    self.wrapped += 1
        # A function imported by name into another module is rebound
        # there too, so every caller goes through the wrapper.
        for module_name, module in list(sys.modules.items()):
            if not module_name.startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = originals.get(id(value))
                if wrapper is not None and inspect.isfunction(value):
                    self._restore.append((module, attr, value))
                    setattr(module, attr, wrapper)
        expected = {f"{module}:{qualname}" for module, qualname
                    in {*PORTS, *COUNTED, *ALWAYS_SPAN}}
        expected.update(name for names in CALLS.values() for name in names)
        self.missing = sorted(expected - self.rec.ids.keys())
        return self

    def _wrap_class(self, cls, module_name: str, layer: str) -> None:
        if issubclass(cls, (BaseException, enum.Enum)):
            return
        for attr, value in list(cls.__dict__.items()):
            if not (_public(attr) or attr in ("__init__", "__call__")):
                continue
            kind = None
            if isinstance(value, (staticmethod, classmethod)):
                kind, fn = type(value), value.__func__
            elif inspect.isfunction(value):
                fn = value
            else:
                continue
            if inspect.isgeneratorfunction(fn):
                continue
            wrapper = self._wrapper(fn, module_name,
                                    f"{cls.__qualname__}.{attr}", layer)
            self._restore.append((cls, attr, value))
            setattr(cls, attr, kind(wrapper) if kind else wrapper)
            self.wrapped += 1

    def uninstall(self) -> None:
        """Put every original function back."""
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()


def _public(name: str) -> bool:
    return not name.startswith("_")


def _count(rec: SpanRecorder, kind: str, args, result) -> None:
    if kind == "events":
        if result is not None:
            rec.count("events")
    elif kind == "heap":
        rec.heap_peak = max(rec.heap_peak, args[0].pending)
    elif kind == "alloc_ok":
        if result is not None:
            rec.count("alloc_ok")
    elif kind == "launched_one":
        rec.count("units_launched")
    elif kind == "launched_many":
        rec.count("units_launched", len(args[1]))
    elif kind == "transition_one":
        rec.count("transitions")
    elif kind == "transition_many":
        rec.count("transitions", len(args[1]))
    elif kind == "record":
        name = args[1] if len(args) > 1 else ""
        rec.events[name] = rec.events.get(name, 0) + 1


def calibrate_span_cost(n: int = 20_000, repeats: int = 5) -> dict:
    """Host seconds the wrappers add to one call of an empty function.

    ``inside_s`` is what a span adds within its own clock reads (charged
    to its own layer), ``outside_s`` what it adds around them (charged to
    its parent's layer) and ``pass_s`` what a counted call within its
    caller's layer adds (charged to that layer).  Each is the median over
    *repeats* loops of *n* calls, against the same loop of plain calls.
    """
    def body():
        return None

    rec = SpanRecorder()
    spanned = rec.make_span(body, rec.name_id("spanned", "callee"))
    passed = rec.make_span(body, rec.name_id("passed", "caller"))
    clock = time.perf_counter

    def loop(fn) -> float:
        t0 = clock()
        for _ in range(n):
            fn()
        return clock() - t0

    inside, outside, passing = [], [], []
    for _ in range(repeats):
        rec.clear()
        rec.layer_stack.append("caller")
        plain = loop(body)
        spanned_s = loop(spanned)
        passing.append((loop(passed) - plain) / n)
        cols = rec.columns()
        within = float((cols["end"] - cols["start"]).sum())
        inside.append(max(0.0, within - plain) / n)
        outside.append((spanned_s - plain) / n - inside[-1])
    return {"inside_s": statistics.median(inside),
            "outside_s": statistics.median(outside),
            "pass_s": statistics.median(passing)}


def layer_report(rec: SpanRecorder, cost: dict) -> dict:
    """Per-layer self times, counts and ratios; span 0 is the root.

    ``<layer>.self_s`` is raw: with ``unattributed_s`` it adds up to the
    traced wall time.  ``<layer>.net_s`` is the same time less the
    wrapper cost *cost* (see :func:`calibrate_span_cost`) of the spans
    and counted calls charged to the layer; the cost taken off all
    layers and the root is ``tracer_cost_s``.  The port and counter
    wrappers' extra work is not taken off.
    """
    cols = rec.columns()
    duration = cols["end"] - cols["start"]
    children = np.bincount(cols["parent"] + 1, weights=duration,
                           minlength=len(duration) + 1)[1:]
    self_time = duration - children
    n_names = len(rec.names)
    per_name = np.bincount(cols["name"], weights=self_time,
                           minlength=n_names)
    spans = np.bincount(cols["name"], minlength=n_names)
    parents = cols["parent"][cols["parent"] >= 0]
    child_spans = np.bincount(cols["name"][parents], minlength=n_names)
    passes = np.array(rec.calls, dtype=np.int64) - spans
    tracer_cost = (cost["inside_s"] * spans + cost["outside_s"] * child_spans
                   + cost["pass_s"] * passes)
    report: dict = {f"{layer}.self_s": 0.0 for layer in LAYERS}
    report.update({f"{layer}.net_s": 0.0 for layer in LAYERS})
    unattributed = 0.0
    for nid, seconds in enumerate(per_name):
        layer = rec.layers[nid]
        if layer is None:
            unattributed += float(seconds)
        else:
            report[f"{layer}.self_s"] += float(seconds)
            report[f"{layer}.net_s"] += float(seconds - tracer_cost[nid])

    def calls_of(key: str) -> int:
        return sum(rec.calls[rec.ids[name]] for name in CALLS[key]
                   if name in rec.ids)

    def port_calls(port: str, layer: str) -> int:
        return sum(
            rec.calls[nid] for nid, name in enumerate(rec.names)
            if name.startswith(port + ">") and rec.layers[nid] == layer
        )

    bind = rec.ids.get("repro.core.kernel_plugin:Kernel.bind", -1)
    bind_s = float(duration[cols["name"] == bind].sum())

    counters = rec.counters
    alloc_calls = calls_of("alloc_calls")
    advance_calls = calls_of("advance_calls")
    transitions = counters.get("transitions", 0)
    report.update({
        "unattributed_s": unattributed,
        "tracer_cost_s": float(tracer_cost.sum()),
        "traced_wall_s": float(duration[0]),
        "eventsim.events": counters.get("events", 0),
        "eventsim.cancelled": calls_of("cancelled"),
        "eventsim.heap_peak": rec.heap_peak,
        "slots.alloc_calls": alloc_calls,
        "slots.alloc_ok": counters.get("alloc_ok", 0),
        "slots.alloc_hit_ratio":
            counters.get("alloc_ok", 0) / alloc_calls if alloc_calls else 0.0,
        "slots.dealloc_calls": calls_of("dealloc_calls"),
        "agent.callbacks": port_calls("Simulator.schedule", "agent")
        + port_calls("Simulator.schedule_at", "agent"),
        "agent.units_launched": counters.get("units_launched", 0),
        "units.transitions": transitions,
        "units.advance_calls": advance_calls,
        "units.units_per_advance":
            transitions / advance_calls if advance_calls else 0.0,
        "units.requeued": rec.events.get("unit_requeue", 0),
        "pattern.bind_calls": calls_of("bind_calls"),
        "pattern.bind_s": bind_s,
        "pattern.unit_callbacks":
            port_calls("UnitManager.submit_units", "pattern"),
        "pattern.submit_calls": calls_of("submit_calls"),
        "trace.records": sum(rec.events.values()),
        "trace.metric_updates": calls_of("metric_updates"),
        "cluster.node_failures": rec.events.get("node_fail", 0),
        "spans": len(duration),
    })
    report["port_calls"] = {
        qualname: sum(rec.calls[nid] for nid, name in enumerate(rec.names)
                      if name.startswith(qualname + ">"))
        for _, qualname in PORTS
    }
    top = np.argsort(per_name)[::-1][:10]
    report["top_self_s"] = [
        [rec.names[nid], float(per_name[nid]), rec.calls[nid]]
        for nid in top if per_name[nid] > 0
    ]
    return report
