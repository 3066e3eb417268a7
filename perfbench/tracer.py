"""Per-layer span tracing applied from outside the program.

The program under test has no tracing of its own, so this module wraps
the functions and methods of each layer module in place (class
attributes and module attributes, plus every ``from x import f``
reference to them across ``repro``) and removes the wrappers again on
``uninstall()``.

A span is opened when a call enters a layer from a different layer (a
layer boundary), and always for the few *focus* functions whose
inclusive time is itself a metric.  Calls that stay inside one layer
run straight through the wrapper.  Each span records its name, start,
end and the span that caused it; self time per layer is span duration
minus the time its child spans cover.  Spans are kept in memory and
written out when the benchmark ends, but only the first ``SPAN_LIMIT``
per process: a traced fleet batch crosses a layer boundary about a
million times, and keeping every span would take hundreds of MB.  Every
span still counts in the per-layer totals, and ``spans_dropped`` says
how many were not kept.

Probes count work at the same boundaries (bytes fed to the modem,
messages parsed, ...).  They run with tracing suspended, and their own
cost is kept out of every layer's self time.

Pool workers are forked from the traced parent and inherit the
wrappers; each worker resets its totals after the fork and writes them
to ``dump_dir`` when it exits (a ``multiprocessing`` finalizer, which
runs when the pool is closed and joined).
"""

from __future__ import annotations

import enum
import functools
import importlib
import inspect
import json
import multiprocessing.util
import os
import sys
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: (layer, modules).  Every wrapped module belongs to exactly one layer.
#: Modules not listed here are not wrapped: their time is charged to
#: whichever span calls them.
LAYERS: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    ("simnet.engine", ("repro.simnet.engine",)),
    ("simnet.tcp", ("repro.simnet.tcp", "repro.simnet.packet")),
    ("simnet.link", ("repro.simnet.link", "repro.simnet.network")),
    ("simnet.trace", ("repro.simnet.trace",)),
    ("simnet.modem", ("repro.simnet.modem",)),
    ("simnet.fastforward", ("repro.simnet.fastforward",)),
    ("http.parser", ("repro.http.parser", "repro.http.chunked")),
    ("http.headers", ("repro.http.headers",)),
    ("http.messages", ("repro.http.messages",)),
    ("http.cache", ("repro.http.cache",)),
    ("client.robot", ("repro.client.robot", "repro.client.pipeline",
                      "repro.client.discovery")),
    ("content.htmlparse", ("repro.content.htmlparse",)),
    ("content.site", ("repro.content.microscape", "repro.content.gif",
                      "repro.content.png", "repro.content.images",
                      "repro.content.html", "repro.content.css")),
    ("content.artifacts", ("repro.content.artifacts",)),
    ("server.base", ("repro.server.base", "repro.server.profiles")),
    ("server.static", ("repro.server.static",)),
    ("matrix", ("repro.matrix.runner", "repro.matrix.cache",
                "repro.matrix.journal", "repro.matrix.supervisor")),
    ("fleet", ("repro.fleet.spec", "repro.fleet.engine",
               "repro.fleet.runner")),
    # Harness code between the layers (run_experiment's set-up and
    # verification, transports) and the benchmark's own root spans.
    ("unattributed", ("repro.core.runner", "repro.core.transport")),
)

#: Functions that always open a span, so their inclusive time can be
#: reported even when they are called from inside their own layer.
FOCUS: Tuple[str, ...] = (
    "repro.simnet.engine.Simulator.run",
    "repro.matrix.cache.ResultCache.put_many",
    "repro.matrix.journal.RunJournal.record_result",
    "repro.matrix.journal.RunJournal.record_failure",
    "repro.fleet.spec.FleetSpec.compile_population",
    "repro.fleet.runner._rebalance",
)

#: Dunder methods worth wrapping; the rest (comparisons, hashing,
#: repr) are too small to attribute and would only add overhead.
_DUNDERS = ("__init__", "__call__")

#: Spans kept per process for the span file; later ones count in the
#: totals only.
SPAN_LIMIT = 5000


class Probe:
    """Counts work at one function's boundary.

    ``before(args)`` returns a token handed to ``after(token, args,
    result)``; both run with tracing suspended.
    """

    __slots__ = ("before", "after")

    def __init__(self, after: Callable, before: Optional[Callable] = None
                 ) -> None:
        self.before = before
        self.after = after


class Tracer:
    """Span recorder for one process tree (parent plus forked workers)."""

    def __init__(self, dump_dir: str) -> None:
        self.layer_names: List[str] = [name for name, _ in LAYERS]
        self.root_layer = self.layer_names.index("unattributed")
        self.names: List[str] = []
        self.probes: Dict[str, Probe] = {}
        self.dump_dir = dump_dir
        self._patches: List[Tuple[object, str, object]] = []
        self._reset()

    # ------------------------------------------------------------------
    # State
    # ------------------------------------------------------------------
    def _reset(self) -> None:
        self.on = False
        self.clear()

    def clear(self) -> None:
        """Drop every total and span recorded so far."""
        self.top = -1
        self.stack: List[List[float]] = []
        self.next_id = 1
        self.layer_self = [0.0] * len(self.layer_names)
        self.layer_entries = [0] * len(self.layer_names)
        self.focus_s: Dict[str, float] = {}
        self.focus_calls: Dict[str, int] = {}
        self.counters: Dict[str, float] = {}
        self.distinct: Dict[str, set] = {}
        self.probe_s = 0.0
        self.spans: List[Tuple[int, int, int, float, float]] = []
        self.spans_dropped = 0

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def note_distinct(self, name: str, key) -> None:
        self.distinct.setdefault(name, set()).add(key)

    # ------------------------------------------------------------------
    # Spans
    # ------------------------------------------------------------------
    def span(self, layer: int, name: int, fn: Callable, args, kwargs,
             focus: bool = False):
        """Run ``fn`` inside a span charged to ``layer``."""
        stack = self.stack
        parent = int(stack[-1][1]) if stack else 0
        span_id = self.next_id
        self.next_id = span_id + 1
        frame = [0.0, span_id]
        previous = self.top
        self.top = layer
        stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            duration = end - start
            stack.pop()
            self.top = previous
            self.layer_self[layer] += duration - frame[0]
            self.layer_entries[layer] += 1
            if stack:
                stack[-1][0] += duration
            if focus:
                label = self.names[name]
                self.focus_s[label] = self.focus_s.get(label, 0.0) + duration
                self.focus_calls[label] = self.focus_calls.get(label, 0) + 1
            if len(self.spans) < SPAN_LIMIT:
                self.spans.append((span_id, parent, name, start, end))
            else:
                self.spans_dropped += 1

    def root(self, label: str, fn: Callable, *args, **kwargs):
        """A benchmark-side span around a call into the program."""
        if label not in self.names:
            self.names.append(label)
        return self.span(self.root_layer, self.names.index(label), fn,
                         args, kwargs, focus=True)

    def _probed(self, probe: Probe, call: Callable, args):
        """Run ``call()`` with the probe's hooks around it."""
        self.on = False
        mark = time.perf_counter()
        token = probe.before(args) if probe.before is not None else None
        paused = time.perf_counter() - mark
        self.on = True
        result = call()
        self.on = False
        mark = time.perf_counter()
        try:
            probe.after(token, args, result)
        finally:
            paused += time.perf_counter() - mark
            self.probe_s += paused
            if self.stack:
                # Keep probe cost out of the enclosing layer's self time.
                self.stack[-1][0] += paused
            self.on = True
        return result

    # ------------------------------------------------------------------
    # Wrapping
    # ------------------------------------------------------------------
    def _wrap(self, fn: Callable, layer: int, label: str) -> Callable:
        self.names.append(label)
        name = len(self.names) - 1
        focus = label in FOCUS
        probe = self.probes.get(label)
        tracer = self
        span = self.span

        if probe is None:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                if not tracer.on or (tracer.top == layer and not focus):
                    return fn(*args, **kwargs)
                return span(layer, name, fn, args, kwargs, focus)
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                if not tracer.on:
                    return fn(*args, **kwargs)
                if tracer.top == layer and not focus:
                    return tracer._probed(
                        probe, lambda: fn(*args, **kwargs), args)
                return tracer._probed(
                    probe,
                    lambda: span(layer, name, fn, args, kwargs, focus),
                    args)
        return wrapper

    def _patch(self, owner: object, attr: str, value: object) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self, probes: Dict[str, Probe]) -> None:
        """Wrap every layer module, with ``probes`` by name; trace on."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        self.probes = probes
        replaced: Dict[int, Tuple[object, object]] = {}
        for layer, (_, modules) in enumerate(LAYERS):
            for module_name in modules:
                module = importlib.import_module(module_name)
                for attr, value in list(vars(module).items()):
                    if getattr(value, "__module__", None) != module_name:
                        continue
                    if _wrappable(value):
                        wrapper = self._wrap(
                            value, layer, f"{module_name}.{attr}")
                        replaced[id(value)] = (value, wrapper)
                        self._patch(module, attr, wrapper)
                    elif inspect.isclass(value) and _class_wrappable(value):
                        self._wrap_class(value, layer, module_name)
        # ``from .x import f`` copies: point them at the wrapper too, so
        # the call is traced and the function still pickles by name.
        for module_name, module in list(sys.modules.items()):
            if not module_name.startswith("repro") or module is None:
                continue
            for attr, value in list(vars(module).items()):
                hit = replaced.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch(module, attr, hit[1])
        missing = (set(FOCUS) | set(self.probes)) - set(self.names)
        if missing:
            # A renamed target would silently read 0: refuse instead.
            self.uninstall()
            raise LookupError(f"trace targets not found: "
                              f"{', '.join(sorted(missing))}")
        self.on = True

    def _wrap_class(self, cls: type, layer: int, module_name: str) -> None:
        for attr, value in list(vars(cls).items()):
            if attr.startswith("__") and attr not in _DUNDERS:
                continue
            label = f"{module_name}.{cls.__qualname__}.{attr}"
            if isinstance(value, (staticmethod, classmethod)):
                if _wrappable(value.__func__):
                    self._patch(cls, attr, type(value)(
                        self._wrap(value.__func__, layer, label)))
            elif _wrappable(value):
                self._patch(cls, attr, self._wrap(value, layer, label))

    def uninstall(self) -> None:
        """Restore every patched attribute; tracing stops."""
        self.on = False
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # ------------------------------------------------------------------
    # Worker processes
    # ------------------------------------------------------------------
    def follow_forks(self) -> None:
        """Reset totals in each forked worker and dump them at its exit."""
        multiprocessing.util.register_after_fork(self, Tracer._after_fork)

    def _after_fork(self) -> None:
        self.clear()
        if self.on:
            multiprocessing.util.Finalize(self, self._dump_worker,
                                          exitpriority=10)

    def _dump_worker(self) -> None:
        path = os.path.join(self.dump_dir, f"worker-{os.getpid()}.json")
        with open(path + ".tmp", "w") as handle:
            json.dump(self.snapshot(), handle)
        os.replace(path + ".tmp", path)

    def snapshot(self) -> Dict[str, object]:
        """This process's totals, JSON-ready."""
        return {
            "pid": os.getpid(),
            "layer_self": dict(zip(self.layer_names, self.layer_self)),
            "layer_entries": dict(zip(self.layer_names,
                                      self.layer_entries)),
            "focus_s": dict(self.focus_s),
            "focus_calls": dict(self.focus_calls),
            "counters": dict(self.counters),
            "distinct": {name: len(keys)
                         for name, keys in self.distinct.items()},
            "probe_s": self.probe_s,
            "spans": [[span_id, parent, self.names[name], start, end]
                      for span_id, parent, name, start, end in self.spans],
            "spans_dropped": self.spans_dropped,
        }


def _wrappable(value: object) -> bool:
    """Plain functions only; generators would close their span early."""
    return (inspect.isfunction(value)
            and not inspect.isgeneratorfunction(value))


def _class_wrappable(cls: type) -> bool:
    return not issubclass(cls, (BaseException, enum.Enum, tuple))


def merge(snapshots: Sequence[Dict[str, object]]) -> Dict[str, object]:
    """Sum per-process snapshots (distinct counts are per process)."""
    total: Dict[str, object] = {
        "layer_self": {}, "layer_entries": {}, "focus_s": {},
        "focus_calls": {}, "counters": {}, "distinct": {}, "probe_s": 0.0,
        "spans_dropped": 0, "processes": len(snapshots)}
    for snap in snapshots:
        for key in ("layer_self", "layer_entries", "focus_s",
                    "focus_calls", "counters", "distinct"):
            bucket = total[key]
            for name, value in snap[key].items():
                bucket[name] = bucket.get(name, 0) + value
        total["probe_s"] += snap["probe_s"]
        total["spans_dropped"] += snap["spans_dropped"]
    return total
