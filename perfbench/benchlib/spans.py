"""The traced run's span recorder: per-layer self time from the outside.

:func:`install` wraps the functions and methods defined in each
``repro.*`` layer's modules (see :data:`LAYERS`).  A wrapper opens a
span only when the call crosses into another layer; a call that stays
inside the caller's layer runs straight through.  A layer's self time is
the duration of its spans minus the part covered by their child spans.

Spans are kept in memory (bounded) and written out when the run ends.
Each thread keeps its own span stack and accumulators, so the gateway's
asyncio thread and bridge thread never share a counter.  Nothing in the
program is edited: everything is patched onto the classes and modules
at run time, before the workload builds its objects, so callbacks bound
later go through the wrappers too.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import pkgutil
import sys
import threading
import time
from typing import Callable, Dict, Iterable, List, Optional, Tuple

#: Module prefix -> layer name; the first matching prefix wins.
LAYERS: Tuple[Tuple[str, str], ...] = (
    ("repro.gateway.bridge", "bridge"),
    ("repro.gateway.thing_description", "bridge"),
    ("repro.gateway.obs", "obs"),
    ("repro.gateway.wire", "wire"),
    ("repro.gateway.server", "server"),
    ("repro.sim", "sim"),
    ("repro.net", "net"),
    ("repro.protocol", "protocol"),
    ("repro.hw", "hw"),
    ("repro.peripherals", "hw"),
    ("repro.interconnect", "hw"),
    ("repro.mcu", "hw"),
    ("repro.core", "core"),
    ("repro.vm", "vm"),
    ("repro.drivers", "vm"),
    ("repro.dsl", "vm"),
    ("repro.telemetry", "telemetry"),
    ("repro.obs", "obs"),
    ("repro.fleet", "fleet"),
)

#: Layer names in report order.
LAYER_NAMES: Tuple[str, ...] = tuple(dict.fromkeys(
    layer for _, layer in LAYERS))

#: Packages whose modules are imported and wrapped.
_PACKAGES = ("repro.sim", "repro.net", "repro.protocol", "repro.hw",
             "repro.peripherals", "repro.interconnect", "repro.mcu",
             "repro.core", "repro.vm", "repro.drivers", "repro.dsl",
             "repro.telemetry", "repro.obs", "repro.fleet",
             "repro.gateway")

#: Never imported: the ctypes bindings (command-line ``__main__``
#: modules are skipped too).
_SKIP_PACKAGES = ("repro.vm.native",)

#: Never wrapped: loops that wait for work, whose span would count
#: idle time as busy time.
_UNWRAPPED = frozenset({"repro.gateway.bridge.GatewayBridge._serve_loop"})

#: Entry points whose calls are counted on every call, even inside
#: their own layer: ``(module, qualified name)``.
WATCHED: Tuple[Tuple[str, str], ...] = (
    ("repro.sim.kernel", "Simulator.run_until"),
    ("repro.telemetry.collector", "ShardTelemetry.sample"),
)

#: Finished spans kept per thread; later ones are only counted.
KEEP_SPANS = 50_000


#: The recorder :func:`install` patched in (one per process).
_installed: Optional["SpanRecorder"] = None


def layer_of(module: str) -> Optional[str]:
    for prefix, layer in LAYERS:
        if module == prefix or module.startswith(prefix + "."):
            return layer
    return None


def self_times(spans: Iterable[Tuple[int, int, str, int, int]]
               ) -> Dict[str, int]:
    """Self time per layer from finished spans.

    Each span is ``(span_id, parent_id, layer, start_ns, end_ns)`` with
    ``parent_id`` 0 for a root.  A span's self time is its duration
    minus the durations of its direct children.  This is the reference
    for the running arithmetic the wrappers do, and what a written span
    file can be checked against.
    """
    spans = list(spans)
    child_ns: Dict[int, int] = {}
    for span_id, parent, _layer, start, end in spans:
        if parent:
            child_ns[parent] = child_ns.get(parent, 0) + (end - start)
    out: Dict[str, int] = {}
    for span_id, _parent, layer, start, end in spans:
        out[layer] = (out.get(layer, 0) + (end - start)
                      - child_ns.get(span_id, 0))
    return out


class ThreadSpans:
    """One thread's span stack, accumulators and kept spans."""

    __slots__ = ("stack", "self_ns", "calls", "spans", "next_id",
                 "dropped", "op")

    def __init__(self) -> None:
        #: Open spans: ``[layer, child_ns, span_id]``.
        self.stack: List[list] = []
        self.self_ns: Dict[str, int] = {}
        self.calls: Dict[str, int] = {}
        #: Kept finished spans:
        #: ``(span_id, parent_id, layer, name, start_ns, end_ns, op)``.
        self.spans: List[tuple] = []
        self.next_id = 1
        self.dropped = 0
        #: Identifier of the operation the benchmark is driving, shared
        #: by every span it causes (set by the workload).
        self.op = ""

    def clear(self) -> None:
        """Drop the accumulated figures; open spans stay open."""
        self.self_ns = {}
        self.calls = {}
        self.spans = []
        self.dropped = 0


class SpanRecorder:
    """Collects spans from every thread that runs wrapped code."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: List[ThreadSpans] = []

    def state(self) -> ThreadSpans:
        try:
            return self._local.st
        except AttributeError:
            return self.fresh_state()

    def fresh_state(self) -> ThreadSpans:
        """Start this thread over with an empty stack (a forked worker
        inherits its parent's open spans, which it must not close)."""
        st = ThreadSpans()
        self._local.st = st
        with self._lock:
            self._threads.append(st)
        return st

    def set_op(self, op: str) -> None:
        self.state().op = op

    def reset(self) -> None:
        """Start a measurement window on every thread."""
        with self._lock:
            for st in self._threads:
                st.clear()

    def totals(self) -> dict:
        """Self time per layer (s) and watched call counts, summed over
        threads."""
        self_ns: Dict[str, int] = {}
        calls: Dict[str, int] = {}
        spans = dropped = 0
        with self._lock:
            threads = list(self._threads)
        for st in threads:
            for key, value in list(st.self_ns.items()):
                self_ns[key] = self_ns.get(key, 0) + value
            for key, value in list(st.calls.items()):
                calls[key] = calls.get(key, 0) + value
            spans += len(st.spans)
            dropped += st.dropped
        return {"self_s": {k: v / 1e9 for k, v in self_ns.items()},
                "calls": calls,
                "spans_kept": spans, "spans_dropped": dropped}

    def kept_spans(self) -> List[tuple]:
        with self._lock:
            threads = list(self._threads)
        out: List[tuple] = []
        for index, st in enumerate(threads):
            out.extend((index,) + span for span in st.spans)
        return out

    # ------------------------------------------------------------- wrappers
    def wrap(self, fn: Callable, layer: str, name: str) -> Callable:
        local = self._local
        fresh = self.fresh_state
        keep = KEEP_SPANS
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            try:
                st = local.st
            except AttributeError:
                st = fresh()
            stack = st.stack
            if stack and stack[-1][0] is layer:
                return fn(*args, **kwargs)
            span_id = st.next_id
            st.next_id = span_id + 1
            parent = stack[-1][2] if stack else 0
            frame = [layer, 0, span_id]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                self_ns = st.self_ns
                self_ns[layer] = (self_ns.get(layer, 0)
                                  + duration - frame[1])
                if stack:
                    stack[-1][1] += duration
                if len(st.spans) < keep:
                    st.spans.append((span_id, parent, layer, name,
                                     start, end, st.op))
                else:
                    st.dropped += 1

        return functools.update_wrapper(wrapper, fn)

    def watch(self, fn: Callable, name: str) -> Callable:
        """Count every call of *fn*."""
        state = self.state

        def counter(*args, **kwargs):
            calls = state().calls
            calls[name] = calls.get(name, 0) + 1
            return fn(*args, **kwargs)

        return functools.update_wrapper(counter, fn)


def write_spans(path, spans: Iterable[tuple], meta: Optional[dict] = None
                ) -> int:
    """Write kept spans as JSON lines after a header line; returns how
    many.  Each span is ``(thread, span_id, parent_id, layer, name,
    start_ns, end_ns, op)``, as :meth:`SpanRecorder.kept_spans` gives."""
    written = 0
    with open(path, "w") as fh:
        fh.write(json.dumps({"meta": meta or {}}) + "\n")
        for thread, sid, parent, layer, name, start, end, op in spans:
            fh.write(json.dumps(
                {"thread": thread, "id": sid, "parent": parent,
                 "layer": layer, "name": name, "start_ns": start,
                 "end_ns": end, "op": op}) + "\n")
            written += 1
    return written


def _plain_function(fn) -> bool:
    return (inspect.isfunction(fn)
            and not inspect.isgeneratorfunction(fn)
            and not inspect.iscoroutinefunction(fn)
            and not inspect.isasyncgenfunction(fn))


def layer_modules() -> List[str]:
    """Import every module of the wrapped packages; returns their names."""
    names = []
    for package in _PACKAGES:
        module = importlib.import_module(package)
        names.append(package)
        for info in pkgutil.walk_packages(module.__path__, package + "."):
            if (info.name.endswith(".__main__")
                    or info.name.startswith(_SKIP_PACKAGES)):
                continue
            importlib.import_module(info.name)
            names.append(info.name)
    return names


def install(recorder: SpanRecorder) -> int:
    """Wrap every layer function and method; returns how many.

    Patching is process-wide, so a process installs one recorder once;
    a second call wraps nothing.
    """
    global _installed
    if _installed is not None:
        return 0
    replaced: Dict[int, Callable] = {}
    count = 0
    for modname in layer_modules():
        module = sys.modules[modname]
        layer = layer_of(modname)
        for attr, value in list(vars(module).items()):
            if getattr(value, "__module__", None) != modname:
                continue
            if _plain_function(value):
                wrapped = recorder.wrap(value, layer,
                                        f"{modname}.{value.__qualname__}")
                replaced[id(value)] = wrapped
                setattr(module, attr, wrapped)
                count += 1
            elif inspect.isclass(value):
                count += _wrap_class(recorder, value, layer, modname)
    # ``from x import f`` aliases in other modules keep the original
    # object: point them at the wrapper too.
    for modname, module in list(sys.modules.items()):
        if not modname.startswith("repro") or module is None:
            continue
        for attr, value in list(vars(module).items()):
            wrapped = replaced.get(id(value))
            if wrapped is not None and value is getattr(
                    wrapped, "__wrapped__", None):
                setattr(module, attr, wrapped)
    for modname, qualname in WATCHED:
        _watch(recorder, modname, qualname)
    _installed = recorder
    return count


def _wrap_class(recorder: SpanRecorder, cls, layer: str,
                modname: str) -> int:
    count = 0
    for attr, value in list(vars(cls).items()):
        if attr.startswith("__") and attr != "__call__":
            continue
        name = f"{modname}.{cls.__qualname__}.{attr}"
        if name in _UNWRAPPED:
            continue
        if isinstance(value, staticmethod):
            fn = value.__func__
            if _plain_function(fn):
                new = staticmethod(recorder.wrap(fn, layer, name))
            else:
                continue
        elif isinstance(value, classmethod):
            fn = value.__func__
            if _plain_function(fn):
                new = classmethod(recorder.wrap(fn, layer, name))
            else:
                continue
        elif _plain_function(value):
            new = recorder.wrap(value, layer, name)
        else:
            continue
        try:
            setattr(cls, attr, new)
        except (AttributeError, TypeError):
            continue
        count += 1
    return count


def _watch(recorder: SpanRecorder, modname: str, qualname: str) -> None:
    owner = sys.modules[modname]
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    setattr(owner, attr, recorder.watch(getattr(owner, attr), qualname))


def installed() -> Optional[SpanRecorder]:
    """The recorder this process installed, if any."""
    return _installed
