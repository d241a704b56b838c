"""Span tracing around each layer's public entry points.

The traced run patches the public calls of each layer - a class
attribute or a module attribute, never a file under ``src/`` - with a
wrapper that records one span per call: layer, name, start, end, parent
span and thread.  Spans stay in memory while a leg runs; the layer
totals are folded afterwards, and :func:`chrome_trace` writes them out.

A layer's *busy* time is its span time minus the spans nested in it on
the same thread (a thread-local stack tracks the nesting), so a codec
call that waits on a Taint Map round-trip is charged only for its own
work.  ``recv`` is a wait, not work, and is kept apart.
"""

from __future__ import annotations

import importlib
import itertools
import threading
from bisect import bisect_right
from collections import defaultdict
from time import perf_counter

#: (layer, module, class or None for a module attribute, attributes).
ENTRY_POINTS = (
    ("taint.sources", "repro.taint.sources", "SourceSinkRegistry", ("source",)),
    # Systems import app_process lazily, so patching the module
    # attribute covers their calls as well as the benchmark's own.
    ("appmodel", "repro.appmodel", None, ("app_process",)),
    (
        "core.wrappers",
        "repro.core.wrappers",
        "DisTARuntime",
        ("outgoing", "native_read", "native_write", "decoder_for"),
    ),
    ("obs", "repro.core.wrappers", "DisTARuntime", ("record_io",)),
    ("core.wire", "repro.core.wire", None, ("encode_cells", "encode_packet", "decode_packet")),
    ("core.wire", "repro.core.wire", "CellDecoder", ("feed",)),
    # The agent binds these when it attaches, so the tracer must be
    # installed before the leg's cluster starts.
    (
        "core.taintmap.client",
        "repro.core.taintmap",
        "TaintMapClient",
        ("gid_for", "gids_for", "taint_for", "taints_for"),
    ),
    ("runtime.kernel", "repro.runtime.kernel", "TcpEndpoint", ("send_all", "send")),
    ("runtime.kernel.recv", "repro.runtime.kernel", "TcpEndpoint", ("recv",)),
)

#: Layers whose busy time sums into the reconciliation.  The Taint Map
#: client is added as wall time (it waits on another thread), and the
#: server's time is inside that wall, so neither is summed as busy.
BUSY_LAYERS = (
    "taint.sources", "appmodel", "core.wrappers", "obs", "core.wire", "jre.jni",
    "runtime.kernel",
)

#: Threads of the Taint Map client transport and server: their kernel
#: traffic is part of the client's wall time, not the application's.
TAINTMAP_THREADS = "taintmap"


class Tracer:
    """Records spans for one leg; install before the leg boots."""

    def __init__(self) -> None:
        #: (id, parent id, layer, name, start, end, nested-child time,
        #: thread ident, thread name, re-entered: same layer already on
        #: the stack).  Idents are reused by later threads; names are not.
        self.spans: list = []
        self.thread_names: dict = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list = []

    def _wrap(self, layer: str, name: str, fn):
        spans, ids, local, names, clock, ident = (
            self.spans, self._ids, self._local, self.thread_names, perf_counter,
            threading.get_ident,
        )

        def traced(*args, **kwargs):
            try:
                stack = local.stack
            except AttributeError:
                stack = local.stack = []
                local.thread = names[ident()] = threading.current_thread().name
            parent = stack[-1] if stack else None
            reentered = any(frame[1] == layer for frame in stack)
            frame = [next(ids), layer, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                if parent is not None:
                    parent[2] += end - start
                spans.append(
                    (frame[0], parent[0] if parent else 0, layer, name, start, end,
                     frame[2], ident(), local.thread, reentered)
                )

        traced.__wrapped__ = fn
        return traced

    def _patch(self, owner, attribute: str, replacement) -> None:
        self._patches.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, replacement)

    def install(self) -> "Tracer":
        for layer, module_name, class_name, attributes in ENTRY_POINTS:
            module = importlib.import_module(module_name)
            owner = getattr(module, class_name) if class_name else module
            for attribute in attributes:
                self._patch(owner, attribute, self._wrap(layer, attribute, owner.__dict__[attribute]))
        # The simulated native methods run in both modes (layer jre.jni).
        # Under DisTA the agent patches its wrapper closures over them per
        # node; those closures are the JNI wrapper boundary itself, so
        # they are wrapped as they are patched in (layer core.wrappers).
        from repro.jre import jni

        table = jni.JniTable
        for method in jni.PATCHABLE_METHODS:
            if method in table.__dict__:
                self._patch(table, method, self._wrap("jre.jni", method, table.__dict__[method]))
        patch, wrap = table.__dict__["patch"], self._wrap

        def traced_patch(jni_table, method, wrapper):
            return patch(
                jni_table, method, lambda original: wrap("core.wrappers", method, wrapper(original))
            )

        self._patch(table, "patch", traced_patch)
        return self

    def uninstall(self) -> None:
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    def totals(self, windows: list, op_threads) -> dict:
        """Per-layer sums over spans that ended inside an op window.

        Returns ``{layer: {"busy", "calls", "wall"}}`` in seconds, where
        ``calls``/``wall`` count only outermost spans of the layer, plus
        ``"runtime.kernel.recv"`` wait measured on ``op_threads`` (a
        predicate on thread names) only - elsewhere recv is idle time.
        """
        out: dict = defaultdict(lambda: {"busy": 0.0, "calls": 0, "wall": 0.0})
        windows = sorted(windows)
        starts = [w[0] for w in windows]
        for _, _, layer, _, start, end, child, _, thread, reentered in self.spans:
            i = bisect_right(starts, end) - 1
            if i < 0 or end > windows[i][1]:
                continue
            if layer == "runtime.kernel.recv":
                if op_threads(thread):
                    out[layer]["wall"] += end - start
                continue
            if thread.startswith(TAINTMAP_THREADS):
                continue
            entry = out[layer]
            entry["busy"] += end - start - child
            if not reentered:
                entry["calls"] += 1
                entry["wall"] += end - start
        return out


def chrome_trace(legs: list) -> dict:
    """Chrome ``trace_event`` JSON for traced legs.

    ``legs`` holds ``(process name, tracer, op windows, origin)``; each
    leg is one process track, each thread one lane, and the benchmark's
    operations appear as ``op`` spans on a lane of their own.
    """
    events = []
    for pid, (label, tracer, windows, origin) in enumerate(legs, start=1):
        events.append(
            {"name": "process_name", "ph": "M", "pid": pid, "args": {"name": label}}
        )
        lanes = dict(tracer.thread_names)
        lanes[0] = "benchmark ops"
        for tid, name in lanes.items():
            events.append(
                {"name": "thread_name", "ph": "M", "pid": pid, "tid": tid,
                 "args": {"name": name}}
            )
        for index, (start, end) in enumerate(windows):
            events.append(
                {"name": "op", "cat": "benchmark", "ph": "X", "pid": pid, "tid": 0,
                 "ts": (start - origin) * 1e6, "dur": (end - start) * 1e6,
                 "args": {"op": index}}
            )
        for sid, parent, layer, name, start, end, _, tid, _, _ in tracer.spans:
            events.append(
                {"name": name, "cat": layer, "ph": "X", "pid": pid, "tid": tid,
                 "ts": (start - origin) * 1e6, "dur": (end - start) * 1e6,
                 "args": {"id": sid, "parent": parent}}
            )
    return {"traceEvents": events, "displayTimeUnit": "ms"}
