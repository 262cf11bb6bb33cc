"""Spans around the public calls a workload makes into each layer.

The benchmark never edits the library: it wraps the callables the training
loop and the server already call (a module's ``forward``, ``Tensor.backward``,
a controller hook, a kernel backend object) with a function that records a
span and calls through.  ``Probes.install`` applies every patch and
``Probes.uninstall`` restores the originals, so one process can alternate
traced and untraced chunks and report the tracing overhead.

A span is ``(name, start, end, parent index)``; spans nest per thread.  A
layer's self time is its span's duration minus the time its child spans
cover.  The tracer accumulates self time per name until :meth:`Tracer.take`
hands the totals to the caller (once per training step, or once per
serving phase).
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict

_perf = time.perf_counter


class Tracer:
    """In-memory span recorder with per-name self-time accumulation."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._self_s: dict[str, float] = defaultdict(float)
        self._top_s = 0.0
        self._counts: dict[str, int] = defaultdict(int)

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn(*args, **kwargs)`` inside a span called ``name``."""
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        parent = stack[-1][1] if stack else -1
        start = _perf()
        with self._lock:
            index = len(self.spans)
            self.spans.append((name, start, start, parent))
        frame = [0.0, index]  # seconds covered by child spans, own index
        stack.append(frame)
        try:
            return fn(*args, **kwargs)
        finally:
            end = _perf()
            stack.pop()
            duration = end - start
            with self._lock:
                self.spans[index] = (name, start, end, parent)
                self._self_s[name] += duration - frame[0]
                if not stack:
                    self._top_s += duration
            if stack:
                stack[-1][0] += duration

    def count(self, name: str, n: int = 1) -> None:
        with self._lock:
            self._counts[name] += n

    def take(self) -> tuple[dict[str, float], float, dict[str, int]]:
        """(self seconds per name, top-level seconds, counts) since the last take."""
        with self._lock:
            taken = (dict(self._self_s), self._top_s, dict(self._counts))
            self._self_s.clear()
            self._top_s = 0.0
            self._counts.clear()
        return taken


class _KernelProbe:
    """Stands in for a layer's ``forward_backend`` and records its dispatch."""

    def __init__(self, tracer: Tracer, kernel):
        self._tracer = tracer
        self.kernel = kernel

    def __call__(self, x):
        self._tracer.count("sparse.kernels." + self.kernel.backend())
        return self._tracer.call("sparse.kernels.forward", self.kernel, x)

    def __getattr__(self, name):
        return getattr(self.kernel, name)


class Probes:
    """A set of ``(object, attribute) -> span name`` patches applied together."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._targets: list[tuple[object, str, str]] = []
        self._kernel_modules: list = []
        self._saved: list[tuple[object, str, bool, object]] = []

    def add(self, obj, attr: str, name: str) -> None:
        self._targets.append((obj, attr, name))

    def add_kernels(self, model) -> None:
        """Record the dispatch of every training kernel backend installed now."""
        self._kernel_modules.extend(
            module
            for module in model.modules()
            if getattr(module, "forward_backend", None) is not None
        )

    @property
    def installed(self) -> bool:
        return bool(self._saved)

    def install(self) -> None:
        if self._saved:
            return
        tracer = self.tracer
        for obj, attr, name in self._targets:
            original = getattr(obj, attr)

            def wrapper(*args, _fn=original, _name=name, **kwargs):
                return tracer.call(_name, _fn, *args, **kwargs)

            self._saved.append((obj, attr, attr in vars(obj), original))
            setattr(obj, attr, wrapper)
        for module in self._kernel_modules:
            self._saved.append((module, "forward_backend", True, module.forward_backend))
            module.forward_backend = _KernelProbe(tracer, module.forward_backend)

    def uninstall(self) -> None:
        for obj, attr, own, original in reversed(self._saved):
            if own:
                setattr(obj, attr, original)
            else:
                delattr(obj, attr)
        self._saved.clear()
