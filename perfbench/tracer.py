"""In-memory span tracer for the benchmark's traced run.

The tracer wraps public functions of the taskrouter modules from the
outside: it replaces the attribute in every loaded ``taskrouter.*`` module
that holds the same function object, so calls through ``from .core import
group_records`` style imports are seen too. Nothing inside the package
changes, and ``uninstall`` puts every original back.

A span records its name, duration and self time (its duration minus the
time covered by its child spans). Spans nest on one stack; the outermost
span of a stack is the flow root, and every span is also aggregated under
its root so a flow's wall time can be split into layer self times.
Count-only probes record calls without timing and without taking part in
the stack, for functions called tens of thousands of times per flow.
"""

from __future__ import annotations

import importlib
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class SpanStats:
    calls: int = 0
    total_ns: int = 0
    self_ns: int = 0


class Tracer:
    def __init__(self, keep_durations=()):
        self.stats: dict[str, SpanStats] = {}
        self.by_root: dict[str, dict[str, SpanStats]] = {}
        # (probe name, name of the span it was called under) -> calls
        self.counts: dict[tuple[str, str | None], int] = {}
        # (span name, parent span name) -> durations, for names in keep_durations
        self.durations: dict[tuple[str, str | None], list[int]] = {}
        self._keep = set(keep_durations)
        self._stack: list[list] = []  # [name, start_ns, child_ns]
        self._restore: list = []

    # -- recording ----------------------------------------------------------

    def _parent(self) -> str | None:
        return self._stack[-1][0] if self._stack else None

    def _enter(self, name: str) -> None:
        key = (name, self._parent())
        self.counts[key] = self.counts.get(key, 0) + 1
        self._stack.append([name, time.perf_counter_ns(), 0])

    def _exit(self) -> None:
        name, start, child = self._stack.pop()
        dur = time.perf_counter_ns() - start
        root = self._stack[0][0] if self._stack else name
        for table in (self.stats, self.by_root.setdefault(root, {})):
            st = table.setdefault(name, SpanStats())
            st.calls += 1
            st.total_ns += dur
            st.self_ns += dur - child
        if name in self._keep:
            self.durations.setdefault((name, self._parent()), []).append(dur)
        if self._stack:
            self._stack[-1][2] += dur

    @contextmanager
    def span(self, name: str):
        self._enter(name)
        try:
            yield
        finally:
            self._exit()

    def timed(self, name: str, fn, after=None):
        """Wrap ``fn`` in a span; ``after(args, kwargs, result)`` runs once
        the span has closed, so its own cost is not charged to the span."""

        def wrapper(*args, **kwargs):
            self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit()
            if after is not None:
                after(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def counted(self, name: str, fn):
        def wrapper(*args, **kwargs):
            key = (name, self._parent())
            self.counts[key] = self.counts.get(key, 0) + 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- queries ------------------------------------------------------------

    def root(self) -> str | None:
        return self._stack[0][0] if self._stack else None

    def get(self, name: str) -> SpanStats:
        return self.stats.get(name, SpanStats())

    def calls(self, name: str, under=None) -> int:
        """Calls of a probe, optionally only those made directly under one
        of the span names in ``under``."""
        return sum(n for (probe, parent), n in self.counts.items()
                   if probe == name and (under is None or parent in under))

    def durations_under(self, name: str, under) -> list[int]:
        return sorted(d for (span, parent), ds in self.durations.items()
                      if span == name and parent in under for d in ds)

    # -- installation -------------------------------------------------------

    def install(self, probes) -> None:
        """``probes``: (module, attribute path, span name, kind, after) with
        kind "timed" or "counted"; the path is "func" or "Class.method"."""
        for module_name, path, name, kind, after in probes:
            module = importlib.import_module(module_name)
            make = (lambda fn: self.timed(name, fn, after)) if kind == "timed" \
                else (lambda fn: self.counted(name, fn))
            if "." in path:
                cls_name, meth = path.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    setattr(cls, meth, classmethod(make(raw.__func__)))
                else:
                    setattr(cls, meth, make(raw))
                self._restore.append((cls, meth, raw))
                continue
            original = getattr(module, path)
            wrapped = make(original)
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not mod_name.startswith("taskrouter"):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapped)
                        self._restore.append((mod, attr, original))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)
