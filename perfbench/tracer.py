"""Span tracer for the traced benchmark run.

`Tracer.install()` wraps every public function of the spdorders modules
(plus `SpdMatrix.__init__` and `FlowTrajectory.spectrum_drift`) and
rebinds every `spdorders.*` module attribute that refers to one of them.
The rebinding matters because the package imports names with
`from .x import y`: patching only the defining module would miss calls
such as `orders.cone_membership`.  Nothing under `src/` is edited; the
originals are restored by `uninstall()`.

Each span records its name, start, end and parent.  Spans stay in memory
until `summary()` and `dump()` at the end of the run.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from contextlib import contextmanager

LAYERS = ("core", "cones", "geometry", "orders", "monotone", "flows", "viz2", "io", "cli")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_index: dict[str, int] = {}
        # one entry per span: (name index, start ns, end ns, parent span index or -1)
        self.spans: list = []
        self._stack = [-1]
        self._restore: list = []

    def _index(self, name: str) -> int:
        if name not in self._name_index:
            self._name_index[name] = len(self.names)
            self.names.append(name)
        return self._name_index[name]

    def wrap(self, name: str, fn):
        idx = self._index(name)
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            me = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(me)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[me] = (idx, start, end, parent)

        return traced

    @contextmanager
    def span(self, name: str):
        """Span around a block of the benchmark's own code."""
        idx = self._index(name)
        me = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1]
        self._stack.append(me)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans[me] = (idx, start, end, parent)

    def install(self) -> None:
        import spdorders
        from spdorders.core import SpdMatrix
        from spdorders.flows import FlowTrajectory

        wrapped = {}  # id(original) -> (original, wrapper)
        for layer in LAYERS:
            mod = sys.modules[f"spdorders.{layer}"]
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                    continue
                wrapped[id(obj)] = (obj, self.wrap(f"{layer}.{attr}", obj))
        modules = [spdorders] + [sys.modules[f"spdorders.{layer}"] for layer in LAYERS]
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])
                    self._restore.append((mod, attr, obj))
        for cls, attr, name in (
            (SpdMatrix, "__init__", "core.SpdMatrix"),
            (FlowTrajectory, "spectrum_drift", "flows.spectrum_drift"),
        ):
            original = cls.__dict__[attr]
            setattr(cls, attr, self.wrap(name, original))
            self._restore.append((cls, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def summary(self) -> dict:
        """Per span name: call count, inclusive and self nanoseconds, and
        call counts by parent name.  Self time is a span's duration minus
        the time its direct children cover."""
        child_ns = [0] * len(self.spans)
        for idx, start, end, parent in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out = {name: {"calls": 0, "total_ns": 0, "self_ns": 0, "by_parent": {}} for name in self.names}
        for k, (idx, start, end, parent) in enumerate(self.spans):
            row = out[self.names[idx]]
            row["calls"] += 1
            row["total_ns"] += end - start
            row["self_ns"] += end - start - child_ns[k]
            parent_name = self.names[self.spans[parent][0]] if parent >= 0 else ""
            row["by_parent"][parent_name] = row["by_parent"].get(parent_name, 0) + 1
        return {name: row for name, row in out.items() if row["calls"]}

    def dump(self, path, header: dict) -> None:
        """Write the header, the per-name summary and every span as columns."""
        cols = list(zip(*self.spans)) if self.spans else [(), (), (), ()]
        doc = {
            **header,
            "summary": self.summary(),
            "span_names": self.names,
            "spans": {
                "name": list(cols[0]),
                "start_ns": list(cols[1]),
                "end_ns": list(cols[2]),
                "parent": list(cols[3]),
            },
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc))
