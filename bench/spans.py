"""In-memory span tracer that wraps hetcov functions from outside the package.

A traced function is rebound in every ``hetcov`` module namespace that holds
it, because modules import one another's functions by name (``analysis``
calls the ``comp_inc_beta`` it imported, not ``specfun.comp_inc_beta``), so
patching only the defining module would miss those calls. Each call records
one span (name, start, end, parent) into a per-thread buffer; nothing is
aggregated while the workload runs. ``restore`` puts every original binding
back.
"""

from __future__ import annotations

import contextlib
import sys
import threading
import time
from array import array
from collections import Counter

import numpy as np


class _Buffer:
    """Spans and counters of one thread; parents index into the same buffer."""

    def __init__(self, n_names: int):
        self.name = array("i")
        self.parent = array("q")
        self.root = array("q")
        self.outer = array("b")  # 1 unless a span of the same name encloses it
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.depth = [0] * n_names
        self.counts: Counter = Counter()


class _IntegrateProxy:
    """Stands in for ``scipy.integrate`` in one module with a traced ``quad``."""

    def __init__(self, module, quad):
        self._module = module
        self.quad = quad

    def __getattr__(self, attr):
        return getattr(self._module, attr)


class Tracer:
    """Collects spans from wrapped functions; see the module docstring."""

    def __init__(self, span_names):
        self.names = list(span_names)
        self._ids = {n: i for i, n in enumerate(self.names)}
        self._local = threading.local()
        self._buffers: list[_Buffer] = []
        self._patches: list[tuple[object, str, object]] = []

    def _buffer(self) -> _Buffer:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            buf = _Buffer(len(self.names))
            self._local.buf = buf
            self._buffers.append(buf)  # list.append is atomic under the GIL
        return buf

    def _enter(self, nid: int) -> tuple[_Buffer, int]:
        buf = self._buffer()
        idx = len(buf.name)
        stack = buf.stack
        buf.name.append(nid)
        buf.parent.append(stack[-1] if stack else -1)
        buf.root.append(stack[0] if stack else idx)
        buf.outer.append(buf.depth[nid] == 0)
        buf.depth[nid] += 1
        stack.append(idx)
        buf.end.append(0.0)
        buf.start.append(time.perf_counter())
        return buf, idx

    @staticmethod
    def _exit(buf: _Buffer, idx: int, nid: int) -> None:
        buf.end[idx] = time.perf_counter()
        buf.stack.pop()
        buf.depth[nid] -= 1

    @contextlib.contextmanager
    def span(self, name: str):
        """A span the benchmark opens itself."""
        nid = self._ids[name]
        buf, idx = self._enter(nid)
        try:
            yield
        finally:
            self._exit(buf, idx, nid)

    def count(self, name: str, value: int = 1) -> None:
        self._buffer().counts[name] += value

    def spanned(self, fn, name_of, after=None):
        """Wrap fn in a span; name_of(args, kwargs) picks the span name."""
        ids = self._ids

        def wrapper(*args, **kwargs):
            nid = ids[name_of(args, kwargs)]
            buf, idx = self._enter(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(buf, idx, nid)
            if after is not None:
                after(self, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def counted(self, fn, name: str):
        """Wrap fn with a call counter and no span."""

        def wrapper(*args, **kwargs):
            self._buffer().counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def rebind(self, original, replacement) -> None:
        """Point every hetcov module attribute bound to original at replacement."""
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == "hetcov" or modname.startswith("hetcov.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, replacement)

    def proxy_quad(self, module, name: str = "quad") -> None:
        """Trace scipy.integrate.quad as called through module.integrate."""
        integrate = getattr(module, "integrate", None)
        if integrate is None or not hasattr(integrate, "quad"):
            return
        quad = self.spanned(integrate.quad, lambda a, k: name)
        self._patches.append((module, "integrate", integrate))
        module.integrate = _IntegrateProxy(integrate, quad)

    def restore(self) -> None:
        for module, attr, value in reversed(self._patches):
            setattr(module, attr, value)
        self._patches.clear()

    def arrays(self) -> dict[str, np.ndarray]:
        """All spans as flat arrays, parents and roots as global indices."""
        parts = {k: [] for k in ("name", "parent", "root", "outer", "start", "end")}
        offset = 0
        for buf in self._buffers:
            n = len(buf.name)
            parent = np.frombuffer(buf.parent, dtype=np.int64)
            parts["parent"].append(np.where(parent >= 0, parent + offset, -1))
            parts["root"].append(np.frombuffer(buf.root, dtype=np.int64) + offset)
            parts["name"].append(np.frombuffer(buf.name, dtype=np.int32))
            parts["outer"].append(np.frombuffer(buf.outer, dtype=np.int8))
            parts["start"].append(np.frombuffer(buf.start, dtype=np.float64))
            parts["end"].append(np.frombuffer(buf.end, dtype=np.float64))
            offset += n
        empty = {"name": np.int32, "parent": np.int64, "root": np.int64,
                 "outer": np.int8, "start": np.float64, "end": np.float64}
        return {
            k: np.concatenate(v) if v else np.empty(0, dtype=empty[k])
            for k, v in parts.items()
        }

    def counts(self) -> Counter:
        total: Counter = Counter()
        for buf in self._buffers:
            total.update(buf.counts)
        return total


def span_stats(spans: dict[str, np.ndarray], n_names: int) -> dict[str, np.ndarray]:
    """Per span name: calls, total seconds (outermost spans only) and self seconds.

    Self time is a span's duration minus the durations of its direct
    children; children run nested on the parent's own thread, so they lie
    inside its interval.
    """
    name, parent = spans["name"], spans["parent"]
    dur = spans["end"] - spans["start"]
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
    self_t = dur - child
    return {
        "calls": np.bincount(name, minlength=n_names),
        "total_s": np.bincount(name, weights=dur * spans["outer"], minlength=n_names),
        "self_s": np.bincount(name, weights=self_t, minlength=n_names),
    }


def count_under(spans: dict[str, np.ndarray], child_id: int, ancestor_id: int) -> int:
    """Number of spans named child_id that have an ancestor named ancestor_id."""
    name, parent = spans["name"], spans["parent"]
    hits = 0
    for idx in np.flatnonzero(name == child_id):
        p = parent[idx]
        while p >= 0:
            if name[p] == ancestor_id:
                hits += 1
                break
            p = parent[p]
    return hits
