"""In-memory span recorder and the wrappers that feed it.

A span is (name, start, end, parent, op): the parent is the index of the span
that was open when this one started, and op is the id of the benchmark op the
span belongs to.  Spans live in flat arrays while the run lasts and are saved
with ``save`` when it ends.  Self time is a span's duration minus the durations
of its direct children; since one thread records them, children never overlap.

Wrappers are installed by name.  A function is replaced wherever the same
object is bound in a loaded module of the package (its defining module and
every import site), and a method is replaced on each class that defines it.
A target that cannot be found is reported, never fatal, so that the traced
run keeps working when the program's internals move.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self._stack: list[int] = []
        self.current_op = -1
        self.counters: dict[str, float] = {}

    def _id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name_id.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.current_op)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int):
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def record(self, name: str, start: float, end: float, parent: int = -1, op: int = -1) -> int:
        """Append a finished span, so that span trees can be built by hand."""
        idx = len(self.start)
        self.name_id.append(self._id(name))
        self.start.append(start)
        self.end.append(end)
        self.parent.append(parent)
        self.op.append(op)
        return idx

    def count(self, key: str, amount: float = 1.0):
        self.counters[key] = self.counters.get(key, 0.0) + amount

    def wrap(self, fn, name: str, on_return=None):
        name_id = self._id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name_id)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if on_return is not None:
                on_return(self, out)
            return out

        traced.__wrapped_by_perfbench__ = True
        return traced

    # -- analysis -------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "op": np.frombuffer(self.op, dtype=np.int32).copy(),
        }

    def save(self, path):
        np.savez(path, names=np.array(self.names, dtype=str), **self.arrays())


class SpanTable:
    """Read-only view of a Tracer's spans with the self-time arithmetic."""

    def __init__(self, tracer: Tracer):
        a = tracer.arrays()
        self.names = list(tracer.names)
        self.name_id = a["name_id"]
        self.parent = a["parent"]
        self.duration = a["end"] - a["start"]
        n = len(self.duration)
        has_parent = self.parent >= 0
        child_time = np.bincount(self.parent[has_parent], weights=self.duration[has_parent],
                                 minlength=n)
        self.self_time = self.duration - child_time[:n]

    def _ids(self, names) -> list[int]:
        return [self.names.index(n) for n in names if n in self.names]

    def _mask(self, names) -> np.ndarray:
        return np.isin(self.name_id, self._ids(names))

    def calls(self, names) -> int:
        return int(self._mask(names).sum())

    def self_seconds(self, names) -> float:
        return float(self.self_time[self._mask(names)].sum())

    def outer_seconds(self, names) -> float:
        """Inclusive time of the group's spans, counting nested ones only once."""
        ids = set(self._ids(names))
        total = 0.0
        for i in np.flatnonzero(self._mask(names)):
            p = self.parent[i]
            while p >= 0 and self.name_id[p] not in ids:
                p = self.parent[p]
            if p < 0:
                total += self.duration[i]
        return total


def package_modules(package: str) -> list:
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == package or name.startswith(package + "."))]


def install_function(tracer: Tracer, package: str, module: str, attr: str, name: str,
                     on_return=None) -> int:
    """Wrap module.attr at every place in the package that binds the same object.

    Returns the number of bindings replaced; 0 means the target is absent.
    """
    mod = sys.modules.get(module)
    original = getattr(mod, attr, None) if mod is not None else None
    if original is None or not callable(original) \
            or getattr(original, "__wrapped_by_perfbench__", False):
        return 0
    traced = tracer.wrap(original, name, on_return)
    replaced = 0
    for m in package_modules(package):
        for key, value in list(vars(m).items()):
            if value is original:
                setattr(m, key, traced)
                replaced += 1
    return replaced


def install_method(tracer: Tracer, package: str, attr: str, name: str) -> int:
    """Wrap attr on every class of the package that defines it in its own body."""
    replaced = 0
    seen = set()
    for m in package_modules(package):
        for cls in list(vars(m).values()):
            if not isinstance(cls, type) or id(cls) in seen \
                    or not cls.__module__.startswith(package):
                continue
            seen.add(id(cls))
            original = cls.__dict__.get(attr)
            if callable(original) and not getattr(original, "__wrapped_by_perfbench__", False):
                setattr(cls, attr, tracer.wrap(original, name))
                replaced += 1
    return replaced
