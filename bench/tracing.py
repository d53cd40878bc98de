"""Spans and counters for the benchmark's traced run.

The program itself carries no tracing. Instead, ``instrument`` swaps each
listed public function, in every ``virtualmap`` module namespace that holds
it, for a wrapper that records a span (name, start, end, parent, job id) and
lets a hook read counts off the return value. Spans live in compact arrays
while the run lasts and are written once at the end; self time is derived
from them afterwards.
"""

from __future__ import annotations

import contextlib
import importlib
import sys
import time
from array import array
from collections import defaultdict
from pathlib import Path

import numpy as np


class Tracer:
    """Spans in parallel arrays, indexed by span id, plus per-job counters."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.job = array("i")
        self._stack: list[int] = []
        self.current_job = -1
        self.counters: dict[int, dict[str, float]] = defaultdict(dict)
        self.absent: set[str] = set()

    def _open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.job.append(self.current_job)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def job_span(self, job: int):
        """Root span of one CLI job; spans opened inside it carry its id."""
        self.current_job = job
        idx = self._open("job")
        try:
            yield
        finally:
            self._close(idx)
            self.current_job = -1

    def add(self, key: str, value: float) -> None:
        counts = self.counters[self.current_job]
        counts[key] = counts.get(key, 0) + value

    def peak(self, key: str, value: float) -> None:
        counts = self.counters[self.current_job]
        counts[key] = max(counts.get(key, value), value)

    def wrap(self, name: str, fn, hook=None):
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if hook is not None:
                try:
                    hook(self, args, kwargs, result)
                except (AttributeError, KeyError, IndexError, TypeError):
                    self.absent.add(f"{name} (return value)")
            return result

        traced.__wrapped__ = fn
        return traced

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "job": np.frombuffer(self.job, dtype=np.int32).copy(),
        }

    def save(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


def self_times(start: np.ndarray, end: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Each span's duration minus the part of it that its child spans cover.

    Children of one parent may arrive in any order and may overlap each other
    or stick out of the parent; only the union of their intervals, clipped to
    the parent's interval, is subtracted.
    """
    duration = end - start
    own = duration.copy()
    children: dict[int, list[int]] = defaultdict(list)
    for idx in np.flatnonzero(parent >= 0):
        children[int(parent[idx])].append(int(idx))
    for p, kids in children.items():
        lo_p, hi_p = start[p], end[p]
        covered = 0.0
        reach = lo_p
        for k in sorted(kids, key=lambda i: start[i]):
            lo = max(start[k], reach)
            hi = min(end[k], hi_p)
            if hi > lo:
                covered += hi - lo
                reach = hi
        own[p] = duration[p] - covered
    return own


def summarize(tracer: Tracer) -> dict[int, dict[str, dict[str, float]]]:
    """Per job and span name: calls, self seconds and total seconds.

    Total time counts only outermost spans of a name, so recursion does not
    count twice.
    """
    a = tracer.arrays()
    own = self_times(a["start"], a["end"], a["parent"])
    out: dict[int, dict[str, dict[str, float]]] = defaultdict(dict)
    for idx in range(len(own)):
        name = tracer.names[a["name_id"][idx]]
        per_job = out[int(a["job"][idx])]
        row = per_job.setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
        row["calls"] += 1
        row["self_s"] += float(own[idx])
        p = a["parent"][idx]
        nested = False
        while p >= 0:
            if a["name_id"][p] == a["name_id"][idx]:
                nested = True
                break
            p = a["parent"][p]
        if not nested:
            row["total_s"] += float(a["end"][idx] - a["start"][idx])
    return out


@contextlib.contextmanager
def instrument(tracer: Tracer, targets):
    """Wrap each (module, function, hook) target in every virtualmap namespace.

    A target whose module or function no longer exists is recorded in
    ``tracer.absent`` and skipped. Every original binding is restored on exit.
    """
    restore = []
    try:
        for module, func, hook in targets:
            name = f"{module}.{func}"
            try:
                home = importlib.import_module(f"virtualmap.{module}")
            except ImportError:
                tracer.absent.add(name)
                continue
            original = getattr(home, func, None)
            if original is None:
                tracer.absent.add(name)
                continue
            wrapper = tracer.wrap(name, original, hook)
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "virtualmap" or mod_name.startswith("virtualmap.")):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        restore.append((mod, attr, original))
        yield tracer
    finally:
        for mod, attr, original in reversed(restore):
            setattr(mod, attr, original)
