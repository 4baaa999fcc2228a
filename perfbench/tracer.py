"""Outside-in tracer for the askgraph package.

`Tracer.install` wraps every public function of the askgraph layer modules
and rebinds the wrapper under *every* name that refers to the original in any
loaded askgraph module. Modules that did ``from .corpus import tokenize``
hold their own binding, so patching only the defining module would miss
those calls and silently undercount.

Spans (name, start, end, parent) are kept in memory in flat arrays and
written out once, after the traced commands have finished. `aggregate`
turns a span file into per-function call counts, inclusive time and self
time (a span's duration minus the time its child spans cover).
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array
from pathlib import Path

PACKAGE = "askgraph"
LAYERS = ("corpus", "wordgraph", "interaction", "segmentation", "reports", "synth")


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids = array("i")
        self._starts = array("d")
        self._ends = array("d")
        self._parents = array("i")
        self._stack: list[int] = []

    def _wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        name_ids, starts, ends, parents = self._name_ids, self._starts, self._ends, self._parents
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            name_ids.append(name_id)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return traced

    def install(self) -> list[str]:
        """Patch every binding of every public layer function; return the
        traced names. Decorated functions (those with ``__wrapped__``, such
        as the `atomic_write` context manager) are left alone: timing their
        call would time only the creation of the returned object."""
        modules = [
            m for n, m in sorted(sys.modules.items())
            if n == PACKAGE or n.startswith(PACKAGE + ".")
        ]
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules.get(f"{PACKAGE}.{layer}")
            if module is None:
                continue
            for attr, obj in sorted(vars(module).items()):
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                    and not hasattr(obj, "__wrapped__")
                ):
                    wrappers[obj] = self._wrap(f"{layer}.{attr}", obj)
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(module, attr, wrappers[obj])
        return list(self.names)

    def write(self, path: str | Path) -> None:
        """One span per line: name, start, end, parent index (-1 for a root)."""
        names = self.names
        with open(path, "w", encoding="utf-8") as fh:
            for name_id, start, end, parent in zip(
                self._name_ids, self._starts, self._ends, self._parents
            ):
                fh.write(f"{names[name_id]}\t{start!r}\t{end!r}\t{parent}\n")


def aggregate(path: str | Path) -> tuple[dict[str, dict[str, float]], float]:
    """Read a span file; return per-name {calls, s, self_s} and the total
    duration of root spans (time spent inside any traced call)."""
    names: list[str] = []
    durations: list[float] = []
    parents: list[int] = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            name, start, end, parent = line.rstrip("\n").split("\t")
            names.append(name)
            durations.append(float(end) - float(start))
            parents.append(int(parent))
    child_time = [0.0] * len(names)
    root_s = 0.0
    for dur, parent in zip(durations, parents):
        if parent < 0:
            root_s += dur
        else:
            child_time[parent] += dur
    per_name: dict[str, dict[str, float]] = {}
    for name, dur, covered in zip(names, durations, child_time):
        entry = per_name.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["s"] += dur
        entry["self_s"] += dur - covered
    return per_name, root_s
