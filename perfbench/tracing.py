"""Spans around the library calls of the ``qubolin`` command layer.

:meth:`Tracer.install` replaces every public qubolin function that
``qubolin.cli`` imported with a wrapper that records a span (name, start,
end, parent span, job) and, for the stages that have one, a work count
taken from the call's arguments or result after the span has ended.
Nested calls inside the library are not wrapped, so a library span has no
children and the self time of a ``cli.main`` span is the command's own
time.  Spans stay in memory until :meth:`Tracer.write`.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from pathlib import Path

# package modules whose functions get spans; ``experiments`` is left out
LAYERS = ("qubo", "synth", "ordering", "linearize", "mkp", "solver")

# work counted at the span boundary, from (args, result)
COUNTS = {
    "qubo.load_qubo": lambda args, res: len(res.terms),
    "ordering.extract_order_dense": lambda args, res: len(res),
    "ordering.extract_order_sparse": lambda args, res: len(res),
    "ordering.find_order_violation": lambda args, res: len(args[1]),
    "linearize.extract_and_linearize": lambda args, res: len(res[1]),
    "solver.simulated_anneal": lambda args, res: args[1].sweeps * args[1].restarts * args[0].n,
}


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._saved: dict = {}
        self._cli = None
        self.job: int | str | None = None
        self.origin = time.perf_counter()

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn(*args, **kwargs)`` inside a span called ``name``."""
        span = {"name": name, "parent": self._stack[-1] if self._stack else None, "job": self.job}
        self._stack.append(len(self.spans))
        self.spans.append(span)
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            span["start"], span["end"] = t0 - self.origin, t1 - self.origin
        count = COUNTS.get(name)
        if count is not None:
            span["count"] = count(args, result)
        return result

    def install(self, cli) -> None:
        """Wrap the library functions in the namespace of the ``cli`` module."""
        for attr, fn in list(vars(cli).items()):
            if not inspect.isfunction(fn) or attr.startswith("_"):
                continue
            layer = fn.__module__.removeprefix("qubolin.")
            if layer in LAYERS:
                self._saved[attr] = fn
                setattr(cli, attr, self._wrap(f"{layer}.{fn.__name__}", fn))
        self._cli = cli

    def uninstall(self) -> None:
        for attr, fn in self._saved.items():
            setattr(self._cli, attr, fn)
        self._saved.clear()

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return traced

    def write(self, path: Path, meta: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({**meta, "spans": self.spans}) + "\n")


def totals(spans: list[dict], jobs: set) -> tuple[dict[str, float], dict[str, int]]:
    """Time and work count per span name over the spans of ``jobs``."""
    time_by: dict[str, float] = {}
    count_by: dict[str, int] = {}
    for s in spans:
        if s["job"] in jobs:
            time_by[s["name"]] = time_by.get(s["name"], 0.0) + s["end"] - s["start"]
            if "count" in s:
                count_by[s["name"]] = count_by.get(s["name"], 0) + s["count"]
    return time_by, count_by


def self_time(spans: list[dict], jobs: set, name: str, covered: frozenset[str]) -> float:
    """Time of the ``name`` spans of ``jobs`` minus that of their children named in ``covered``."""
    total = 0.0
    for s in spans:
        if s["job"] not in jobs:
            continue
        if s["name"] == name:
            total += s["end"] - s["start"]
        elif s["name"] in covered and s["parent"] is not None and spans[s["parent"]]["name"] == name:
            total -= s["end"] - s["start"]
    return total
