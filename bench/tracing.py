"""In-memory spans around the calls into each lohe_sync layer.

The program carries no tracing of its own, so the spans are recorded from
here: `instrument` replaces every function one layer module imported from
another layer module with a wrapper that opens a span named after the callee.
Calls inside a module are not wrapped, so a span boundary is always a layer
boundary. Modules outside LAYERS (initial_data, potentials, snapshots,
errors) count toward the layer that calls them.

Spans are kept in a list and written out once, when the traced process ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from contextlib import contextmanager

LAYERS = (
    "scenario", "core", "solver", "diagnostics", "correlations",
    "oracles", "emit", "verification", "cli",
)


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, layer: str):
        rec = {
            "id": len(self.spans),
            "name": name,
            "layer": layer,
            "parent": self._stack[-1] if self._stack else None,
            "run": self.run_id,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def wrap(self, fn, name: str, layer: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name, layer):
                return fn(*args, **kwargs)

        return traced

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)


def instrument(tracer: Tracer) -> None:
    """Wrap every cross-layer function reference inside the lohe_sync layers."""
    modules = {layer: importlib.import_module(f"lohe_sync.{layer}") for layer in LAYERS}
    for module in modules.values():
        for attr, obj in list(vars(module).items()):
            if not inspect.isfunction(obj) or obj.__module__ == module.__name__:
                continue
            home = obj.__module__.rpartition(".")[2]
            if obj.__module__.startswith("lohe_sync.") and home in modules:
                setattr(module, attr, tracer.wrap(obj, f"{home}.{obj.__name__}", home))
    # the one cross-layer method call: cli and verification ask the solver's
    # Trajectory for its Gram series
    trajectory = modules["solver"].Trajectory
    trajectory.gram_series = tracer.wrap(trajectory.gram_series, "solver.gram_series", "solver")


def self_times(spans: list[dict]) -> dict[str, float]:
    """Seconds per layer: each span's duration minus its direct children's."""
    child = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] += s["end"] - s["start"]
    out = {layer: 0.0 for layer in LAYERS}
    for s, c in zip(spans, child):
        out[s["layer"]] += (s["end"] - s["start"]) - c
    return out


def totals(spans: list[dict], name: str) -> tuple[int, float]:
    """(calls, summed seconds) of the spans with this name."""
    hits = [s["end"] - s["start"] for s in spans if s["name"] == name]
    return len(hits), sum(hits)
