"""Spans recorded from harness code around the calls into each layer.

The program under test has no tracing of its own yet (ROADMAP "Spans,
histograms..."), so the traced run wraps the *public* entry points of
each layer from outside -- module functions and class methods are
rebound to span-recording wrappers for the duration of the run and
restored afterwards.  Spans stay in memory; :meth:`Tracer.dump` writes
them out when the run ends.

A span is ``[name, start_ns, end_ns, parent, request]``; ``name`` is
``"<layer>:<call>"`` with the layer named after the module it times.
A layer's *self time* is its spans' duration minus the part their
child spans cover.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import time
from collections import defaultdict

#: ``(module, attribute-or-Class.method, span name)``: every call the
#: traced run wraps.  Module functions are patched where they are
#: *looked up* (the importing module's global), methods on their class.
WRAPPED = (
    ("repro.query.query", "parse_query", "lang:parse_query"),
    ("repro.engine.magic", "rewrite_for_query",
     "engine.magic:rewrite_for_query"),
    ("repro.engine.magic", "DemandEngine.run",
     "engine.magic:DemandEngine.run"),
    ("repro.engine.planner", "PlanCache.get",
     "engine.planner:PlanCache.get"),
    ("repro.engine.planner", "build_plan", "engine.planner:build_plan"),
    ("repro.engine.fixpoint", "Engine.run", "engine.fixpoint:Engine.run"),
    ("repro.engine.heads", "HeadRealizer.realize",
     "engine.heads:HeadRealizer.realize"),
    ("repro.engine.incremental", "Maintainer.apply",
     "engine.incremental:Maintainer.apply"),
    ("repro.query.query", "Query.sync", "query:Query.sync"),
    ("repro.oodb.checkpoint", "DurableStore.commit",
     "oodb.wal:DurableStore.commit"),
    ("repro.oodb.checkpoint", "DurableStore.checkpoint",
     "oodb.checkpoint:DurableStore.checkpoint"),
    ("repro.oodb.checkpoint", "write_snapshot",
     "oodb.serialize:write_snapshot"),
    ("repro.oodb.checkpoint", "load_snapshot",
     "oodb.serialize:load_snapshot"),
)

#: Root spans opened by the harness itself; their self time is what no
#: layer span covers.
HARNESS = "harness"


class Tracer:
    """An in-memory span recorder (single-threaded by design: the
    traced replay runs the request stream sequentially in-process)."""

    def __init__(self, keep_results: tuple[str, ...] = ()) -> None:
        self.spans: list[list] = []
        self._open: list[int] = []
        #: Identifier shared by every span of the current request.
        self.request: int | None = None
        #: Return values of the wrapped calls named in ``keep_results``
        #: (how the harness reads a layer's own report, e.g. the
        #: ``MaintenanceReport`` of each ``Maintainer.apply``).
        self.results: dict[str, list] = {name: [] for name in keep_results}

    def begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent,
                           self.request])
        index = len(self.spans) - 1
        self._open.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter_ns()
        self._open.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        index = self.begin(name)
        try:
            yield index
        finally:
            self.end(index)

    def wrap(self, name: str, function):
        kept = self.results.get(name)

        def traced(*args, **kwargs):
            index = self.begin(name)
            try:
                result = function(*args, **kwargs)
            finally:
                self.end(index)
            if kept is not None:
                kept.append(result)
            return result
        traced.__wrapped__ = function
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Rebind every :data:`WRAPPED` call to its traced form."""
        undo = []
        try:
            for module_name, path, name in WRAPPED:
                owner = importlib.import_module(module_name)
                *holders, attribute = path.split(".")
                for holder in holders:
                    owner = getattr(owner, holder)
                original = getattr(owner, attribute)
                setattr(owner, attribute, self.wrap(name, original))
                undo.append((owner, attribute, original))
            yield self
        finally:
            for owner, attribute, original in reversed(undo):
                setattr(owner, attribute, original)

    # -- reading the spans back ----------------------------------------

    def durations_ms(self, name: str) -> list[float]:
        return [(end - start) / 1e6
                for span_name, start, end, _, _ in self.spans
                if span_name == name]

    def count(self, name: str) -> int:
        return sum(1 for span in self.spans if span[0] == name)

    def total_ms(self, name: str) -> float:
        return sum(self.durations_ms(name))

    def table(self) -> list[dict]:
        """Per span name: calls, total and self milliseconds."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for index, (_, start, end, parent, _) in enumerate(self.spans):
            if parent >= 0:
                own[parent] -= end - start
        rows: dict[str, dict] = defaultdict(
            lambda: {"calls": 0, "total_ms": 0.0, "self_ms": 0.0})
        for index, (name, start, end, _, _) in enumerate(self.spans):
            row = rows[name]
            row["calls"] += 1
            row["total_ms"] += (end - start) / 1e6
            row["self_ms"] += own[index] / 1e6
        return [{"span": name, "layer": name.split(":")[0], **row}
                for name, row in sorted(rows.items())]

    def dump(self, path) -> None:
        """One JSON array per line: name, start, end, parent, request."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span))
                handle.write("\n")


def span_of(tracer: Tracer | None, name: str):
    """``tracer.span(name)``, or a no-op context without a tracer -- so
    one code path serves the untraced and the traced pass."""
    return (tracer.span(name) if tracer is not None
            else contextlib.nullcontext())


def summarise(table: list[dict]) -> dict:
    """Collapse a span table into the per-layer split.

    ``traced_ms`` is the root spans' total (the traced end-to-end time),
    ``layers`` the self time per layer, ``covered_share`` the part of
    ``traced_ms`` that layer spans -- not the harness's own glue --
    account for.
    """
    layers: dict[str, float] = defaultdict(float)
    traced_ms = 0.0
    for row in table:
        layers[row["layer"]] += row["self_ms"]
        if row["layer"] == HARNESS:
            traced_ms += row["total_ms"]
    glue = layers.pop(HARNESS, 0.0)
    return {
        "traced_ms": traced_ms,
        "layers": dict(sorted(layers.items())),
        "unattributed_ms": glue,
        "covered_share": (1.0 - glue / traced_ms) if traced_ms else 0.0,
    }
