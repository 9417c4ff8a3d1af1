"""Span tracing for the benchmark's traced run, installed from outside ``src/``.

:class:`SpanStore` wraps the public entry point of each layer (class
methods and module functions) with a timing wrapper that records one span
per call: name, start, end, parent span, query id and the phase (set-up
or timed) it ran in.  Spans stay in memory until the run ends.  A span's
*self time* is its duration minus the part of that interval its child
spans cover, so nested layers are never counted twice.

Nothing here runs unless :func:`install_layer_spans` is called, and
:meth:`SpanStore.uninstall` restores every patched attribute.
"""

from __future__ import annotations

import threading
from collections import defaultdict
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    query_id: int | None = None
    phase: str = "setup"
    #: Set from the call's arguments or result (route taken, tasks run, ...).
    label: Any = None
    children: list[int] = field(default_factory=list)

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanStore:
    """In-memory span recorder with a per-thread parent stack."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.phase = "setup"
        self._query_seq = 0
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patched: list[tuple[Any, str, Any]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        *,
        root: bool = False,
        label: Callable[[tuple, dict, Any], Any] | None = None,
    ) -> None:
        """Replace ``owner.attr`` by a wrapper that records a span per call.

        ``root=True`` starts a new query id when the call is outermost.
        ``label(args, kwargs, result)`` annotates the span once it ends.
        """
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        store = self

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            stack = store._stack()
            parent = stack[-1] if stack else None
            with store._lock:
                if root and parent is None:
                    store._query_seq += 1
                    query_id = store._query_seq
                else:
                    query_id = store.spans[parent].query_id if parent is not None else None
                index = len(store.spans)
                span = Span(name, 0.0, parent=parent, query_id=query_id, phase=store.phase)
                store.spans.append(span)
                if parent is not None:
                    store.spans[parent].children.append(index)
            stack.append(index)
            result = None
            span.start = perf_counter()
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                span.end = perf_counter()
                stack.pop()
                if label is not None:
                    span.label = label(args, kwargs, result)

        wrapper.__wrapped__ = original  # type: ignore[attr-defined]
        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- derived figures ----------------------------------------------------------------

    def self_time(self, index: int) -> float:
        """Duration of span ``index`` minus the union of its children's intervals."""
        span = self.spans[index]
        intervals = sorted(
            (max(self.spans[c].start, span.start), min(self.spans[c].end, span.end))
            for c in span.children
        )
        covered, cursor = 0.0, span.start
        for start, end in intervals:
            start = max(start, cursor)
            if end > start:
                covered += end - start
                cursor = end
        return span.duration - covered

    def in_phase(self, phase: str) -> list[int]:
        return [i for i, span in enumerate(self.spans) if span.phase == phase]

    def totals(self, phase: str) -> dict[str, dict[str, float]]:
        """Per span name: calls, summed self seconds, summed outermost seconds."""
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "self_s": 0.0, "outer_s": 0.0}
        )
        for index in self.in_phase(phase):
            span = self.spans[index]
            entry = out[span.name]
            entry["calls"] += 1
            entry["self_s"] += self.self_time(index)
            if not self.has_ancestor(index, span.name):
                entry["outer_s"] += span.duration
        return out

    def has_ancestor(self, index: int, name: str) -> bool:
        parent = self.spans[index].parent
        while parent is not None:
            if self.spans[parent].name == name:
                return True
            parent = self.spans[parent].parent
        return False


def _operator_kind(cls: type) -> str:
    name = cls.__name__.lower()
    for kind in ("scan", "filter", "project", "aggregate", "join", "sort", "limit"):
        if kind in name:
            return kind
    return "scan" if name == "materializedinput" else name


def install_layer_spans(store: SpanStore) -> None:
    """Wrap the public entry point of every layer the benchmark reports on."""
    from repro.core.approx.engine import ApproximateQueryEngine
    from repro.core.harvester import ModelHarvester
    from repro.core.planner.feedback import ObservedErrorFeedback
    from repro.core.planner.planner import UnifiedPlanner
    from repro.core.storage.model_switching import ModelLifecycleManager
    from repro.core.system import LawsDatabase
    from repro.db import catalog as catalog_module
    from repro.db import snapshot as snapshot_module
    from repro.db.database import Database
    from repro.db.operators.base import Operator
    from repro.obs.calibration import CostCalibrator
    from repro.obs.flight import FlightRecorder
    from repro.obs.slo import SLOEngine
    from repro.obs.slowlog import SlowQueryLog
    from repro.parallel import engine as parallel_engine
    from repro.parallel.pool import WorkerPool
    from repro.persist.store import DurableStore
    from repro.streaming.ingest import StreamIngestor
    from repro.streaming.maintenance import ModelMaintenancePolicy

    wrap = store.wrap
    wrap(LawsDatabase, "query", "query", root=True)
    wrap(LawsDatabase, "fit", "fit")
    wrap(LawsDatabase, "maintain", "maintain")
    wrap(LawsDatabase, "checkpoint", "checkpoint")
    wrap(Database, "parse_sql", "sql.parse")
    wrap(Database, "stats", "stats")
    wrap(catalog_module, "compute_table_stats", "stats.recompute")
    wrap(snapshot_module, "compute_table_stats", "stats.recompute")
    wrap(UnifiedPlanner, "plan", "planner.plan")
    wrap(ApproximateQueryEngine, "sketch_route", "planner.sketch")
    wrap(
        ApproximateQueryEngine,
        "answer",
        "approx.answer",
        label=lambda args, kwargs, result: getattr(result, "route", None),
    )
    pending = [Operator]
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        if cls is not Operator and "execute" in cls.__dict__:
            wrap(cls, "execute", f"exact.op.{_operator_kind(cls)}")
    wrap(
        parallel_engine.ParallelQueryEngine,
        "try_execute",
        "parallel.try_execute",
        label=lambda args, kwargs, result: result is not None,
    )
    wrap(
        WorkerPool,
        "run_tasks",
        "parallel.run_tasks",
        label=lambda args, kwargs, result: len(result) if result is not None else 0,
    )
    wrap(
        parallel_engine,
        "prune_partitions",
        "parallel.prune",
        label=lambda args, kwargs, result: (len(result[0]), len(result[0]) + result[1]),
    )
    wrap(ObservedErrorFeedback, "verify", "verify")
    wrap(FlightRecorder, "on_query", "obs.flight.on_query")
    wrap(FlightRecorder, "flush", "obs.flight.flush")
    wrap(CostCalibrator, "observe_trace", "obs.calibration.observe")
    wrap(SLOEngine, "observe_query", "obs.slo.observe")
    wrap(SlowQueryLog, "observe", "obs.slowlog.observe")
    wrap(StreamIngestor, "submit", "ingest.submit")
    wrap(ModelLifecycleManager, "on_data_changed", "lifecycle.on_data_changed")
    wrap(ModelMaintenancePolicy, "on_batch", "drift.on_batch")
    wrap(DurableStore, "log_append", "wal.log_append")
    wrap(ModelHarvester, "fit_and_capture", "harvester.fit")
