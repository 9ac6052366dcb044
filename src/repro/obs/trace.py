"""Hierarchical span tracing over monotonic clocks.

The tracer answers "where did this run's wall time go" at the
granularity the batch engine works in — per grid point, per
co-optimization phase, per shard — without ever entering the kernel's
inner assignment loop.  Three properties drive the design:

* **zero-overhead when disabled**: :func:`span` returns one shared
  no-op singleton when tracing is off (the default), so an
  instrumented hot path pays a single attribute check and no
  allocation.  The engine's perf benchmarks assert this stays true.
* **monotonic clocks only**: spans measure with
  :func:`time.monotonic`, the same clock the scoring paths are
  allowed to use (RPR001).  Telemetry never feeds a scored value —
  spans are recorded *around* the deterministic pipeline, not in it.
* **picklable records**: a finished span flattens into a frozen
  :class:`SpanRecord` tree of primitives, so pool workers ship their
  spans back to the parent through the existing result channel
  (:class:`TaskTelemetry` rides next to each worker's result).

Spans nest through a thread-local stack::

    with TRACER.span("co_optimize", soc="d695"):
        with TRACER.span("partition_sweep"):
            ...

Finished *root* spans collect on the tracer and are claimed with
:meth:`Tracer.drain` — typically once per job, by whoever assembles
that job's :class:`TaskTelemetry`.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from time import monotonic as _clock
from typing import Any, Dict, Iterator, List, Optional, Tuple, Union

from repro.obs.metrics import MetricsSnapshot

__all__ = [
    "SpanRecord",
    "TaskTelemetry",
    "Tracer",
    "TRACER",
    "span",
]

#: Span metadata as frozen, sorted pairs — hashable and picklable.
MetaPairs = Tuple[Tuple[str, Any], ...]


@dataclass(frozen=True)
class SpanRecord:
    """One finished span: a name, a duration, and its children.

    ``start_s`` is the span's start offset from its *root* span's
    start (0.0 for a root), so a span tree renders as a timeline
    without any absolute timestamp — wall-clock time deliberately
    never enters these records.  Frozen and built from primitives
    only: picklable across pool workers and JSON-serializable for the
    run warehouse.
    """

    name: str
    start_s: float
    elapsed_s: float
    meta: MetaPairs = ()
    children: Tuple["SpanRecord", ...] = ()

    def walk(self, prefix: str = "") -> Iterator[Tuple[str, "SpanRecord"]]:
        """Yield ``(path, record)`` over this span's subtree, pre-order.

        ``path`` joins span names with ``/`` — the key the warehouse
        and the phase-breakdown report aggregate on.
        """
        path = f"{prefix}/{self.name}" if prefix else self.name
        yield path, self
        for child in self.children:
            yield from child.walk(path)

    def to_dict(self) -> Dict[str, Any]:
        """Plain-data form (nested), for JSON transport."""
        record: Dict[str, Any] = {
            "name": self.name,
            "start_s": self.start_s,
            "elapsed_s": self.elapsed_s,
        }
        if self.meta:
            record["meta"] = dict(self.meta)
        if self.children:
            record["children"] = [
                child.to_dict() for child in self.children
            ]
        return record

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "SpanRecord":
        """Rebuild a record produced by :meth:`to_dict`."""
        return cls(
            name=str(data["name"]),
            start_s=float(data["start_s"]),
            elapsed_s=float(data["elapsed_s"]),
            meta=tuple(sorted(dict(data.get("meta", {})).items())),
            children=tuple(
                cls.from_dict(child)
                for child in data.get("children", [])
            ),
        )


@dataclass(frozen=True)
class TaskTelemetry:
    """What one unit of work reports back: spans plus a metrics delta.

    The picklable envelope pool workers attach to their results (and
    the inline path assembles in-process): the root spans the task
    produced and the task's :class:`~repro.obs.metrics.
    MetricsSnapshot` *delta* — counters and timers attributable to
    this task alone, ready to be absorbed into the parent's registry.
    """

    spans: Tuple[SpanRecord, ...] = ()
    metrics: MetricsSnapshot = field(default_factory=MetricsSnapshot)

    def to_dict(self) -> Dict[str, Any]:
        """Plain-data form, for event payloads and the warehouse."""
        return {
            "spans": [span.to_dict() for span in self.spans],
            "metrics": self.metrics.to_dict(),
        }


class _NoopSpan:
    """The shared do-nothing span handed out while tracing is off.

    A singleton (:data:`NOOP_SPAN`), so the disabled fast path
    allocates nothing — verified by identity in the obs tests and by
    the sweep-kernel benchmark's overhead assertion.
    """

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc_info: object) -> bool:
        return False

    def annotate(self, **meta: Any) -> None:
        """Accept and drop metadata, mirroring the live span."""


NOOP_SPAN = _NoopSpan()


class _LiveSpan:
    """An in-flight span; becomes a :class:`SpanRecord` on exit."""

    __slots__ = ("_tracer", "_name", "_meta", "_start", "_children")

    def __init__(
        self, tracer: "Tracer", name: str, meta: Dict[str, Any]
    ) -> None:
        self._tracer = tracer
        self._name = name
        self._meta = meta
        self._start = 0.0
        self._children: List[SpanRecord] = []

    def annotate(self, **meta: Any) -> None:
        """Attach metadata discovered mid-span (e.g. a result size)."""
        self._meta.update(meta)

    def __enter__(self) -> "_LiveSpan":
        self._tracer._stack().append(self)
        self._start = _clock()
        return self

    def __exit__(self, exc_type: Any, *exc_info: object) -> bool:
        elapsed = _clock() - self._start
        stack = self._tracer._stack()
        stack.pop()
        if exc_type is not None:
            self._meta.setdefault("error", exc_type.__name__)
        root_start = stack[0]._start if stack else self._start
        record = SpanRecord(
            name=self._name,
            start_s=self._start - root_start,
            elapsed_s=elapsed,
            meta=tuple(sorted(self._meta.items())),
            children=tuple(self._children),
        )
        if stack:
            stack[-1]._children.append(record)
        else:
            self._tracer._collect(record)
        return False


class Tracer:
    """A process-wide span collector with per-thread nesting.

    Disabled by default: :meth:`span` then returns
    :data:`NOOP_SPAN` and nothing is recorded.  Enabling is a single
    flag flip — the batch engine turns it on in pool workers when the
    parent's tracer is on (via the worker initializer), so one
    ``enable()`` in the parent traces the whole fleet.
    """

    def __init__(self, enabled: bool = False) -> None:
        self.enabled = enabled
        self._local = threading.local()
        self._lock = threading.Lock()
        self._roots: List[SpanRecord] = []

    def _stack(self) -> List[_LiveSpan]:
        stack: Optional[List[_LiveSpan]] = getattr(
            self._local, "stack", None
        )
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def _collect(self, record: SpanRecord) -> None:
        with self._lock:
            self._roots.append(record)

    def span(
        self, name: str, **meta: Any
    ) -> Union[_LiveSpan, _NoopSpan]:
        """A context manager timing ``name``; no-op when disabled."""
        if not self.enabled:
            return NOOP_SPAN
        return _LiveSpan(self, name, meta)

    def enable(self) -> None:
        """Start handing out live spans."""
        self.enabled = True

    def disable(self) -> None:
        """Back to the no-op fast path (collected spans remain)."""
        self.enabled = False

    def reset(self) -> None:
        """Drop every open and finished span of this process.

        A forked pool worker inherits the parent's open spans; without
        this its own spans would nest under them and never finish.
        """
        self._local = threading.local()
        self.drain()

    def drain(self) -> List[SpanRecord]:
        """Claim (and clear) every finished root span so far."""
        with self._lock:
            roots, self._roots = self._roots, []
        return roots


#: The process-wide tracer every instrumentation site records into.
TRACER = Tracer()


def span(name: str, **meta: Any) -> Union[_LiveSpan, _NoopSpan]:
    """Module-level shorthand for ``TRACER.span(...)``."""
    if not TRACER.enabled:
        return NOOP_SPAN
    return _LiveSpan(TRACER, name, meta)
