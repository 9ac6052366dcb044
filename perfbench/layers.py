"""Layer wrappers for the benchmark: spans, solve logs, per-layer numbers.

The benchmark times the repository's layers from the outside.  Every
public layer call listed in :data:`LAYER_CALLS` is wrapped where its
callers resolve it: the wrapper replaces the function in *every*
``repro`` module namespace that holds it (``from x import f`` copies
the binding, so patching only the defining module would miss
``repro.optimize.co_optimize.exact_assign`` or
``repro.search.driver.exact_assign``), and methods are replaced on
their class.

Two wrappers use this patching:

* :class:`Recorder` (the traced run) keeps one :class:`Span` per call
  — name, layer, start, end, enclosing span on the same thread — in
  memory, plus the counts each layer returns (exact nodes and proof
  flags, partition-sweep stats, search evals);
* :class:`SolveLog` (every untraced pass) wraps
  only ``exact_assign`` and appends one JSON line per solve to a
  per-process file, so solves inside forked pool workers and inside
  a ``repro-tam serve`` subprocess are seen too.  A solve that ends
  by its node or time budget (``optimal=False``) is a failed
  operation, never a silent pass.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import os
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: (layer, module, attribute) of every timed public call.  A dotted
#: attribute is a method on a class of that module.
LAYER_CALLS: Tuple[Tuple[str, str, str], ...] = (
    ("soc", "repro.soc.loader", "load_source"),
    ("wrapper", "repro.wrapper.pareto", "build_time_tables"),
    ("wrapper", "repro.engine.cache", "WrapperTableCache.tables"),
    ("partition", "repro.partition.evaluate", "partition_evaluate"),
    ("assign", "repro.assign.exact", "exact_assign"),
    ("optimize", "repro.optimize.co_optimize", "co_optimize"),
    ("analysis", "repro.analysis.certificates", "certify"),
    ("analysis", "repro.analysis.utilization", "analyze_utilization"),
    ("search", "repro.search.driver", "search_optimize"),
    ("search", "repro.search.driver", "polish_candidates"),
    ("engine", "repro.engine.batch", "BatchRunner.run_iter"),
    ("service", "repro.service.client", "ServiceClient.submit"),
    ("service", "repro.service.client", "ServiceClient.wait"),
    ("service", "repro.service.client", "ServiceClient.result"),
)

#: Modules whose lazy imports must have happened before patching, so
#: that every binding of a wrapped function already exists.
PRELOAD = (
    "repro", "repro.cli", "repro.engine", "repro.search",
    "repro.service", "repro.analysis.sweep",
)


def _resolve(module: str, attribute: str) -> Tuple[Any, str, Any]:
    """(owner, name, original) of one layer call.

    ``importlib`` is used because ``import repro.optimize.co_optimize``
    as an expression yields the package attribute — the function of
    that name — not the module.
    """
    owner: Any = importlib.import_module(module)
    *path, name = attribute.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name, inspect.getattr_static(owner, name)


class Patches:
    """Replace functions at every binding; undo on :meth:`restore`."""

    def __init__(self) -> None:
        self._undo: List[Tuple[Any, str, Any]] = []

    def replace(
        self, module: str, attribute: str,
        make: Callable[[Callable[..., Any]], Callable[..., Any]],
    ) -> None:
        owner, name, original = _resolve(module, attribute)
        wrapper = make(original)
        if isinstance(owner, type):
            self._set(owner, name, wrapper)
            return
        for loaded in list(sys.modules.values()):
            module_name = getattr(loaded, "__name__", "")
            if module_name != "repro" and not module_name.startswith(
                "repro."
            ):
                continue
            for binding, value in list(vars(loaded).items()):
                if value is original:
                    self._set(loaded, binding, wrapper)

    def _set(self, owner: Any, name: str, value: Any) -> None:
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def restore(self) -> None:
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()


class _Installable:
    """``with`` support: install on entry, restore on exit."""

    def install(self) -> Any:
        raise NotImplementedError

    def restore(self) -> None:
        raise NotImplementedError

    def __enter__(self) -> Any:
        return self.install()

    def __exit__(self, *exc_info: object) -> None:
        self.restore()


def preload() -> None:
    """Import every module a layer call may be bound in."""
    for module in PRELOAD:
        importlib.import_module(module)


# ----------------------------------------------------------------------
# Solve log (timed runs)
# ----------------------------------------------------------------------

#: Environment variable naming the solve-log directory, so a server
#: subprocess started through ``serve.py`` logs into the same place.
SOLVE_LOG_ENV = "PERFBENCH_SOLVE_LOG"

def _exact_limits(
    signature: inspect.Signature, args: Tuple[Any, ...],
    kwargs: Dict[str, Any],
) -> Tuple[float, int]:
    """The (time_limit, node_limit) one ``exact_assign`` call ran with."""
    bound = signature.bind(*args, **kwargs)
    bound.apply_defaults()
    return (
        float(bound.arguments["time_limit"]),
        int(bound.arguments["node_limit"]),
    )


class SolveLog(_Installable):
    """Per-process JSON-lines log of every ``exact_assign`` outcome."""

    def __init__(self, directory: Path) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self._patches = Patches()

    def install(self) -> "SolveLog":
        preload()
        directory = self.directory

        def make(original: Callable[..., Any]) -> Callable[..., Any]:
            signature = inspect.signature(original)

            @functools.wraps(original)
            def logged(*args: Any, **kwargs: Any) -> Any:
                start = time.monotonic()
                result = original(*args, **kwargs)
                seconds = time.monotonic() - start
                time_limit, node_limit = _exact_limits(
                    signature, args, kwargs
                )
                line = json.dumps({
                    "optimal": bool(result.optimal),
                    "nodes": int(result.nodes_explored),
                    "seconds": seconds,
                    "time_limit": time_limit,
                    "node_limit": node_limit,
                    "T": int(result.result.testing_time),
                })
                path = directory / f"solves-{os.getpid()}.jsonl"
                with open(path, "a", encoding="utf-8") as handle:
                    handle.write(line + "\n")
                return result
            return logged

        self._patches.replace("repro.assign.exact", "exact_assign", make)
        return self

    def restore(self) -> None:
        self._patches.restore()

    def drain(self) -> List[Dict[str, Any]]:
        """Every solve logged so far (all processes); clears the log."""
        solves: List[Dict[str, Any]] = []
        for path in sorted(self.directory.glob("solves-*.jsonl")):
            for line in path.read_text(encoding="utf-8").splitlines():
                if line.strip():
                    solves.append(json.loads(line))
            path.unlink()
        return solves


def install_from_env() -> Optional[SolveLog]:
    """Install a :class:`SolveLog` when :data:`SOLVE_LOG_ENV` is set."""
    directory = os.environ.get(SOLVE_LOG_ENV)
    if not directory:
        return None
    return SolveLog(Path(directory)).install()


# ----------------------------------------------------------------------
# Spans (traced runs)
# ----------------------------------------------------------------------


@dataclass
class Span:
    """One wrapped layer call."""

    ident: int
    parent: Optional[int]
    layer: str
    name: str
    start: float
    end: float = 0.0
    counts: Dict[str, Any] = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _counts(name: str, result: Any, limits: Any) -> Dict[str, Any]:
    """Counts a layer call returns, recorded on its span."""
    if name == "exact_assign":
        time_limit, node_limit = limits
        return {
            "nodes": result.nodes_explored,
            "optimal": result.optimal,
            "time_limit": time_limit,
            "node_limit": node_limit,
        }
    if name == "partition_evaluate":
        return {
            "enumerated": sum(s.num_enumerated for s in result.stats),
            "completed": sum(s.num_completed for s in result.stats),
            "lb_pruned": sum(s.num_lb_pruned for s in result.stats),
        }
    if name == "search_optimize":
        return {"evals": result.certificate.evals}
    return {}


class Recorder(_Installable):
    """In-memory span recorder over every call in :data:`LAYER_CALLS`."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._ids = itertools.count()
        self._patches = Patches()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, layer: str, name: str) -> Span:
        stack = self._stack()
        with self._lock:
            span = Span(
                ident=next(self._ids),
                parent=stack[-1] if stack else None,
                layer=layer, name=name,
                start=time.monotonic(),
            )
            self.spans.append(span)
        stack.append(span.ident)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.monotonic()
        self._stack().pop()

    def clear(self) -> None:
        """Drop the spans recorded so far (e.g. those of a warm-up)."""
        with self._lock:
            self.spans = []

    def install(self) -> "Recorder":
        preload()
        for layer, module, attribute in LAYER_CALLS:
            name = attribute.rsplit(".", 1)[-1]
            if attribute == "BatchRunner.run_iter":
                maker = self._generator_wrapper(layer, "run")
            else:
                maker = self._call_wrapper(layer, name)
            self._patches.replace(module, attribute, maker)
        return self

    def restore(self) -> None:
        self._patches.restore()

    def _call_wrapper(
        self, layer: str, name: str
    ) -> Callable[[Callable[..., Any]], Callable[..., Any]]:
        def make(original: Callable[..., Any]) -> Callable[..., Any]:
            signature = inspect.signature(original)

            @functools.wraps(original)
            def traced(*args: Any, **kwargs: Any) -> Any:
                span = self._open(layer, name)
                try:
                    result = original(*args, **kwargs)
                finally:
                    self._close(span)
                limits = (
                    _exact_limits(signature, args, kwargs)
                    if name == "exact_assign" else None
                )
                span.counts = _counts(name, result, limits)
                return result
            return traced
        return make

    def _generator_wrapper(
        self, layer: str, name: str
    ) -> Callable[[Callable[..., Any]], Callable[..., Any]]:
        """Span over a generator: from the first ``next`` to the last.

        The span is on this thread's stack only while the generator
        runs, so layer calls the consumer makes between items are not
        parented to it (its duration still spans those gaps).
        """
        def make(original: Callable[..., Any]) -> Callable[..., Any]:
            @functools.wraps(original)
            def traced(*args: Any, **kwargs: Any) -> Iterator[Any]:
                inner = original(*args, **kwargs)
                span: Optional[Span] = None
                stack = self._stack()
                while True:
                    if span is None:
                        span = self._open(layer, name)
                    else:
                        stack.append(span.ident)
                    try:
                        item = next(inner)
                    except StopIteration:
                        self._close(span)
                        return
                    except BaseException:
                        self._close(span)
                        raise
                    span.end = time.monotonic()
                    stack.pop()
                    try:
                        yield item
                    except GeneratorExit:
                        inner.close()
                        raise
            return traced
        return make


# ----------------------------------------------------------------------
# Per-layer numbers
# ----------------------------------------------------------------------


def _ancestors(span: Span, by_id: Dict[int, Span]) -> Iterator[Span]:
    """The recorded ancestors of ``span``, innermost first."""
    parent = by_id.get(span.parent) if span.parent is not None else None
    while parent is not None:
        yield parent
        parent = by_id.get(parent.parent) if parent.parent is not None \
            else None


def _outermost(spans: List[Span], layer: str) -> List[Span]:
    """Spans of ``layer`` with no ancestor of the same layer."""
    by_id = {span.ident: span for span in spans}
    return [
        span for span in spans
        if span.layer == layer and not any(
            ancestor.layer == layer
            for ancestor in _ancestors(span, by_id)
        )
    ]


def self_seconds(spans: List[Span]) -> Dict[int, float]:
    """Each span's duration minus its child spans' durations."""
    own = {span.ident: span.seconds for span in spans}
    for span in spans:
        if span.parent in own:
            own[span.parent] -= span.seconds
    return own


def covered_seconds(spans: List[Span], start: float, end: float) -> float:
    """Length of the union of all span intervals inside [start, end]."""
    intervals = sorted(
        (max(span.start, start), min(span.end, end)) for span in spans
    )
    covered = 0.0
    cursor = start
    for low, high in intervals:
        low = max(low, cursor)
        if high > low:
            covered += high - low
            cursor = high
    return covered


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator > 0 else 0.0


def layer_metrics(spans: List[Span]) -> Dict[str, float]:
    """The per-layer numbers of one traced pass."""
    own = self_seconds(spans)

    def total(layer: str) -> float:
        return sum(span.seconds for span in _outermost(spans, layer))

    def named(name: str) -> List[Span]:
        return [span for span in spans if span.name == name]

    by_id = {span.ident: span for span in spans}
    exacts = named("exact_assign")
    exact_s = total("assign")
    nodes = sum(span.counts["nodes"] for span in exacts)
    headroom = min(
        (
            span.counts["time_limit"] / span.seconds
            for span in exacts if span.seconds > 0
        ),
        default=0.0,
    )
    sweeps = named("partition_evaluate")
    enumerated = sum(span.counts["enumerated"] for span in sweeps)
    completed = sum(span.counts["completed"] for span in sweeps)
    searches = named("search_optimize")
    evals = sum(span.counts["evals"] for span in searches)
    search_self = sum(own[span.ident] for span in searches)
    polishes = [
        span for span in exacts
        if any(
            ancestor.name == "polish_candidates"
            for ancestor in _ancestors(span, by_id)
        )
    ]
    return {
        "assign.exact_s": exact_s,
        "assign.exact_calls": len(exacts),
        "assign.nodes": nodes,
        "assign.nodes_per_s": _ratio(nodes, exact_s),
        "assign.proven_frac": _ratio(
            sum(1 for span in exacts if span.counts["optimal"]),
            len(exacts),
        ),
        "assign.exact_max_s": max(
            (span.seconds for span in exacts), default=0.0
        ),
        "assign.guard_headroom": headroom,
        "partition.sweep_s": total("partition"),
        "partition.sweep_calls": len(sweeps),
        "partition.enumerated": enumerated,
        "partition.completed": completed,
        "partition.lb_pruned": sum(
            span.counts["lb_pruned"] for span in sweeps
        ),
        "partition.completed_frac": _ratio(completed, enumerated),
        "wrapper.tables_s": total("wrapper"),
        "wrapper.tables_calls": len(_outermost(spans, "wrapper")),
        "soc.load_s": total("soc"),
        "optimize.self_s": sum(
            own[span.ident] for span in named("co_optimize")
        ),
        "analysis.certify_s": sum(span.seconds for span in named("certify")),
        "analysis.utilization_s": sum(
            span.seconds for span in named("analyze_utilization")
        ),
        "search.self_s": search_self,
        "search.evals": evals,
        "search.evals_per_s": _ratio(evals, search_self),
        "search.polish_s": sum(
            span.seconds for span in named("polish_candidates")
        ),
        "search.polish_calls": len(polishes),
        "search.polish_nodes": sum(
            span.counts["nodes"] for span in polishes
        ),
        "engine.run_s": total("engine"),
        "service.submit_s": sum(span.seconds for span in named("submit")),
        "service.wait_s": sum(span.seconds for span in named("wait")),
        "service.result_s": sum(span.seconds for span in named("result")),
    }
