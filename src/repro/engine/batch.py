"""Parallel batch execution of (SOC, W, B) optimization jobs.

A design-space sweep is embarrassingly parallel across its points,
but a naive pool would re-run ``Design_wrapper`` per point.  The
:class:`BatchRunner` keeps the sharing and adds the parallelism:

* **inline mode** (``max_workers=1``, the default for the sequential
  sweeps in :mod:`repro.analysis.sweep`): jobs run in the calling
  process against runner-owned :class:`~repro.engine.cache.
  WrapperTableCache` s, one per SOC, so a width sweep pays at most
  one wrapper design per (core, width) pair in total;
* **pool mode** (``max_workers > 1`` or ``None`` = one per CPU):
  jobs fan out over a ``concurrent.futures`` process pool.  The
  parent builds each SOC's dense time matrix once, at the widest
  width any job needs, and every task of that SOC carries it by
  value (:class:`~repro.engine.shm.DenseDescriptor`), with the
  wrapper-design staircases for whole-point tasks; workers unpack it
  once per process and never run ``Design_wrapper`` for a point.
  The matrices of a *cold* grid over several SOCs are built through
  the pool, one task per SOC, into each worker's own table cache.

Three orthogonal options extend the engine for service use:

* ``cache_dir`` backs every cache (inline and per-worker) with a
  persistent :class:`repro.service.store.TableStore`, so table
  builds are skipped entirely once the store is warm — across
  processes *and* across runs;
* ``on_error="record"`` turns a failing grid point into a structured
  :class:`FailedPoint` in the result list instead of aborting the
  whole grid, with ``retries`` transient-failure attempts first;
* ``persistent=True`` keeps the process pool alive across
  :meth:`BatchRunner.run` calls (close with :meth:`BatchRunner.
  close` or a ``with`` block) — the resident-worker mode the
  exploration service (:mod:`repro.service.server`) is built on.

All pool work has one shape: a picklable :class:`Task` (a
module-level function and its payload) run by the one entry point
:func:`_run_task`, which applies the ``REPRO_FAULTS`` hooks and
brackets the task's telemetry.  A grid point is one task.  A sharded
or island-fanned point runs in the parent instead and spreads its
shard, island and polish tasks over the pool through
:meth:`BatchRunner._gather`, which re-runs a failed task alone.
:func:`_with_policy` applies the job-level ``retries``/``on_error``
policy to every point, and one windowed loop dispatches the points
in order, each under its deadline (DESIGN.md §13).

Results come back as :class:`~repro.analysis.sweep.SweepPoint`
records in job order, and are identical to a sequential run — the
optimizer is deterministic and the tables a cache hands out match a
fresh build exactly.
"""

from __future__ import annotations

import logging
import os
from collections import deque
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures import TimeoutError as _FuturesTimeout
from time import monotonic as _os_clock
from time import sleep as _sleep
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from itertools import islice
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Deque,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
    Union,
)

from repro.analysis.sweep import SweepPoint, evaluate_point
from repro.api.specs import resolved_tam_counts
from repro.engine.cache import WrapperTableCache
from repro.engine.faults import FaultPlan
from repro.engine.kernel import (
    DenseTimeMatrix,
    build_dense_matrix,
    dense_time_tables,
)
from repro.engine.shm import (
    BoardDescriptor,
    DenseDescriptor,
    IncumbentBoard,
    attach,
    attach_design_steps,
    design_steps_blob,
    parse_design_steps,
)
from repro.exceptions import ConfigurationError, DeadlineError
from repro.obs import (
    REGISTRY,
    TRACER,
    MetricsRegistry,
    MetricsSnapshot,
    SpanRecord,
    TaskTelemetry,
    span,
    task_begin,
    task_end,
)
from repro.partition.evaluate import (
    PartitionSearchResult,
    partition_evaluate,
)
from repro.partition.shard import (
    ShardOutcome,
    ShardPlan,
    ShardSpan,
    count_sizes,
    sharded_partition_evaluate,
    sweep_shard,
)
from repro.retry import backoff_schedule
from repro.soc.fingerprint import soc_fingerprint
from repro.soc.soc import Soc
from repro.wrapper.pareto import TimeTable

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.api.specs import GridSpec, OptimizeSpec
    from repro.service.store import TableStore

logger = logging.getLogger(__name__)

#: Valid ``on_error`` policies: abort the grid on the first failing
#: point, or record it as a :class:`FailedPoint` and keep going.
ON_ERROR_POLICIES: Tuple[str, ...] = ("raise", "record")

_R = TypeVar("_R")


@dataclass(frozen=True)
class BatchJob:
    """One optimization job: a SOC, a TAM budget, and TAM count(s).

    ``num_tams`` follows :func:`repro.optimize.co_optimize.co_optimize`:
    a single count (P_PAW), a tuple of counts, or ``None`` for the
    paper's P_NPAW default.  Iterables are frozen to tuples so jobs
    are immutable and picklable for the process pool.

    ``options`` holds extra keyword arguments forwarded to
    ``co_optimize`` (e.g. ``polish``, ``polish_top_k``,
    ``exact_time_limit``); a mapping is frozen to sorted items.  Note
    that ``exact_time_limit`` is a *wall-clock* budget: a solve that
    hits it under CPU contention returns its incumbent, so strictly
    load-independent results require budgets generous enough that
    solves finish by node exhaustion or optimality proof.
    """

    soc: Soc
    total_width: int
    num_tams: Union[int, Tuple[int, ...], None] = None
    options: Tuple[Tuple[str, Any], ...] = ()

    def __post_init__(self) -> None:
        if self.total_width < 1:
            raise ConfigurationError(
                f"total_width must be >= 1, got {self.total_width}"
            )
        if self.num_tams is not None and not isinstance(self.num_tams, int):
            object.__setattr__(self, "num_tams", tuple(self.num_tams))
        if isinstance(self.options, Mapping):
            object.__setattr__(
                self, "options", tuple(sorted(self.options.items()))
            )
        else:
            object.__setattr__(self, "options", tuple(self.options))

    def options_dict(self) -> Dict[str, Any]:
        """The frozen ``options`` pairs as keyword arguments."""
        return dict(self.options)

    @classmethod
    def from_spec(cls, soc: Soc, spec: "OptimizeSpec") -> "BatchJob":
        """The engine job a typed :class:`repro.api.OptimizeSpec` means.

        Options are carried *sparse* (non-defaults only, via
        :meth:`~repro.api.specs.OptimizeSpec.engine_options`) so the
        engine's own defaulting — e.g. ``evaluate_point`` switching
        an unspecified ``prune`` to the outcome-identical ``"lb"`` —
        still applies, exactly as for a hand-built job.
        """
        return cls(
            soc=soc,
            total_width=spec.total_width,
            num_tams=spec.num_tams,
            options=spec.engine_options(),
        )

    def spec(self) -> "OptimizeSpec":
        """This job's configuration as a typed ``OptimizeSpec``.

        Raises :class:`~repro.exceptions.ConfigurationError` when the
        job carries option keys the canonical spec does not know —
        the drift guard that makes every supported option exist in
        one place (:data:`repro.api.specs.OPTION_DEFAULTS`).
        """
        from repro.api.specs import OptimizeSpec

        return OptimizeSpec.from_options(
            self.total_width,
            num_tams=self.num_tams,
            options=self.options_dict(),
        )

    def describe(self) -> str:
        """Short ``soc W=.. B=..`` label for logs and progress lines."""
        if self.num_tams is None:
            counts = "B=auto"
        elif isinstance(self.num_tams, int):
            counts = f"B={self.num_tams}"
        else:
            counts = f"B in {list(self.num_tams)}"
        return f"{self.soc.name} W={self.total_width} {counts}"


@dataclass(frozen=True)
class FailedPoint:
    """A grid point that raised instead of producing a result.

    Returned in place of a :class:`~repro.analysis.sweep.SweepPoint`
    when the runner's ``on_error`` policy is ``"record"``: the grid
    completes, and failures stay attributable — which job, which
    exception, after how many attempts.  Picklable, so pool workers
    can ship it back like any result.
    """

    job: BatchJob
    error_type: str
    error_message: str
    attempts: int

    @classmethod
    def from_error(
        cls, job: BatchJob, error: BaseException, attempts: int
    ) -> "FailedPoint":
        """The record of ``job`` failing with ``error``."""
        return cls(job, type(error).__name__, str(error), attempts)

    @property
    def total_width(self) -> int:
        """The failed job's TAM budget, mirroring ``SweepPoint``."""
        return self.job.total_width

    def describe(self) -> str:
        """One-line ``job: error`` summary for logs and reports."""
        retried = (
            f" after {self.attempts} attempts" if self.attempts > 1 else ""
        )
        return (
            f"{self.job.describe()}: {self.error_type}: "
            f"{self.error_message}{retried}"
        )


#: What a batch returns per job: a result or a recorded failure.
BatchResult = Union[SweepPoint, FailedPoint]


def normalize_shard_policy(
    value: Union[int, str, None]
) -> Union[int, str, None]:
    """Validate a shard policy (runner default, CLI flag, or hint).

    Accepts ``None`` (defer to the runner), ``"auto"``, or a shard
    count >= 0; anything else — including the untrusted ``runner``
    mapping of a submitted :class:`~repro.api.specs.GridSpec` —
    raises :class:`~repro.exceptions.ConfigurationError` instead of
    silently degrading the grid or crashing a worker.
    """
    if value is None or value == "auto":
        return value
    if isinstance(value, int) and not isinstance(value, bool) \
            and value >= 0:
        return value
    raise ConfigurationError(
        f'shard must be "auto", a count >= 0, or None; got {value!r}'
    )


def normalize_point_timeout(
    value: Union[int, float, None]
) -> Optional[float]:
    """Validate a per-point deadline (runner default, CLI, or hint).

    Accepts ``None`` (no deadline) or a positive number of seconds;
    anything else — including the untrusted ``runner`` mapping of a
    submitted :class:`~repro.api.specs.GridSpec` — raises
    :class:`~repro.exceptions.ConfigurationError`.  Like ``shard``,
    the deadline is pure execution strategy: excluded from every
    canonical job key.
    """
    if value is None:
        return None
    if (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and value > 0
    ):
        return float(value)
    raise ConfigurationError(
        "point_timeout must be a positive number of seconds or "
        f"None; got {value!r}"
    )


def normalize_max_concurrent(
    value: Union[int, None]
) -> Optional[int]:
    """Validate a concurrent-point ceiling (quota or runner hint).

    Accepts ``None`` (uncapped) or an int >= 1 — the most grid
    points of one job kept in flight on the pool at once, the
    fairness knob a multi-tenant server derives from the client's
    ``max_concurrent_points`` quota.  Pure execution strategy:
    excluded from every canonical job key, results bit-identical at
    any setting.
    """
    if value is None:
        return None
    if isinstance(value, int) and not isinstance(value, bool) \
            and value >= 1:
        return value
    raise ConfigurationError(
        f"max_concurrent must be an int >= 1 or None; got {value!r}"
    )


def split_results(
    results: Iterable[BatchResult],
) -> Tuple[List[SweepPoint], List[FailedPoint]]:
    """Partition mixed batch results into (points, failures)."""
    points: List[SweepPoint] = []
    failures: List[FailedPoint] = []
    for result in results:
        if isinstance(result, FailedPoint):
            failures.append(result)
        else:
            points.append(result)
    return points, failures


def align_point_telemetry(
    results: Sequence[BatchResult],
    telemetry: Sequence[Optional[TaskTelemetry]],
) -> List[Optional[TaskTelemetry]]:
    """Per-job telemetry re-aligned with a serialized grid's points.

    :func:`repro.service.server.grid_payload` keeps successful points
    (in job order) separate from failures; the warehouse stores
    telemetry per *point*, so failed jobs' slots are dropped here.
    """
    return [
        entry for result, entry in zip(results, telemetry)
        if not isinstance(result, FailedPoint)
    ]


@dataclass
class _Worker:
    """What a task body runs against: table caches, store, policy.

    Every pool worker holds one, installed by :func:`_init_worker`;
    inline mode builds one over the runner's own caches.  ``faults``
    is the ``REPRO_FAULTS`` plan (``None``, the only production
    value, makes every fault hook a no-op), and ``in_pool`` keeps
    crash faults (``os._exit``) from ever firing in the parent.
    """

    caches: Dict[str, WrapperTableCache] = field(default_factory=dict)
    store: "Optional[TableStore]" = None
    faults: Optional[FaultPlan] = None
    on_error: str = "raise"
    retries: int = 0
    in_pool: bool = False


#: This process's worker state.  Each worker builds tables for a SOC
#: at most once (extending in place when a wider job arrives).
_WORKER = _Worker()


def _make_store(cache_dir: Union[str, Path, None]) -> "Optional[TableStore]":
    """A :class:`TableStore` on ``cache_dir``, or ``None``."""
    if cache_dir is None:
        return None
    # Imported lazily: repro.service builds on this module.
    from repro.service.store import TableStore

    return TableStore(cache_dir)


def _init_worker(
    on_error: str,
    retries: int,
    cache_dir: Union[str, None],
    trace: bool = False,
    faults: Optional[str] = None,
) -> None:
    """Pool initializer: install the runner's policy in this worker.

    ``trace`` mirrors the parent tracer's state at pool start, so one
    ``TRACER.enable()`` in the parent traces the whole fleet — each
    worker's spans ride home in its :class:`TaskTelemetry`.  A worker
    forked inside a parent span (the cold builds run under
    ``publish_tables``) starts from an empty span stack.
    ``faults`` is the parent's ``REPRO_FAULTS`` plan text at pool
    start (normally ``None``), re-parsed here so every worker shares
    the same deterministic chaos plan.
    """
    global _WORKER
    _WORKER = _Worker(
        store=_make_store(cache_dir),
        faults=FaultPlan.parse(faults) if faults else None,
        on_error=on_error,
        retries=retries,
        in_pool=True,
    )
    TRACER.reset()
    if trace:
        TRACER.enable()


def _cache_for(
    caches: Dict[str, WrapperTableCache],
    soc: Soc,
    store: "Optional[TableStore]" = None,
) -> WrapperTableCache:
    """The cache for ``soc`` in ``caches``, created or replaced as needed."""
    cache = caches.get(soc.name)
    if cache is None or cache.soc != soc:
        cache = WrapperTableCache(soc, store=store)
        caches[soc.name] = cache
    return cache


@dataclass(frozen=True)
class Task:
    """One unit of pool work: a module-level function and its payload.

    ``fn(payload, worker, fault_key)`` returns the task's value.
    ``fault_key`` is the index the ``REPRO_FAULTS`` crash, slow and
    shm hooks key on — the grid point, shard or island index — and
    ``None`` for the unhooked polish and build tasks.  Picklable:
    ``fn`` is module-level (lint rule RPR003), the payload plain data.
    """

    fn: Callable[[Any, _Worker, Optional[int]], Any]
    payload: Any
    fault_key: Optional[int] = None


def _run_task(
    task: Task, worker: Optional[_Worker] = None
) -> Tuple[Any, TaskTelemetry]:
    """The one pool entry point: fault hooks, telemetry, the body.

    Returns ``(value, telemetry)``; the telemetry (the
    task's spans plus this process's metrics delta) rides home with
    the value, so the parent's registry covers the whole fleet.
    ``worker`` defaults to this process's pool-worker state; inline
    mode passes its own.
    """
    if worker is None:
        worker = _WORKER
    key = task.fault_key
    faults = worker.faults if key is not None else None
    if faults is not None and worker.in_pool and faults.take_crash(key):
        # Injected worker death: surfaces in the parent as a
        # BrokenProcessPool, exercising the pool-rebuild recovery.
        os._exit(1)
    baseline = task_begin()
    delay = faults.slow_delay(key) if faults is not None else None
    if delay:
        _sleep(delay)  # injected stall; delay comes from the plan
    value = task.fn(task.payload, worker, key)
    return value, task_end(baseline)


def _with_policy(
    job: BatchJob,
    on_error: str,
    retries: int,
    attempt: Callable[[], _R],
) -> Union[_R, FailedPoint]:
    """``attempt()`` under the job failure policy.

    ``retries`` extra attempts, then a :class:`FailedPoint` under
    ``on_error="record"`` or the error itself.  A broken pool and a
    missed deadline are not the job's failure: they propagate to the
    dispatcher untouched.  Inline, pooled and fanned points all run
    through here.
    """
    attempts = retries + 1
    for count in range(1, attempts + 1):
        try:
            return attempt()
        except (BrokenProcessPool, DeadlineError):
            raise
        except Exception as error:  # noqa: BLE001 - policy boundary
            if count < attempts:
                logger.warning(
                    "job %s failed (attempt %d/%d), retrying: %s",
                    job.describe(), count, attempts, error,
                )
                continue
            if on_error == "record":
                logger.error(
                    "job %s failed permanently: %s: %s",
                    job.describe(), type(error).__name__, error,
                )
                return FailedPoint.from_error(job, error, count)
            raise
    raise AssertionError("unreachable")  # pragma: no cover


def _unpack(
    descriptor: DenseDescriptor, soc: Soc, total_width: int
) -> DenseTimeMatrix:
    """The task's dense matrix, checked against the task's SOC.

    The parent builds every descriptor from the very job it ships
    with, so a mismatch is an engine bug: it raises rather than
    serve a wrong matrix.
    """
    if (
        descriptor.total_width < total_width
        or descriptor.num_cores != len(soc.cores)
        or descriptor.fingerprint != soc_fingerprint(soc)
    ):
        raise RuntimeError(
            f"dense descriptor {descriptor.fingerprint} "
            f"({descriptor.num_cores}x{descriptor.total_width}) does "
            f"not serve {soc.name} at W={total_width}"
        )
    return attach(descriptor)


def _attach_board(
    descriptor: Optional[BoardDescriptor],
    worker: _Worker,
    key: Optional[int],
) -> Optional[IncumbentBoard]:
    """The task's incumbent board, or ``None`` to run without one.

    A ``shm@`` fault refuses the attach.  A board that could not be
    had counts one ``engine.shm_fallbacks``; running without it
    loosens pruning but cannot change the task's outcome.
    """
    if descriptor is None:
        return None
    refused = (
        worker.faults is not None
        and key is not None
        and worker.faults.take_shm_failure(key)
    )
    board = None if refused else IncumbentBoard.attach(descriptor)
    if board is None:
        logger.warning("task %s: incumbent board unavailable", key)
        REGISTRY.counter("engine.shm_fallbacks").inc()
    return board


def _evaluate_job(
    job: BatchJob,
    descriptor: Optional[DenseDescriptor],
    worker: _Worker,
) -> SweepPoint:
    """Evaluate one job.

    Inline mode (no descriptor) reads the worker's table caches.  In
    a pool worker the job builds *no* wrapper tables at all: the
    sweep reads the matrix the task carries, and the designs the
    final utilization accounting needs are decoded from the carried
    staircases (or, absent those, recovered on demand per bus width).
    """
    if descriptor is None:
        cache = _cache_for(worker.caches, job.soc, store=worker.store)
        tables: Mapping[str, Any] = cache.tables(job.total_width)
        matrix = None
    else:
        matrix = _unpack(descriptor, job.soc, job.total_width)
        tables = dense_time_tables(
            job.soc.cores, matrix,
            design_steps=attach_design_steps(descriptor),
        )
    return evaluate_point(
        job.soc,
        job.total_width,
        num_tams=job.num_tams,
        tables=tables,
        dense=matrix,
        **job.options_dict(),
    )


def _point_task(
    payload: Tuple[BatchJob, Optional[DenseDescriptor]],
    worker: _Worker,
    key: Optional[int],
) -> BatchResult:
    """Task body: one whole grid point under the worker's policy."""
    job, descriptor = payload
    return _with_policy(
        job, worker.on_error, worker.retries,
        lambda: _evaluate_job(job, descriptor, worker),
    )


def _shard_task(
    payload: Tuple[
        DenseDescriptor, Optional[BoardDescriptor], int,
        Tuple[ShardSpan, ...], Soc, int, int, Optional[int],
        Union[bool, str],
    ],
    worker: _Worker,
    key: Optional[int],
) -> ShardOutcome:
    """Task body: score one shard of a sharded partition sweep.

    Reads the job's dense matrix and the sweep's incumbent board,
    scores the shard's rank ranges, and ships the recorded
    completions back for the parent-side deterministic merge.
    """
    (descriptor, board_descriptor, shard_index, spans, soc,
     total_width, keep_top, initial_best, prune) = payload
    matrix = _unpack(descriptor, soc, total_width)
    board = _attach_board(board_descriptor, worker, key)
    try:
        with span(
            "shard_sweep", soc=soc.name, shard=shard_index
        ) as shard_span:
            outcome = sweep_shard(
                matrix, spans, shard_index, total_width,
                keep_top=keep_top, initial_best=initial_best,
                prune=prune, board=board,
            )
            shard_span.annotate(completions=len(outcome.completions))
    finally:
        if board is not None:
            board.close()
    REGISTRY.counter("shard.shards_run").inc()
    return outcome


def _island_task(
    payload: Tuple[
        DenseDescriptor, Optional[BoardDescriptor], Any, Soc, int
    ],
    worker: _Worker,
    key: Optional[int],
) -> Any:
    """Task body: run one island of a ``mode="search"`` point.

    Reads the job's dense matrix, runs the island to budget
    exhaustion, and ships its :class:`~repro.search.IslandResult`
    back for the parent-side deterministic merge.  Publication to the
    incumbent board is write-only — the island never reads other
    islands' incumbents — so the result is bit-identical to inline
    execution.
    """
    # Imported lazily: repro.search builds on repro.engine.kernel,
    # whose package import lands back in this module.
    from repro.search.driver import run_island

    descriptor, board_descriptor, plan, soc, total_width = payload
    matrix = _unpack(descriptor, soc, total_width)
    board = _attach_board(board_descriptor, worker, key)
    publish = None
    if board is not None:
        def publish(
            time: int, _board: IncumbentBoard = board,
            _slot: int = plan.island_index,
        ) -> None:
            _board.publish(_slot, (time,))
    try:
        with span(
            "search_island", soc=soc.name, island=plan.island_index,
            strategy=plan.strategy,
        ) as island_span:
            result = run_island(matrix, plan, publish=publish)
            island_span.annotate(evals=result.evals)
    finally:
        if board is not None:
            board.close()
    REGISTRY.counter("search.islands_run").inc()
    return result


def _polish_task(
    payload: Any, worker: _Worker, key: Optional[int]
) -> Any:
    """Task body: one exact-polish candidate.

    Executes one :data:`repro.optimize.co_optimize.PolishTask` — an
    independent exact ``P_AW`` solve.  The parent reduces the returned
    :class:`~repro.assign.exact.ExactResult` s in candidate order,
    which is exactly the serial loop's reduction.
    """
    from repro.optimize.co_optimize import run_polish_task

    with span("polish_candidate", widths=str(payload[1].widths)):
        exact = run_polish_task(payload)
    REGISTRY.counter("engine.polish_tasks_run").inc()
    return exact


def _build_task(
    payload: Tuple[Soc, int], worker: _Worker, key: Optional[int]
) -> Tuple[bytes, bytes]:
    """Task body: build one cold SOC's dense matrix + staircases.

    Runs the wrapper designs through this worker's (store-backed)
    cache, so the build also warms it, and returns the matrix bytes
    and the serialized design staircases for the parent to ship.
    """
    soc, total_width = payload
    with span("build_tables", soc=soc.name, W=total_width):
        cache = _cache_for(worker.caches, soc, store=worker.store)
        tables = cache.table_list(total_width)
        matrix = build_dense_matrix(tables, total_width)
    return matrix.to_bytes(), design_steps_blob(tables)


def _await(future: "Future[Any]", deadline: Optional[float]) -> Any:
    """``future.result()``, or :class:`DeadlineError` at ``deadline``.

    ``deadline`` is an absolute ``monotonic`` time; a result already
    in hand is returned even when it has passed.
    """
    if deadline is None:
        return future.result()
    try:
        return future.result(timeout=max(0.0, deadline - _os_clock()))
    except _FuturesTimeout:
        raise DeadlineError("wall-clock deadline passed") from None


@contextmanager
def _incumbent_board(
    slots: int, keep_top: int, enabled: bool = True
) -> Iterator[Optional[BoardDescriptor]]:
    """A parent-owned incumbent board's descriptor, freed on exit.

    Yields ``None`` when disabled or when shared memory is
    unavailable; the tasks then run without one.  A board that could
    not be created counts one ``engine.shm_fallbacks``.
    """
    board = IncumbentBoard.create(slots, keep_top) if enabled else None
    if enabled and board is None:
        logger.warning("incumbent board could not be created")
        REGISTRY.counter("engine.shm_fallbacks").inc()
    try:
        yield board.descriptor() if board is not None else None
    finally:
        if board is not None:
            board.close()


def _merge_task_telemetry(
    parent: TaskTelemetry, tasks: Sequence[TaskTelemetry]
) -> TaskTelemetry:
    """One fanned point's telemetry from its parent and task parts.

    A fanned point's spans and counters come from two places: the
    parent (merge, polish, certificate) and each of its tasks.  The
    merged record is what the warehouse stores per point; the caller
    is responsible for absorbing each part into the runner's registry
    exactly once.
    """
    if not tasks:
        return parent
    registry = MetricsRegistry()
    registry.absorb(parent.metrics)
    merged: List[SpanRecord] = list(parent.spans)
    for telemetry in tasks:
        registry.absorb(telemetry.metrics)
        merged.extend(telemetry.spans)
    return TaskTelemetry(
        spans=tuple(merged), metrics=registry.snapshot()
    )


class BatchRunner:
    """Run batches of :class:`BatchJob` s with shared-table reuse.

    Parameters
    ----------
    max_workers:
        ``1`` runs jobs inline in the calling process (sequential,
        no pool, runner-owned caches reused across ``run`` calls);
        ``None`` uses one worker per CPU; any other value sizes the
        process pool explicitly.  An ephemeral pool never exceeds
        the number of jobs; a persistent one is sized once.
    on_error:
        ``"raise"`` (default) aborts the batch on the first failing
        job; ``"record"`` returns a :class:`FailedPoint` for it and
        completes the rest of the grid.
    retries:
        Extra attempts per job before its failure is raised or
        recorded.  The pipeline is deterministic, so retries pay off
        only for environmental failures (a worker killed under
        memory pressure, a wall-clock-truncated exact solve).
    cache_dir:
        When set, every table cache — the runner's own in inline
        mode, each worker's in pool mode — is backed by a persistent
        :class:`repro.service.store.TableStore` on this directory.
    persistent:
        Keep the process pool alive across :meth:`run` calls instead
        of starting one per call.  Callers own the shutdown:
        :meth:`close`, or use the runner as a context manager.
    shard:
        Intra-job sharding policy for the partition sweep
        (:mod:`repro.partition.shard`): ``"auto"`` (default) splits a
        job's enumeration across the pool when jobs are scarcer than
        workers and the partition space is big enough to pay for the
        fan-out; an ``int`` forces that many shards per eligible job;
        ``None``/``0`` disables.  Outcomes are bit-identical to the
        unsharded run either way — sharding is pure execution
        strategy, excluded from every canonical job key.  Only jobs
        on the production defaults (canonical ``unique`` enumeration,
        kernel engine, no per-count stratification) shard; others
        fall back to whole-job dispatch.
    point_timeout:
        Per-point wall-clock deadline in seconds (pool mode only;
        inline jobs cannot be interrupted), measured from the point's
        turn and covering every task of a fanned point.  A point
        whose result does not arrive within the deadline counts into
        ``engine.points_timed_out`` and becomes a
        :class:`FailedPoint` under ``on_error="record"`` or raises
        :class:`~repro.exceptions.DeadlineError` under ``"raise"``.
        Like ``shard``, overridable per call and per submitted
        :class:`~repro.api.specs.GridSpec` runner hint, and excluded
        from every canonical job key.
    pool_restart_retries:
        How many times a grid survives its process pool breaking
        (a worker OOM-killed or segfaulting): the pool is rebuilt,
        already-yielded results are kept, and only the unfinished
        points re-dispatch — after a deterministic
        :func:`repro.retry.backoff_schedule` delay.  ``0`` restores
        the historical fail-fast behavior.
    """

    #: Attempts in all a failed pool *task* (shard, island, polish or
    #: build) gets, at task granularity, before the job-level
    #: ``retries`` policy even engages; re-running a task is
    #: deterministic, so one retry only pays off for environmental
    #: failures.
    SHARD_RETRY_ATTEMPTS = 2

    def __init__(
        self,
        max_workers: Optional[int] = 1,
        on_error: str = "raise",
        retries: int = 0,
        cache_dir: Union[str, Path, None] = None,
        persistent: bool = False,
        shard: Union[int, str, None] = "auto",
        point_timeout: Union[int, float, None] = None,
        pool_restart_retries: int = 2,
    ) -> None:
        if max_workers is not None and max_workers < 1:
            raise ConfigurationError(
                f"max_workers must be >= 1 or None, got {max_workers}"
            )
        if on_error not in ON_ERROR_POLICIES:
            raise ConfigurationError(
                f"on_error must be one of {ON_ERROR_POLICIES}, "
                f"got {on_error!r}"
            )
        if retries < 0:
            raise ConfigurationError(
                f"retries must be >= 0, got {retries}"
            )
        normalize_shard_policy(shard)
        if pool_restart_retries < 0:
            raise ConfigurationError(
                "pool_restart_retries must be >= 0, got "
                f"{pool_restart_retries}"
            )
        self.point_timeout = normalize_point_timeout(point_timeout)
        self.pool_restart_retries = pool_restart_retries
        self.max_workers = max_workers
        self.on_error = on_error
        self.retries = retries
        self.cache_dir = (
            str(cache_dir) if cache_dir is not None else None
        )
        self.persistent = persistent
        self.shard = shard
        #: This runner's typed instrument namespace: the engine's own
        #: counters (``engine.pools_started``, ``engine.shm_fallbacks``,
        #: ``engine.jobs_sharded``, ``shard.shards_planned``) plus
        #: everything absorbed from job and worker telemetry (cache
        #: hit/miss counts, sweep prune totals, shard/build timers).
        self.metrics = MetricsRegistry()
        #: The *previous* ``run_iter`` consumption's own metrics — the
        #: registry delta between that run's start and end, so a
        #: persistent runner reports per-run numbers, not lifetime
        #: totals.  ``None`` before the first run.
        self.last_run_metrics: Optional[MetricsSnapshot] = None
        #: Per-job telemetry of the previous run, in job order
        #: (``None`` per job when that job shipped none).
        self.last_run_telemetry: List[Optional[TaskTelemetry]] = []
        #: Run-level spans of the previous run — parent- and
        #: pool-side table/matrix builds not attributable to one job.
        self.last_run_spans: List[SpanRecord] = []
        self._store = _make_store(self.cache_dir)
        self._caches: Dict[str, WrapperTableCache] = {}
        self._executor: Optional[ProcessPoolExecutor] = None
        #: What pool tasks carry, by SOC fingerprint: each SOC's dense
        #: matrix and design staircases, by value.
        self._descriptors: Dict[str, DenseDescriptor] = {}
        #: Parent-side dense matrices by SOC fingerprint — what the
        #: sharded sweep's merge and polish read; always as wide as
        #: the descriptor of the same fingerprint.
        self._matrices: Dict[str, DenseTimeMatrix] = {}
        #: Parent-side tables by fingerprint for finishing sharded
        #: jobs: real cached tables when the parent built them,
        #: staircase-backed dense tables when the pool did.
        self._merge_tables: Dict[str, Dict[str, Any]] = {}

    @property
    def pools_started(self) -> int:
        """Pools started over this runner's lifetime — observable
        evidence that ``persistent=True`` reuses one pool."""
        return self.metrics.counter("engine.pools_started").value

    @property
    def shm_fallbacks(self) -> int:
        """Incumbent boards that could not be created or attached,
        so shard or island tasks ran without them — slower pruning,
        never a different answer; surfaced for ``--stats``/service
        monitoring."""
        return self.metrics.counter("engine.shm_fallbacks").value

    @property
    def jobs_sharded(self) -> int:
        """Jobs that executed via the intra-job sharded sweep."""
        return self.metrics.counter("engine.jobs_sharded").value

    @property
    def pool_restarts(self) -> int:
        """Broken process pools rebuilt mid-grid over this runner's
        lifetime — each one a worker death the grid survived."""
        return self.metrics.counter("engine.pool_restarts").value

    @property
    def points_timed_out(self) -> int:
        """Grid points abandoned at their wall-clock deadline."""
        return self.metrics.counter("engine.points_timed_out").value

    def cache_for(self, soc: Soc) -> WrapperTableCache:
        """This runner's (inline-mode) table cache for ``soc``."""
        return _cache_for(self._caches, soc, store=self._store)

    def _new_pool(self, workers: int) -> ProcessPoolExecutor:
        """Start a pool carrying this runner's policy to its workers."""
        self.metrics.counter("engine.pools_started").inc()
        logger.debug("starting process pool with %d workers", workers)
        # Parse (and thereby validate) any active chaos plan here in
        # the parent — a malformed REPRO_FAULTS fails fast instead of
        # breaking every worker's initializer.
        plan = FaultPlan.from_env()
        return ProcessPoolExecutor(
            max_workers=workers,
            initializer=_init_worker,
            initargs=(
                self.on_error, self.retries, self.cache_dir,
                TRACER.enabled,
                plan.text if plan is not None else None,
            ),
        )

    def _pool(self, workers: int) -> ProcessPoolExecutor:
        """The persistent pool (started on first use), or a new one."""
        if not self.persistent:
            return self._new_pool(workers)
        if self._executor is None:
            self._executor = self._new_pool(workers)
        return self._executor

    def close(self) -> None:
        """Shut down the persistent pool and drop the held matrices."""
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None
        self._forget_matrices()

    def _forget_matrices(self) -> None:
        """Drop every held descriptor, matrix and merge table."""
        self._descriptors.clear()
        self._matrices.clear()
        self._merge_tables.clear()

    def _hold(
        self,
        fingerprint: str,
        matrix: DenseTimeMatrix,
        designs: bytes,
        merge_tables: Dict[str, Any],
    ) -> DenseDescriptor:
        """Keep one SOC's matrix for the merge and describe it for tasks."""
        self._matrices[fingerprint] = matrix
        self._merge_tables[fingerprint] = merge_tables
        descriptor = DenseDescriptor.of(fingerprint, matrix, designs)
        self._descriptors[fingerprint] = descriptor
        return descriptor

    def _build_local(
        self, fingerprint: str, soc: Soc, width: int
    ) -> DenseDescriptor:
        """Build one SOC's matrix in the parent and hold it."""
        cache = self.cache_for(soc)
        tables = cache.table_list(width)
        return self._hold(
            fingerprint, build_dense_matrix(tables, width),
            design_steps_blob(tables), cache.tables(width),
        )

    def _dense_descriptors(
        self,
        jobs: Sequence[BatchJob],
        pool: Optional[ProcessPoolExecutor] = None,
    ) -> List[DenseDescriptor]:
        """One dense descriptor per job, in order.

        Builds each distinct SOC's tables once — at the largest width
        any of its jobs needs — into a dense matrix plus its
        wrapper-design staircases; every job of that SOC carries the
        one descriptor.  A descriptor held from an earlier run is
        reused while it is wide enough and replaced otherwise.

        SOCs whose tables the parent already holds build locally:
        warm builds are cheap.  When two or more SOCs are *cold* and
        a ``pool`` is available, their builds fan out as pool tasks
        (:func:`_build_task`) instead of serializing in the
        parent — the cold-grid half of the intra-job scaling story.
        """
        width_by_soc: Dict[str, int] = {}
        soc_by_print: Dict[str, Soc] = {}
        prints: List[str] = []
        for job in jobs:
            fingerprint = soc_fingerprint(job.soc)
            prints.append(fingerprint)
            soc_by_print.setdefault(fingerprint, job.soc)
            width_by_soc[fingerprint] = max(
                width_by_soc.get(fingerprint, 0), job.total_width
            )
        descriptors: Dict[str, DenseDescriptor] = {}
        cold: List[Tuple[str, Soc, int]] = []
        for fingerprint, width in width_by_soc.items():
            soc = soc_by_print[fingerprint]
            held = self._descriptors.get(fingerprint)
            if held is not None and held.total_width >= width:
                descriptors[fingerprint] = held
                continue
            cache = self._caches.get(soc.name)
            warm = (
                cache is not None and cache.soc == soc
                and cache.max_width > 0
            )
            if warm or pool is None:
                descriptors[fingerprint] = self._build_local(
                    fingerprint, soc, width
                )
            else:
                cold.append((fingerprint, soc, width))
        if len(cold) == 1:
            # One cold SOC gains nothing from a pool round-trip: the
            # parent would idle-wait on the single build anyway.
            descriptors[cold[0][0]] = self._build_local(*cold[0])
        elif cold:
            built, telemetry = self._gather(pool, [
                Task(_build_task, (soc, width)) for _, soc, width in cold
            ], "build", None)
            for record in telemetry:
                self.last_run_spans.extend(record.spans)
            for (fingerprint, soc, width), (data, blob) in zip(
                cold, built
            ):
                matrix = DenseTimeMatrix.from_buffer(
                    data, len(soc.cores), width
                )
                descriptors[fingerprint] = self._hold(
                    fingerprint, matrix, blob, dense_time_tables(
                        soc.cores, matrix,
                        design_steps=parse_design_steps(blob),
                    ),
                )
        return [descriptors[fingerprint] for fingerprint in prints]

    def __enter__(self) -> "BatchRunner":
        """Context-manager entry: the runner itself."""
        return self

    def __exit__(self, *exc_info: object) -> None:
        """Context-manager exit: release the persistent pool."""
        self.close()

    #: Below this many partitions in a job's whole enumeration,
    #: ``shard="auto"`` leaves the job on one worker — the fan-out
    #: overhead would outweigh the sweep.
    AUTO_SHARD_MIN_PARTITIONS = 2048
    #: Shards per worker under ``shard="auto"``: oversubscription
    #: smooths the load imbalance between a shard that discovers the
    #: incumbents and shards that mostly abort against them.
    SHARD_OVERSUBSCRIPTION = 4

    @staticmethod
    def _job_shardable(job: BatchJob) -> bool:
        """True when the shard protocol's determinism argument applies."""
        options = job.options_dict()
        return (
            options.get("mode", "exact") == "exact"
            and options.get("enumerator", "unique") == "unique"
            and options.get("sweep_engine", "kernel") == "kernel"
            and not options.get("polish_per_tam_count", False)
        )

    @staticmethod
    def _job_search_mode(job: BatchJob) -> bool:
        """True for ``mode="search"`` jobs (the anytime tier)."""
        return job.options_dict().get("mode", "exact") == "search"

    def _shard_count(
        self,
        job: BatchJob,
        override: Union[int, str, None],
        workers: int,
        num_jobs: int,
    ) -> int:
        """How many shards this job should split into (0 = don't)."""
        policy = override if override is not None else self.shard
        if policy in (None, 0, 1):
            return 0
        if not self._job_shardable(job):
            return 0
        counts = resolved_tam_counts(job.total_width, job.num_tams)
        total = sum(count_sizes(job.total_width, counts))
        if total == 0:
            return 0
        if policy == "auto":
            if num_jobs >= workers:
                return 0
            if total < self.AUTO_SHARD_MIN_PARTITIONS:
                return 0
            wanted = workers * self.SHARD_OVERSUBSCRIPTION
        else:
            wanted = int(policy)
        return max(1, min(wanted, total))

    def run_iter(
        self,
        jobs: Sequence[BatchJob],
        shard: Union[int, str, None] = None,
        point_timeout: Union[int, float, None] = None,
        max_concurrent: Optional[int] = None,
    ) -> Iterator[BatchResult]:
        """Evaluate ``jobs``, yielding one result per job, in order.

        The streaming form of :meth:`run`: results become available
        as each job finishes (yielded in job order), which is what
        lets the exploration server emit per-point
        :class:`~repro.api.JobEvent` s while a grid is still running.
        The iterator must be consumed for the batch to complete;
        abandoning it mid-grid closes the underlying ephemeral pool.

        ``shard`` and ``point_timeout`` override the runner's
        intra-job sharding policy and per-point deadline for this
        call (the per-submission runner hints); results are identical
        either way.  ``max_concurrent`` caps how many of this call's
        grid points are in flight on the pool at once (windowed
        submission) — the multi-tenant fairness knob; it also
        disables intra-job sharding and search island fan-out, which
        would otherwise let a single point occupy every worker.
        """
        jobs = list(jobs)
        if not jobs:
            return
        shard = normalize_shard_policy(shard)
        timeout = normalize_point_timeout(point_timeout)
        if timeout is None:
            timeout = self.point_timeout
        cap = normalize_max_concurrent(max_concurrent)
        run_start = self.metrics.snapshot()
        self.last_run_telemetry = [None] * len(jobs)
        self.last_run_spans = []
        try:
            yield from self._run_iter_inner(jobs, shard, timeout, cap)
        finally:
            # The registry is cumulative (the lifetime counters the
            # tests and ``info()`` read); the per-run delta is what
            # one ``run_grid`` call actually did — a persistent
            # runner's second grid no longer inherits its first
            # grid's numbers.
            self.last_run_metrics = (
                self.metrics.snapshot().delta(run_start)
            )

    def _run_iter_inner(
        self,
        jobs: List[BatchJob],
        shard: Union[int, str, None],
        point_timeout: Optional[float],
        max_concurrent: Optional[int] = None,
    ) -> Iterator[BatchResult]:
        """The dispatch body of :meth:`run_iter` (one run's worth)."""
        requested = self.max_workers
        if requested is None:
            requested = os.cpu_count() or 1
        shard_counts = (
            [
                self._shard_count(job, shard, requested, len(jobs))
                for job in jobs
            ]
            if requested > 1 and max_concurrent is None
            else [0] * len(jobs)
        )
        # mode="search" jobs fan their islands across the pool under
        # the same policy as auto-sharding: only when jobs are scarcer
        # than workers (otherwise job-level parallelism already
        # saturates the pool).  Island results are bit-identical to
        # inline execution, so this is pure execution strategy.
        # A max_concurrent cap suppresses both fan-outs: one point
        # spraying shard/island tasks across the pool is exactly the
        # monopolisation the cap exists to prevent.
        search_fan = [
            requested > 1
            and max_concurrent is None
            and len(jobs) < requested
            and self._job_search_mode(job)
            for job in jobs
        ]
        workers = requested
        if not any(shard_counts) and not any(search_fan) \
                and not self.persistent:
            workers = min(workers, len(jobs))
        if workers == 1:
            worker = _Worker(
                self._caches, self._store, FaultPlan.from_env(),
                self.on_error, self.retries,
            )
            for index, job in enumerate(jobs):
                result, telemetry = _run_task(
                    Task(_point_task, (job, None), index), worker
                )
                self.metrics.absorb(telemetry.metrics)
                self.last_run_telemetry[index] = telemetry
                yield result
            return
        # Pool supervision: a BrokenProcessPool (worker OOM-killed,
        # segfaulted, or chaos-crashed) no longer aborts the grid.
        # Already-yielded results are kept — the dispatcher yields
        # strictly in job order — the pool is rebuilt after a
        # deterministic backoff, and only jobs[emitted:] re-dispatch.
        # The held descriptors survive the dead pool, so the rebuilt
        # workers receive the same matrices.
        emitted = 0
        restarts = 0
        delays = backoff_schedule(self.pool_restart_retries)
        pool = self._pool(workers)
        try:
            while True:
                try:
                    for result in self._dispatch_pool(
                        jobs, shard_counts, search_fan, pool, emitted,
                        point_timeout, max_concurrent,
                    ):
                        emitted += 1
                        yield result
                    return
                except BrokenProcessPool:
                    restarts += 1
                    self.metrics.counter("engine.pool_restarts").inc()
                    self._executor = None
                    pool.shutdown(wait=False)
                    if restarts > self.pool_restart_retries:
                        logger.error(
                            "process pool broke after %d/%d results "
                            "and %d rebuild(s); giving up",
                            emitted, len(jobs), restarts - 1,
                        )
                        if self.on_error == "record":
                            error = BrokenProcessPool(
                                "process pool died and could not be "
                                "rebuilt"
                            )
                            for job in jobs[emitted:]:
                                emitted += 1
                                yield FailedPoint.from_error(
                                    job, error, restarts
                                )
                            return
                        raise
                    logger.warning(
                        "process pool broke after %d/%d results; "
                        "rebuilding and resuming (restart %d/%d)",
                        emitted, len(jobs), restarts,
                        self.pool_restart_retries,
                    )
                    _sleep(delays[restarts - 1])
                    pool = self._pool(workers)
        finally:
            if not self.persistent:
                # Ephemeral pool: nothing will read the held matrices
                # again, so drop them now.
                pool.shutdown(wait=True)
                self._forget_matrices()

    def _timed_out(
        self, job: BatchJob, point_timeout: Optional[float]
    ) -> FailedPoint:
        """A point that missed its deadline: counted, then recorded
        or raised per the ``on_error`` policy.

        The point is *abandoned*: its tasks cannot be interrupted, and
        their results, if any, are discarded.
        """
        self.metrics.counter("engine.points_timed_out").inc()
        error = DeadlineError(
            f"grid point exceeded its {point_timeout:g}s "
            "wall-clock deadline"
        )
        logger.error("job %s: %s", job.describe(), error)
        if self.on_error == "record":
            return FailedPoint.from_error(job, error, 1)
        raise DeadlineError(f"job {job.describe()}: {error}") from None

    def _dispatch_pool(
        self,
        jobs: List[BatchJob],
        shard_counts: List[int],
        search_fan: List[bool],
        pool: ProcessPoolExecutor,
        skip: int,
        point_timeout: Optional[float],
        max_concurrent: Optional[int] = None,
    ) -> Iterator[BatchResult]:
        """Dispatch ``jobs[skip:]`` over ``pool``, yielding in order.

        One pool's worth of work: descriptors are (re)built —
        reused while already wide enough — and results stream back
        in job order, so the caller can resume from its yield count
        if this pool breaks mid-grid.

        At most ``max_concurrent`` points (all of them when unset)
        are in flight at once.  A whole point is one pool task; a
        sharded or island-fanned point instead runs here in the
        parent when its turn comes, spreading its own tasks over the
        pool.  Either way the point is awaited under its deadline,
        measured from the moment its turn comes.
        """
        build_baseline = task_begin()
        with span("publish_tables", jobs=len(jobs)):
            descriptors = self._dense_descriptors(jobs, pool)
        build_telemetry = task_end(build_baseline)
        self.metrics.absorb(build_telemetry.metrics)
        self.last_run_spans.extend(build_telemetry.spans)
        fanned = [
            shard_counts[index] >= 2 or search_fan[index]
            for index in range(len(jobs))
        ]
        todo = iter(range(skip, len(jobs)))
        window = max_concurrent or len(jobs)
        pending: Deque[Tuple[int, "Optional[Future[Any]]"]] = deque()

        def fill() -> None:
            for index in islice(todo, window - len(pending)):
                task = Task(
                    _point_task, (jobs[index], descriptors[index]), index
                )
                pending.append((index, None if fanned[index] else (
                    pool.submit(_run_task, task)
                )))

        fill()
        while pending:
            index, future = pending.popleft()
            job = jobs[index]
            deadline = (
                None if point_timeout is None
                else _os_clock() + point_timeout
            )
            telemetry: Optional[TaskTelemetry] = None
            try:
                if future is None:
                    result, telemetry = self._run_fanned(
                        job, descriptors[index], pool,
                        shard_counts[index], deadline,
                    )
                else:
                    result, telemetry = _await(future, deadline)
                    self.metrics.absorb(telemetry.metrics)
            except DeadlineError:
                if future is not None:
                    future.cancel()
                result = self._timed_out(job, point_timeout)
            fill()
            if telemetry is not None:
                self.last_run_telemetry[index] = telemetry
            yield result

    def _gather(
        self,
        pool: ProcessPoolExecutor,
        tasks: Sequence[Task],
        kind: str,
        deadline: Optional[float],
    ) -> Tuple[List[Any], List[TaskTelemetry]]:
        """Run ``tasks`` on ``pool``: their values and telemetry, in order.

        A task that raises is re-run alone, up to
        :attr:`SHARD_RETRY_ATTEMPTS` attempts in all, after a
        schedule-derived delay, counted as ``engine.{kind}_retries``.
        Every task is a pure function of its payload, so a re-run
        cannot change the merged result.  A broken pool and a missed
        ``deadline`` propagate to the dispatcher; tasks still queued
        then are cancelled.  Fallbacks and each task's metrics go into
        the runner's registry here.
        """
        futures = [pool.submit(_run_task, task) for task in tasks]
        delays = backoff_schedule(self.SHARD_RETRY_ATTEMPTS - 1)
        values: List[Any] = []
        telemetry: List[TaskTelemetry] = []
        try:
            for index, task in enumerate(tasks):
                for attempt in range(1, self.SHARD_RETRY_ATTEMPTS + 1):
                    try:
                        value, record = _await(
                            futures[index], deadline
                        )
                        break
                    except (BrokenProcessPool, DeadlineError):
                        raise
                    except Exception as error:  # noqa: BLE001
                        if attempt >= self.SHARD_RETRY_ATTEMPTS:
                            raise
                        logger.warning(
                            "%s task %d failed (attempt %d/%d), "
                            "re-running: %s", kind, index, attempt,
                            self.SHARD_RETRY_ATTEMPTS, error,
                        )
                        self.metrics.counter(
                            f"engine.{kind}_retries"
                        ).inc()
                        _sleep(delays[attempt - 1])
                        futures[index] = pool.submit(_run_task, task)
                self.metrics.absorb(record.metrics)
                values.append(value)
                telemetry.append(record)
        finally:
            for future in futures:
                future.cancel()
        return values, telemetry

    def _run_fanned(
        self,
        job: BatchJob,
        descriptor: DenseDescriptor,
        pool: ProcessPoolExecutor,
        num_shards: int,
        deadline: Optional[float],
    ) -> Tuple[BatchResult, TaskTelemetry]:
        """One sharded or island-fanned point, run from the parent.

        Its tasks go through :meth:`_gather` under the point's
        ``deadline``; the merge, the exact polish and the accounting
        run here over the parent's copy of the matrix.  The job
        failure policy wraps the whole point.  Returns the result and
        its telemetry: the parent-side part merged with the last
        attempt's tasks'.
        """
        baseline = task_begin()
        tasks: List[TaskTelemetry] = []
        # Shard and island tasks only score: they carry no designs.
        descriptor = replace(descriptor, design_payload=None)

        def gather(kind: str, batch: List[Task]) -> List[Any]:
            values, records = self._gather(pool, batch, kind, deadline)
            tasks.extend(records)
            return values

        def attempt() -> SweepPoint:
            tasks.clear()
            if self._job_search_mode(job):
                self.metrics.counter("engine.jobs_search_fanned").inc()
                seams = self._search_seams(job, descriptor, gather)
            else:
                self.metrics.counter("engine.jobs_sharded").inc()
                seams = self._shard_seams(
                    job, descriptor, num_shards, gather
                )
            return evaluate_point(
                job.soc,
                job.total_width,
                num_tams=job.num_tams,
                tables=self._merge_tables[descriptor.fingerprint],
                dense=self._matrices[descriptor.fingerprint],
                **seams,
                **job.options_dict(),
            )

        result = _with_policy(job, self.on_error, self.retries, attempt)
        if deadline is not None and _os_clock() > deadline:
            raise DeadlineError("wall-clock deadline passed")
        parent = task_end(baseline)
        self.metrics.absorb(parent.metrics)
        return result, _merge_task_telemetry(parent, tasks)

    def _search_seams(
        self,
        job: BatchJob,
        descriptor: DenseDescriptor,
        gather: Callable[[str, List[Task]], List[Any]],
    ) -> Dict[str, Any]:
        """The island fan-out seam of one search point.

        The fixed :data:`repro.search.NUM_ISLANDS` island runs
        execute as pool tasks, each carrying the dense matrix,
        publishing incumbent improvements through a shared-memory
        board; the deterministic merge, the exact polish, and the
        certificate/utilization accounting run in the parent over the
        same matrix.  The result is bit-identical to inline execution
        — island seeds and eval shares derive from the fixed island
        count, never from the worker count.
        """

        def islands(plans: Sequence[Any]) -> List[Any]:
            self.metrics.counter("search.islands_planned").inc(
                len(plans)
            )
            with _incumbent_board(len(plans), 1) as board:
                return gather("island", [
                    Task(
                        _island_task,
                        (descriptor, board, plan, job.soc,
                         job.total_width),
                        plan.island_index,
                    )
                    for plan in plans
                ])

        return {"search_islands": islands}

    def _shard_seams(
        self,
        job: BatchJob,
        descriptor: DenseDescriptor,
        num_shards: int,
        gather: Callable[[str, List[Task]], List[Any]],
    ) -> Dict[str, Any]:
        """The sweep and polish fan-out seams of one sharded point.

        Step 1 (the sweep) executes as ``num_shards`` pool tasks,
        each carrying the dense matrix, with incumbents broadcast
        through a shared-memory board; the deterministic merge and
        the certificate/utilization accounting run in the parent over
        the same matrix, and a top-k exact polish fans its candidates
        back out over the pool.  The result is bit-identical to
        whole-job execution.
        """
        matrix = self._matrices[descriptor.fingerprint]

        def sweep(
            table_list: Sequence[TimeTable],
            total_width: int,
            tam_counts: Union[int, Iterable[int]], *,
            enumerator: str = "unique",
            prune: Union[bool, str] = True,
            initial_best: Optional[int] = None,
            keep_top: int = 1,
            stratify_by_tam_count: bool = False,
            engine: str = "kernel",
            dense: Optional[DenseTimeMatrix] = None,
        ) -> PartitionSearchResult:
            if stratify_by_tam_count or engine != "kernel" \
                    or enumerator != "unique":
                # Configurations outside the shard protocol's
                # determinism argument run serially, as before.
                return partition_evaluate(
                    table_list, total_width, tam_counts,
                    enumerator=enumerator, prune=prune,
                    initial_best=initial_best, keep_top=keep_top,
                    stratify_by_tam_count=stratify_by_tam_count,
                    engine=engine, dense=dense,
                )

            def scorer(plan: ShardPlan) -> List[ShardOutcome]:
                self.metrics.counter("shard.shards_planned").inc(
                    plan.num_shards
                )
                # Unpruned sweeps never read the board; skip it.
                with _incumbent_board(
                    plan.num_shards, keep_top, enabled=bool(prune)
                ) as board:
                    return gather("shard", [
                        Task(
                            _shard_task,
                            (descriptor, board, index, shard_spans,
                             job.soc, total_width, keep_top,
                             initial_best, prune),
                            index,
                        )
                        for index, shard_spans in enumerate(plan.shards)
                    ])

            return sharded_partition_evaluate(
                None, total_width, tam_counts, num_shards,
                prune=prune, initial_best=initial_best,
                keep_top=keep_top, dense=matrix, scorer=scorer,
            )

        def polish_runner(tasks: Sequence[Any]) -> List[Any]:
            # Each polish task is independent (the serial loop never
            # threads one candidate's solution into the next solve),
            # so results come back in candidate order and the
            # caller's first-strict-minimum reduction matches the
            # serial polish bit for bit.
            self.metrics.counter("engine.polish_tasks_fanned").inc(
                len(tasks)
            )
            return gather(
                "polish", [Task(_polish_task, task) for task in tasks]
            )

        return {"sweep": sweep, "polish_runner": polish_runner}

    def run(
        self,
        jobs: Sequence[BatchJob],
        shard: Union[int, str, None] = None,
        point_timeout: Union[int, float, None] = None,
        max_concurrent: Optional[int] = None,
    ) -> List[BatchResult]:
        """Evaluate ``jobs``, returning one result per job, in order.

        Results are independent of worker count and scheduling: the
        pipeline is deterministic given (SOC, W, B), and cached
        tables answer exactly like freshly built ones.  Under
        ``on_error="record"`` a failing job yields a
        :class:`FailedPoint` in its slot (see :func:`split_results`);
        under the default policy every element is a
        :class:`~repro.analysis.sweep.SweepPoint`.
        """
        return list(self.run_iter(
            jobs, shard=shard, point_timeout=point_timeout,
            max_concurrent=max_concurrent,
        ))

    def run_grid(
        self,
        socs: "Union[GridSpec, Iterable[Soc]]",
        widths: Optional[Iterable[int]] = None,
        num_tams: Union[int, Tuple[int, ...], None] = None,
        options: Optional[Mapping[str, Any]] = None,
    ) -> List[Tuple[BatchJob, BatchResult]]:
        """Evaluate a grid, pairing each job with its result.

        The canonical form takes one :class:`repro.api.GridSpec` —
        the same typed object the exploration service and the CLI
        submit — and runs the jobs it resolves to::

            runner.run_grid(GridSpec.from_axes(["d695"], [16, 24]))

        The legacy axes form (``socs`` × ``widths``, widths varying
        fastest, every job sharing ``num_tams`` and ``options``) is
        kept for existing callers and builds the identical job list.
        """
        from repro.api.specs import GridSpec

        if isinstance(socs, GridSpec):
            if widths is not None or num_tams is not None or options:
                raise ConfigurationError(
                    "run_grid(GridSpec) takes no extra axes arguments"
                )
            jobs = socs.jobs()
            # Execution hints ride the spec's `runner` mapping —
            # excluded from its canonical key, honored here.
            hints = socs.runner_options()
            return list(zip(jobs, self.run(
                jobs,
                shard=hints.get("shard"),
                point_timeout=hints.get("point_timeout"),
            )))
        soc_list = list(socs)
        width_list = list(widths or ())  # survives one-shot iterables
        jobs = [
            BatchJob(
                soc=soc,
                total_width=width,
                num_tams=num_tams,
                options=options or (),
            )
            for soc in soc_list
            for width in width_list
        ]
        return list(zip(jobs, self.run(jobs)))


#: Column order of :func:`grid_rows` records, shared by the
#: ``repro-tam batch`` subcommand and the batch benchmarks.
BATCH_COLUMNS: Tuple[str, ...] = (
    "soc", "W", "B", "partition", "T", "gap", "utilization",
)


def grid_rows(
    grid: Sequence[Tuple[BatchJob, BatchResult]]
) -> List[Dict[str, object]]:
    """Render a :meth:`BatchRunner.run_grid` result as table rows.

    One dict per grid point, with the shared column schema used by
    the ``repro-tam batch`` subcommand and the batch benchmarks:
    ``soc``, ``W``, ``B``, ``partition``, ``T``, ``gap``,
    ``utilization``.  A recorded :class:`FailedPoint` renders as an
    error row rather than breaking the table.
    """
    rows: List[Dict[str, object]] = []
    for job, point in grid:
        if isinstance(point, FailedPoint):
            rows.append({
                "soc": job.soc.name,
                "W": job.total_width,
                "B": "-",
                "partition": f"{point.error_type}: {point.error_message}",
                "T": "-",
                "gap": "-",
                "utilization": "-",
            })
            continue
        rows.append({
            "soc": job.soc.name,
            "W": point.total_width,
            "B": point.num_tams,
            "partition": "+".join(map(str, point.partition)),
            "T": point.testing_time,
            "gap": f"{point.certificate.gap:.2%}",
            "utilization": f"{point.wire_efficiency:.1%}",
        })
    return rows
