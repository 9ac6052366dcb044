"""Frozen reference copy of the partition sweep's per-partition loop.

This is the sweep as it stood before enumeration and scoring were
fused into one walker (:func:`repro.engine.kernel.sweep_partitions`):
the kernel branch of ``partition_evaluate``, the ``sweep_shard``
loop, ``sweep_assign`` and the rank-slice enumerator
``partitions_slice`` they ran over, kept verbatim as the differential
oracle of ``test_sweep_oracle.py``.  The production sweep must return
the same ``best``, ``runners_up`` and every ``PartitionStats`` field
— ``num_lb_pruned`` included — and the same shard completions.  Do
not optimize this file.
"""

from __future__ import annotations

import time as _time
from typing import (
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.assign.core_assign import reference_buses
from repro.engine.kernel import (
    DenseTimeMatrix,
    KernelWorkspace,
    build_dense_matrix,
)
from repro.exceptions import ConfigurationError
from repro.obs import span as _obs_span
from repro.partition.count import count_partitions, count_partitions_min
from repro.partition.enumerate import _check
from repro.partition.evaluate import (
    _ENUMERATORS,
    PRUNE_MODES,
    PartitionSearchResult,
    PartitionStats,
    _TopK,
)
from repro.partition.shard import (
    BOARD_REFRESH_INTERVAL,
    Board,
    ShardCompletion,
    ShardOutcome,
    ShardSpan,
    _shared_threshold,
)
from repro.tam.assignment import AssignmentResult
from repro.wrapper.pareto import TimeTable


def sweep_assign(
    matrix: DenseTimeMatrix,
    widths: Sequence[int],
    best_known: Optional[int] = None,
    workspace: Optional[KernelWorkspace] = None,
) -> Optional[AssignmentResult]:
    """``Core_assign`` over dense columns; ``None`` when aborted.

    The sweep-internal form of :func:`kernel_assign`: identical logic,
    but an aborted partition returns ``None`` instead of allocating an
    outcome object — under heavy pruning almost every partition
    aborts, so the fast path allocates nothing.
    """
    num_buses = len(widths)
    if num_buses == 0:
        raise ConfigurationError("need at least one bus")
    num_cores = matrix.num_cores
    # Per-bus (column, Line 13-16 pick order), fused and memoized on
    # the matrix across partitions sharing the (width, reference)
    # pair; the reference widths fall out of the same single pass
    # that detects sorted input.
    cols = []
    orders = []
    previous_first = -1
    run_first = 0
    is_sorted = True
    for j, width in enumerate(widths):
        if j and width != widths[j - 1]:
            if width < widths[j - 1]:
                is_sorted = False
                break
            previous_first = run_first
            run_first = j
        column, order = matrix.bus_context(
            width,
            widths[previous_first] if previous_first >= 0 else None,
        )
        cols.append(column)
        orders.append(order)
    if not is_sorted:
        references = reference_buses(widths)
        cols = []
        orders = []
        for j, width in enumerate(widths):
            reference = references[j]
            column, order = matrix.bus_context(
                width,
                widths[reference] if reference >= 0 else None,
            )
            cols.append(column)
            orders.append(order)

    if workspace is None:
        workspace = KernelWorkspace()
    loads = workspace._loads
    if len(loads) < num_buses:
        loads.extend([0] * (num_buses - len(loads)))
    cursors = workspace._cursors
    if len(cursors) < num_buses:
        cursors.extend([0] * (num_buses - len(cursors)))
    for bus in range(num_buses):
        loads[bus] = 0
        cursors[bus] = 0
    assignment = workspace._assignment
    stamps = workspace._stamps
    if len(assignment) < num_cores:
        grow = num_cores - len(assignment)
        assignment.extend([0] * grow)
        stamps.extend([0] * grow)
    workspace._generation += 1
    generation = workspace._generation

    # Partial area bound state: ``projected`` is assigned work plus
    # the floor (widest-column time) of every unassigned core — a
    # lower bound on the final total work, so the final makespan is
    # at least ceil(projected / B).  ``projected > area_limit`` is
    # that test without the division.
    floors = None
    projected = 0
    area_limit = 0
    if best_known is not None:
        widest = max(widths)
        floors = matrix.column(widest)
        projected = matrix.column_stats(widest)[1]
        area_limit = (best_known - 1) * num_buses

    remaining = num_cores
    while remaining:
        # Lines 10-12: min-load bus, ties to the widest, then lowest
        # index — a single scan.
        bus = 0
        best_load = loads[0]
        best_width = widths[0]
        for j in range(1, num_buses):
            load = loads[j]
            if load < best_load or (
                load == best_load and widths[j] > best_width
            ):
                bus = j
                best_load = load
                best_width = widths[j]

        # Lines 13-16: first unassigned core in this bus's preference
        # order.  Cursors only ever advance — cores assigned earlier
        # stay stamped for the whole partition — so the skips
        # amortize to O(N) per partition, not per step.
        order = orders[bus]
        cursor = cursors[bus]
        core = order[cursor]
        while stamps[core] == generation:
            cursor += 1
            core = order[cursor]
        cursors[bus] = cursor
        stamps[core] = generation

        assignment[core] = bus
        best_time = cols[bus][core]
        load = loads[bus] + best_time
        loads[bus] = load
        if floors is not None:
            # Lines 18-20 (only this bus's load changed, and every
            # load was below the incumbent before — O(1)), plus the
            # partial area bound, which cannot misfire: it bounds the
            # final time from below, and the legacy abort fires on
            # every run whose final time reaches the incumbent.
            projected += best_time - floors[core]
            if load >= best_known or projected > area_limit:
                return None
        remaining -= 1

    bus_times = tuple(loads[:num_buses])
    return AssignmentResult(
        widths=tuple(widths),
        assignment=tuple(assignment[:num_cores]),
        bus_times=bus_times,
        testing_time=max(bus_times),
    )


def partitions_slice(
    total: int, parts: int, start: int, stop: int
) -> Iterator[Tuple[int, ...]]:
    """Partitions of rank ``[start, stop)`` in canonical order.

    Identical to ``list(unique_partitions(total, parts))[start:stop]``,
    but the prefix is *skipped*, not enumerated: at every level of the
    recursion whole subtrees are jumped over by their counted size
    (:func:`~repro.partition.count.count_partitions_min`), so seeking
    costs O(total · parts) counting steps.  This is what lets the
    sharded sweep hand each worker a contiguous index range.

    >>> list(partitions_slice(8, 4, 1, 3))
    [(1, 1, 2, 4), (1, 1, 3, 3)]
    >>> list(partitions_slice(8, 4, 0, 5)) == list(unique_partitions(8, 4))
    True
    """
    _check(total, parts)
    available = count_partitions(total, parts)
    if not 0 <= start <= stop <= available:
        raise ConfigurationError(
            f"slice [{start}, {stop}) outside the {available} "
            f"partitions of {total} into {parts} parts"
        )
    budget = stop - start
    if budget == 0:
        return

    def recurse(
        remaining: int, slots: int, minimum: int,
        prefix: Tuple[int, ...], skip: int,
    ) -> Iterator[Tuple[int, ...]]:
        if slots == 1:
            yield prefix + (remaining,)
            return
        upper = remaining // slots
        for value in range(minimum, upper + 1):
            size = count_partitions_min(
                remaining - value, slots - 1, value
            )
            if skip >= size:
                skip -= size
                continue
            yield from recurse(
                remaining - value, slots - 1, value,
                prefix + (value,), skip,
            )
            skip = 0

    emitted = 0
    for widths in recurse(total, parts, 1, (), start):
        yield widths
        emitted += 1
        if emitted == budget:
            return


def sweep_shard(
    matrix: DenseTimeMatrix,
    spans: Sequence[ShardSpan],
    shard_index: int,
    total_width: int,
    keep_top: int = 1,
    initial_best: Optional[int] = None,
    prune: Union[bool, str] = True,
    board: Optional[Board] = None,
    workspace: Optional[KernelWorkspace] = None,
) -> ShardOutcome:
    """Score one shard's spans; the pool-worker payload.

    Runs the kernel sweep over the shard's ranks under a threshold
    that is safe by construction (own prefix + earlier shards'
    broadcasts, see :func:`_shared_threshold`), records every
    completion with its exact result, and publishes its own kept
    times after each one.  Under ``prune=False`` every partition
    completes, so recording them all would ship the whole partition
    space back to the parent; instead only the shard's *final* top-k
    is reported — lossless, because an entry evicted from (or never
    admitted to) a shard's top-k is rejected by the serial tracker at
    the same offer, the shard's entries being a subset of the serial
    tracker's at every rank — and the merge restores the per-count
    completion totals analytically (everything completes).
    """
    start_clock = _time.monotonic()
    use_lb = prune == "lb"
    tracker = _TopK(keep_top, initial_best)
    workspace = workspace or KernelWorkspace()
    completions: List[ShardCompletion] = []
    #: prune=False: widths-key → latest kept completion (see above).
    kept: Dict[Tuple[int, ...], ShardCompletion] = {}
    for span in spans:
        threshold = (
            _shared_threshold(tracker, board, shard_index, keep_top)
            if prune else None
        )
        since_refresh = 0
        for offset, widths in enumerate(partitions_slice(
            total_width, span.num_tams, span.start, span.stop,
        )):
            if prune and board is not None:
                since_refresh += 1
                if since_refresh >= BOARD_REFRESH_INTERVAL:
                    since_refresh = 0
                    threshold = _shared_threshold(
                        tracker, board, shard_index, keep_top
                    )
            if (
                use_lb
                and threshold is not None
                and matrix.lower_bound(widths) >= threshold
            ):
                continue
            result = sweep_assign(
                matrix, widths, best_known=threshold,
                workspace=workspace,
            )
            if result is None:
                continue
            completion = ShardCompletion(
                count_index=span.count_index,
                rank=span.start + offset,
                result=result,
            )
            tracker.offer(result)
            if prune:
                completions.append(completion)
            elif any(
                entry is result for entry in tracker.entries
            ):
                kept[tuple(sorted(result.widths))] = completion
            if prune:
                # Unpruned sweeps never read thresholds, so there
                # is nothing worth broadcasting either.
                if board is not None:
                    board.publish(shard_index, [
                        entry.testing_time
                        for entry in tracker.entries
                    ])
                threshold = _shared_threshold(
                    tracker, board, shard_index, keep_top
                )
    if not prune and kept:
        final_keys = {
            tuple(sorted(entry.widths)) for entry in tracker.entries
        }
        completions = sorted(
            (
                completion for key, completion in kept.items()
                if key in final_keys
            ),
            key=lambda c: (c.count_index, c.rank),
        )
    return ShardOutcome(
        shard_index=shard_index,
        completions=tuple(completions),
        elapsed_seconds=_time.monotonic() - start_clock,
    )


def partition_evaluate(
    tables: Sequence[TimeTable],
    total_width: int,
    num_tams: Union[int, Iterable[int]],
    enumerator: str = "unique",
    prune: Union[bool, str] = True,
    initial_best: Optional[int] = None,
    keep_top: int = 1,
    stratify_by_tam_count: bool = False,
    dense: Optional[DenseTimeMatrix] = None,
) -> PartitionSearchResult:
    """The kernel branch of ``Partition_evaluate``, one loop per count."""
    if not tables:
        raise ConfigurationError("need at least one core time table")
    if keep_top < 1:
        raise ConfigurationError(f"keep_top must be >= 1, got {keep_top}")
    enumerate_fn = _ENUMERATORS[enumerator]
    if prune not in PRUNE_MODES:
        raise ConfigurationError(
            f"prune must be one of {PRUNE_MODES}, got {prune!r}"
        )

    tam_counts = (
        [num_tams] if isinstance(num_tams, int) else list(num_tams)
    )

    start = _time.monotonic()

    use_lb = prune == "lb"
    matrix = (
        dense if dense is not None
        else build_dense_matrix(tables, total_width)
    )
    workspace = KernelWorkspace()

    global_top = _TopK(keep_top, initial_best)
    trackers: List[_TopK] = []
    all_stats: List[PartitionStats] = []

    for count in tam_counts:
        tracker = (
            _TopK(keep_top, initial_best) if stratify_by_tam_count
            else global_top
        )
        trackers.append(tracker)
        enumerated = 0
        completed = 0
        lb_pruned = 0
        with _obs_span("sweep_count", num_tams=count) as count_span:
            if count <= total_width:
                # The abort threshold only moves when a partition
                # completes and is offered, so it is cached across the
                # (overwhelmingly aborting) partitions in between.
                threshold = tracker.threshold() if prune else None
                for widths in enumerate_fn(total_width, count):
                    enumerated += 1
                    if (
                        use_lb
                        and threshold is not None
                        and matrix.lower_bound(widths) >= threshold
                    ):
                        # Admissible bound: this partition could
                        # only have aborted — skip Core_assign
                        # entirely.
                        lb_pruned += 1
                        continue
                    result = sweep_assign(
                        matrix, widths, best_known=threshold,
                        workspace=workspace,
                    )
                    if result is None:
                        continue
                    completed += 1
                    tracker.offer(result)
                    if prune:
                        threshold = tracker.threshold()
            count_span.annotate(
                enumerated=enumerated,
                completed=completed,
                lb_pruned=lb_pruned,
            )
        all_stats.append(
            PartitionStats(
                num_tams=count,
                num_unique=(
                    count_partitions(total_width, count)
                    if count <= total_width else 0
                ),
                num_enumerated=enumerated,
                num_completed=completed,
                num_lb_pruned=lb_pruned,
            )
        )

    if stratify_by_tam_count:
        entries = sorted(
            (entry for tracker in trackers for entry in tracker.entries),
            key=lambda result: result.testing_time,
        )
    else:
        entries = list(global_top.entries)

    if not entries:
        raise ConfigurationError(
            "no partition improved on initial_best="
            f"{initial_best}; nothing to return"
        )
    return PartitionSearchResult(
        total_width=total_width,
        best=entries[0],
        stats=tuple(all_stats),
        elapsed_seconds=_time.monotonic() - start,
        runners_up=tuple(entries[1:]),
    )
