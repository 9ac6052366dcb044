"""The dense time-matrix sweep kernel — ``Partition_evaluate``'s fast path.

The legacy sweep rebuilds a fresh N×B Python list-of-lists for *every*
width partition (``_times_for``) and runs ``Core_assign`` as an
allocation-heavy pure-Python loop.  This module removes both costs
while staying **bit-identical** to the legacy heuristic (asserted by
the differential suite in ``tests/engine/test_kernel.py``):

* :class:`DenseTimeMatrix` — every core's monotone time staircase
  exported once (:meth:`~repro.wrapper.pareto.TimeTable.dense_row`)
  into one flat width-indexed array.  Partitions share widths, so the
  per-width *columns* the assignment loop reads are memoized: each is
  materialized exactly once per sweep, with its max/sum aggregates.
* :func:`sweep_partitions` — the sweep itself: one walker that
  enumerates a canonical rank range of one TAM count and scores each
  partition in the same pass.  Per-bus (column, pick order) contexts
  sit on per-depth stacks, so a partition costs two context lookups
  (its last two parts) rather than B; the greedy's first round needs
  no min-load scan; and lower-bound-pruned loop tails and subtrees are
  counted, not visited.  Both the serial sweep
  (:func:`repro.partition.evaluate.partition_evaluate`) and the shard
  worker (:func:`repro.partition.shard.sweep_shard`) run on it; the
  pre-walker loop is kept as the oracle in
  ``tests/partition/_sweep_reference.py`` (DESIGN.md §12).
* :func:`sweep_assign` / :func:`kernel_assign` — the same greedy for
  one partition in any bus order (search evals, the ``increment``
  ablation): single-scan bus and core picks, precomputed per-bus
  tie-break reference, O(1) abort check plus a partial area bound, and
  a reusable :class:`KernelWorkspace` so the loop allocates nothing
  but the final result (only built on completion, which pruning
  makes rare).
* :meth:`DenseTimeMatrix.lower_bound` — an admissible O(1) partition
  bound (:func:`repro.assign.lower_bounds.column_lower_bound` on the
  widest column's cached aggregates).  A partition whose bound
  already meets the incumbent cannot complete under the Lines 18-20
  abort, so ``partition_evaluate(prune="lb")`` skips ``Core_assign``
  entirely without changing any observable outcome.
* :class:`DenseTimeTable` — a times-only :class:`~repro.wrapper.
  pareto.TimeTable` stand-in over one matrix row, for pool workers
  that receive the matrix in their task payload
  (:mod:`repro.engine.shm`) instead of building their own tables;
  wrapper *designs* (needed only for final utilization accounting)
  are recovered on demand at the staircase breakpoint.
"""

from __future__ import annotations

from array import array
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.assign.core_assign import CoreAssignOutcome, reference_buses
from repro.assign.lower_bounds import column_lower_bound
from repro.exceptions import ConfigurationError
from repro.obs import span as _obs_span
from repro.partition.count import count_partitions, count_partitions_min
from repro.soc.core import Core
from repro.tam.assignment import AssignmentResult
from repro.wrapper.chain import WrapperDesign
from repro.wrapper.design import design_wrapper
from repro.wrapper.pareto import TimeTable


#: One bus's (column, Line 13-16 pick order).
BusContext = Tuple[Tuple[int, ...], Tuple[int, ...]]


class DenseTimeMatrix:
    """N cores × W widths testing times, flat and column-memoized.

    ``flat[i * total_width + (w - 1)]`` is core ``i``'s best testing
    time on a width-``w`` bus.  Rows are monotone non-increasing (the
    :class:`~repro.wrapper.pareto.TimeTable` staircase), which is what
    makes the widest-column lower bound admissible.

    The backing store is any flat int sequence — an ``array('q')``
    when built locally, a zero-copy ``memoryview`` over the bytes a
    pool task received.  Hot loops never touch it directly: they
    read the memoized per-width column tuples.
    """

    __slots__ = (
        "num_cores", "total_width", "_flat", "_columns", "_stats",
        "_orders", "_contexts", "_sums",
    )

    def __init__(
        self,
        flat: Union["array[int]", memoryview, Sequence[int]],
        num_cores: int,
        total_width: int,
    ) -> None:
        if num_cores < 1:
            raise ConfigurationError(
                f"num_cores must be >= 1, got {num_cores}"
            )
        if total_width < 1:
            raise ConfigurationError(
                f"total_width must be >= 1, got {total_width}"
            )
        if len(flat) != num_cores * total_width:
            raise ConfigurationError(
                f"flat matrix has {len(flat)} entries, expected "
                f"{num_cores} x {total_width}"
            )
        self.num_cores = num_cores
        self.total_width = total_width
        self._flat = flat
        #: width → column tuple (one entry per core), built on demand.
        self._columns: Dict[int, Tuple[int, ...]] = {}
        #: width → (max, sum) of the column, for the O(1) lower bound.
        self._stats: Dict[int, Tuple[int, int]] = {}
        #: (width, reference width) → core pick order, memoized — the
        #: Line 13-16 selection collapses to "first unassigned core in
        #: this order", O(1) amortized per step.
        self._orders: Dict[Tuple[int, Optional[int]], Tuple[int, ...]] = {}
        #: [width][reference width or 0] → (column, pick order), the
        #: fused per-bus lookup — a table, so the sweep walker can
        #: probe it by index (built on first use).
        self._contexts: Optional[List[List[Optional[BusContext]]]] = None
        #: width → column sum (index 0 unused), built on first use.
        self._sums: Optional[List[int]] = None

    def time(self, core: int, width: int) -> int:
        """Core ``core``'s (0-based) testing time at ``width``."""
        if not 1 <= width <= self.total_width:
            raise ConfigurationError(
                f"width {width} outside matrix range 1..{self.total_width}"
            )
        return self._flat[core * self.total_width + width - 1]

    def column(self, width: int) -> Tuple[int, ...]:
        """All cores' times at ``width``; materialized exactly once."""
        col = self._columns.get(width)
        if col is None:
            if not 1 <= width <= self.total_width:
                raise ConfigurationError(
                    f"width {width} outside matrix range "
                    f"1..{self.total_width}"
                )
            stride = self.total_width
            flat = self._flat
            col = tuple(
                flat[core * stride + width - 1]
                for core in range(self.num_cores)
            )
            self._columns[width] = col
        return col

    def column_stats(self, width: int) -> Tuple[int, int]:
        """(max, sum) of :meth:`column`, cached alongside it."""
        stats = self._stats.get(width)
        if stats is None:
            col = self.column(width)
            stats = (max(col), sum(col))
            self._stats[width] = stats
        return stats

    def lower_bound(self, widths: Sequence[int]) -> int:
        """Admissible P_AW bound for one partition, O(B) amortized.

        Every core's best time under ``widths`` is its time on the
        widest bus (rows are monotone), so the unrelated-machines
        bound needs only that column's cached aggregates.
        """
        return self.lower_bound_for_max(max(widths), len(widths))

    def lower_bound_for_max(self, max_part: int, num_buses: int) -> int:
        """:meth:`lower_bound` of any partition with this widest bus.

        The bound depends on a partition only through its largest
        part and its bus count — and it is monotone non-increasing in
        the largest part (wider columns are elementwise faster).
        The sweep walker (:func:`sweep_partitions`) and the sharded
        sweep's merge exploit both facts to count lower-bound-pruned
        partitions in bulk (:func:`lower_bound_cutoff`,
        :func:`repro.partition.enumerate.count_slice_max_at_most`)
        instead of testing them one by one.
        """
        max_time, total = self.column_stats(max_part)
        return column_lower_bound(max_time, total, num_buses)

    def pick_order(
        self, width: int, reference_width: Optional[int] = None
    ) -> Tuple[int, ...]:
        """Core indices in Line 13-16 preference order for one bus.

        Descending time on the width-``width`` bus, ties by descending
        time on the reference bus (the widest strictly narrower one),
        then ascending core index — exactly the legacy ``_pick_core``
        ordering, so the next core to assign is always the first not-
        yet-assigned entry.  Memoized per (width, reference) pair;
        partitions share widths, so the sweep sorts each pair once.
        """
        key = (width, reference_width)
        order = self._orders.get(key)
        if order is None:
            col = self.column(width)
            if reference_width is None:
                order = sorted(
                    range(self.num_cores),
                    key=lambda core: (-col[core], core),
                )
            else:
                ref = self.column(reference_width)
                order = sorted(
                    range(self.num_cores),
                    key=lambda core: (-col[core], -ref[core], core),
                )
            order = tuple(order)
            self._orders[key] = order
        return order

    def bus_context(
        self, width: int, reference_width: Optional[int]
    ) -> BusContext:
        """(column, pick order) for one bus, one list probe when warm."""
        if not 1 <= width <= self.total_width:
            raise ConfigurationError(
                f"width {width} outside matrix range 1..{self.total_width}"
            )
        row = self.context_table()[width]
        context = row[reference_width or 0]
        if context is None:
            context = (
                self.column(width),
                self.pick_order(width, reference_width),
            )
            row[reference_width or 0] = context
        return context

    def context_table(self) -> List[List[Optional[BusContext]]]:
        """``table[width][reference or 0]`` — :meth:`bus_context`'s memo.

        An entry is ``None`` until :meth:`bus_context` fills it; the
        sweep walker reads it by index and calls :meth:`bus_context`
        on a miss.
        """
        if self._contexts is None:
            self._contexts = [
                [None] * (width + 1)
                for width in range(self.total_width + 1)
            ]
        return self._contexts

    def column_sums(self) -> List[int]:
        """Column sum per width (index 0 unused), computed once."""
        if self._sums is None:
            self._sums = [0] + [
                self.column_stats(width)[1]
                for width in range(1, self.total_width + 1)
            ]
        return self._sums

    def times_for(self, widths: Sequence[int]) -> List[List[int]]:
        """Row-major N×B times for ``widths`` (the legacy layout)."""
        cols = [self.column(width) for width in widths]
        return [
            [col[core] for col in cols]
            for core in range(self.num_cores)
        ]

    def to_bytes(self) -> bytes:
        """The flat matrix as native int64 bytes (the task-payload form)."""
        flat = self._flat
        if isinstance(flat, array) and flat.typecode == "q":
            return flat.tobytes()
        return array("q", flat).tobytes()

    @classmethod
    def from_buffer(
        cls,
        buffer: Union[bytes, bytearray, memoryview],
        num_cores: int,
        total_width: int,
    ) -> "DenseTimeMatrix":
        """Zero-copy view over a native int64 buffer."""
        view = memoryview(buffer).cast("q")
        return cls(view, num_cores, total_width)


def build_dense_matrix(
    tables: Sequence[TimeTable], total_width: int
) -> DenseTimeMatrix:
    """Assemble the N×W matrix from per-core tables, once per sweep."""
    if not tables:
        raise ConfigurationError("need at least one core time table")
    # One coarse span per sweep; the kernel's inner assignment loop
    # stays instrumentation-free (RPR001's telemetry discipline).
    with _obs_span(
        "build_dense_matrix", cores=len(tables), W=total_width
    ):
        flat = array("q")
        for table in tables:
            if table.max_width < total_width:
                raise ConfigurationError(
                    f"time table for {table.core.name!r} covers "
                    f"widths up to {table.max_width} < total width "
                    f"{total_width}"
                )
            flat.extend(table.dense_row(total_width))
        return DenseTimeMatrix(flat, len(tables), total_width)


class KernelWorkspace:
    """Reusable scratch arrays for the greedy assignment loop.

    One workspace per sweep keeps the inner loop allocation-free: the
    loads / assignment / cursor lists are grown once and overwritten
    in place per partition, and the assigned-core marks are
    generation-stamped so resetting them costs nothing at all.
    """

    __slots__ = ("_loads", "_assignment", "_cursors", "_stamps",
                 "_generation")

    def __init__(self) -> None:
        self._loads: List[int] = []
        self._assignment: List[int] = []
        self._cursors: List[int] = []
        self._stamps: List[int] = []
        self._generation = 0

    def reserve(self, num_buses: int, num_cores: int) -> None:
        """Grow the scratch lists to fit ``num_buses`` × ``num_cores``."""
        for scratch, size in (
            (self._loads, num_buses), (self._cursors, num_buses),
            (self._assignment, num_cores), (self._stamps, num_cores),
        ):
            if len(scratch) < size:
                scratch.extend([0] * (size - len(scratch)))


def _greedy(
    widths: Sequence[int],
    cols: Sequence[Sequence[int]],
    orders: Sequence[Sequence[int]],
    firsts: Optional[Sequence[int]],
    best_known: Optional[int],
    floors: Optional[Sequence[int]],
    projected: int,
    workspace: KernelWorkspace,
    num_buses: int,
    num_cores: int,
) -> Optional[AssignmentResult]:
    """Lines 9-20 of Fig. 1 over prepared per-bus contexts.

    ``cols[j]`` / ``orders[j]`` are bus ``j``'s column and Line 13-16
    pick order; ``floors`` is the widest bus's column and
    ``projected`` its sum (both only read when ``best_known`` is set).
    ``firsts`` — given only for non-decreasing ``widths`` — holds,
    per bus, the index where its run of equal widths starts; it
    enables the scan-free first round below.  ``workspace`` must be
    reserved for ``num_buses`` × ``num_cores``.  Returns ``None`` on
    abort.
    """
    loads = workspace._loads
    cursors = workspace._cursors
    stamps = workspace._stamps
    assignment = workspace._assignment
    generation = workspace._generation + 1
    workspace._generation = generation
    limit = 0
    area_limit = 0
    if floors is not None:
        assert best_known is not None
        limit = best_known
        # Partial area bound state: ``projected`` is assigned work
        # plus the floor (widest-column time) of every unassigned
        # core — a lower bound on the final total work, so the final
        # makespan is at least ceil(projected / B).
        # ``projected > area_limit`` is that test without the division.
        area_limit = (best_known - 1) * num_buses
    remaining = num_cores

    if firsts is None:
        for bus in range(num_buses):
            loads[bus] = 0
            cursors[bus] = 0
    else:
        # The first round, scan-free.  While every assigned time is
        # > 0, the bus a min-load scan picks (ties to the widest, then
        # the lowest index) is the widest not-yet-loaded bus with the
        # lowest index: loaded buses sit above the unloaded ones' 0.
        # For sorted widths that is each run of equal widths from the
        # widest run down, in index order.  Every bus is loaded once
        # with its cursor at 0, so nothing needs resetting first.
        run_end = num_buses
        run_start = firsts[num_buses - 1]
        bus = run_start
        while True:
            order = orders[bus]
            cursor = 0
            core = order[0]
            while stamps[core] == generation:
                cursor += 1
                core = order[cursor]
            cursors[bus] = cursor
            stamps[core] = generation
            assignment[core] = bus
            best_time = cols[bus][core]
            loads[bus] = best_time
            if floors is not None:
                projected += best_time - floors[core]
                if best_time >= limit or projected > area_limit:
                    return None
            remaining -= 1
            bus += 1
            if bus == run_end:
                if run_start == 0:
                    break  # every bus loaded: the round is over
                run_end = run_start
                run_start = firsts[run_end - 1]
                bus = run_start
            if best_time <= 0 or not remaining:
                # A zero time leaves its bus tied at load 0 (the scan
                # would pick it again), and running out of cores ends
                # the run: zero the buses the round never reached —
                # ``[bus, run_end)`` and every run below — and let the
                # exact scan take over from here.
                for other in range(run_start):
                    loads[other] = 0
                    cursors[other] = 0
                for other in range(bus, run_end):
                    loads[other] = 0
                    cursors[other] = 0
                break

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
            if load >= limit or projected > area_limit:
                return None
        remaining -= 1

    bus_times = tuple(loads[:num_buses])
    return AssignmentResult(
        widths=tuple(widths),
        assignment=tuple(assignment[:num_cores]),
        bus_times=bus_times,
        testing_time=max(bus_times),
    )


def sweep_assign(
    matrix: DenseTimeMatrix,
    widths: Sequence[int],
    best_known: Optional[int] = None,
    workspace: Optional[KernelWorkspace] = None,
) -> Optional[AssignmentResult]:
    """``Core_assign`` over dense columns; ``None`` when aborted.

    The one-partition form of the sweep's greedy (:func:`kernel_assign`
    without the outcome object): builds the per-bus contexts, then
    runs the same routine :func:`sweep_partitions` runs.  Widths in
    any order are accepted; sorted ones get the scan-free first round.
    """
    num_buses = len(widths)
    if num_buses == 0:
        raise ConfigurationError("need at least one bus")
    # Per-bus (column, Line 13-16 pick order), fused and memoized on
    # the matrix across partitions sharing the (width, reference)
    # pair; the reference widths and run starts fall out of the same
    # single pass that detects sorted input.
    cols = []
    orders = []
    firsts: Optional[List[int]] = []
    previous_first = -1
    run_first = 0
    for j, width in enumerate(widths):
        if j and width != widths[j - 1]:
            if width < widths[j - 1]:
                firsts = None
                break
            previous_first = run_first
            run_first = j
        column, order = matrix.bus_context(
            width,
            widths[previous_first] if previous_first >= 0 else None,
        )
        cols.append(column)
        orders.append(order)
        firsts.append(run_first)
    if firsts is None:
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
    workspace.reserve(num_buses, matrix.num_cores)
    floors = None
    projected = 0
    if best_known is not None:
        widest = max(widths)
        floors = matrix.column(widest)
        projected = matrix.column_stats(widest)[1]
    return _greedy(
        widths, cols, orders, firsts, best_known, floors, projected,
        workspace, num_buses, matrix.num_cores,
    )


def lower_bound_cutoff(
    matrix: DenseTimeMatrix,
    num_buses: int,
    max_width: int,
    threshold: int,
) -> int:
    """Largest max part (<= ``max_width``) whose bound meets ``threshold``.

    0 when none does.  :meth:`DenseTimeMatrix.lower_bound_for_max` is
    monotone non-increasing in the max part, so the pruned max parts
    form a prefix — found by binary search over the exact predicate
    the per-partition test applies: a ``num_buses``-partition is
    lower-bound-pruned iff its largest part is <= the cutoff.
    """
    if matrix.lower_bound_for_max(1, num_buses) < threshold:
        return 0
    lo, hi = 1, max_width
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if matrix.lower_bound_for_max(mid, num_buses) >= threshold:
            lo = mid
        else:
            hi = mid - 1
    return lo


#: Called on every completed partition with its canonical rank and
#: result; returns the abort threshold to score the rest under.
OnComplete = Callable[[int, AssignmentResult], Optional[int]]

#: Called every ``refresh_interval`` scored partitions; returns a
#: (possibly tighter) threshold from outside the walk.
Refresh = Callable[[], Optional[int]]


class _Walk:
    """State of one :func:`sweep_partitions` run.

    ``widths`` / ``cols`` / ``orders`` / ``firsts`` / ``refs`` are
    per-depth stacks: entry ``d`` holds bus ``d``'s width, column,
    pick order, run start and reference width (0 for none), all fixed
    by the prefix once depth ``d`` is set — the innermost loop only
    rewrites the last two.
    """

    def __init__(
        self,
        matrix: DenseTimeMatrix,
        total_width: int,
        num_buses: int,
        start: int,
        stop: int,
        on_complete: OnComplete,
        threshold: Optional[int],
        use_lb: bool,
        refresh: Optional[Refresh],
        refresh_interval: int,
        workspace: KernelWorkspace,
    ) -> None:
        self.matrix = matrix
        self.total_width = total_width
        self.num_buses = num_buses
        self.start = start
        self.stop = stop
        self.on_complete = on_complete
        self.use_lb = use_lb
        self.refresh = refresh
        self.refresh_interval = refresh_interval
        self.countdown = refresh_interval
        self.workspace = workspace
        self.rank = 0
        self.completed = 0
        self.lb_pruned = 0
        self.threshold = threshold
        self.cutoff = self._cutoff(threshold)
        self.widths = [0] * num_buses
        self.cols: List[Tuple[int, ...]] = [()] * num_buses
        self.orders: List[Tuple[int, ...]] = [()] * num_buses
        self.firsts = [0] * num_buses
        self.refs = [0] * num_buses
        #: width → column sum (the area bound's starting projection).
        self.sums = matrix.column_sums()
        #: [width][reference width or 0] → (column, pick order).
        self.contexts = matrix.context_table()

    def _cutoff(self, threshold: Optional[int]) -> int:
        """Largest last part pruned by the lower bound (0: none)."""
        if not self.use_lb or threshold is None:
            return 0
        return lower_bound_cutoff(
            self.matrix, self.num_buses, self.total_width, threshold
        )

    def _set(self, depth: int, value: int) -> None:
        """Fix bus ``depth`` to ``value`` on the per-depth stacks."""
        widths = self.widths
        if depth and value == widths[depth - 1]:
            self.firsts[depth] = self.firsts[depth - 1]
            self.refs[depth] = self.refs[depth - 1]
        else:
            self.firsts[depth] = depth
            self.refs[depth] = widths[depth - 1] if depth else 0
        widths[depth] = value
        self.cols[depth], self.orders[depth] = self.matrix.bus_context(
            value, self.refs[depth] or None
        )

    def descend(self, depth: int, remaining: int, minimum: int) -> None:
        """Parts ``depth..B-1`` sum to ``remaining``, each >= ``minimum``."""
        slots = self.num_buses - depth
        if slots == 2:
            self._inner(depth, remaining, minimum)
            return
        for value in range(minimum, remaining // slots + 1):
            rank = self.rank
            if rank >= self.stop:
                return
            rest = remaining - value
            size = count_partitions_min(rest, slots - 1, value)
            if rank + size <= self.start:
                self.rank = rank + size
                continue
            # The subtree's largest last part: every later part at
            # its minimum ``value``.  When even that is lower-bound-
            # pruned, the whole subtree is (the bound is monotone in
            # the last part), and the threshold cannot move while
            # nothing completes — count it in one step.
            if rest - (slots - 2) * value <= self.cutoff:
                self.lb_pruned += (
                    min(rank + size, self.stop) - max(rank, self.start)
                )
                self.rank = rank + size
                continue
            self._set(depth, value)
            self.descend(depth + 1, rest, value)

    def _inner(self, depth: int, remaining: int, minimum: int) -> None:
        """The last two parts: ``value`` and ``remaining - value``."""
        rank = self.rank
        top = remaining // 2
        self.rank = rank + top - minimum + 1
        lo = minimum + max(0, self.start - rank)
        hi = min(top, minimum + self.stop - rank - 1)
        if lo > hi:
            return
        matrix = self.matrix
        num_buses = self.num_buses
        num_cores = matrix.num_cores
        widths = self.widths
        cols = self.cols
        orders = self.orders
        firsts = self.firsts
        sums = self.sums
        contexts = self.contexts
        workspace = self.workspace
        on_complete = self.on_complete
        refresh = self.refresh
        threshold = self.threshold
        cutoff = self.cutoff
        completed = 0
        last_bus = depth + 1
        if depth:
            previous = widths[depth - 1]
            previous_ref = self.refs[depth - 1]
            previous_first = firsts[depth - 1]
        else:
            previous = previous_ref = previous_first = 0
        for value in range(lo, hi + 1):
            last = remaining - value
            if last <= cutoff:
                # The last part only shrinks from here on: the rest
                # of the loop is lower-bound-pruned too.
                self.lb_pruned += hi - value + 1
                break
            if value == previous:
                reference = previous_ref
                first = previous_first
            else:
                reference = previous
                first = depth
            context = contexts[value][reference]
            if context is None:
                context = matrix.bus_context(value, reference or None)
            cols[depth], orders[depth] = context
            if last == value:
                context = contexts[last][reference]
                last_first = first
            else:
                context = contexts[last][value]
                reference = value
                last_first = last_bus
            if context is None:
                context = matrix.bus_context(last, reference or None)
            cols[last_bus], orders[last_bus] = context
            widths[depth] = value
            widths[last_bus] = last
            firsts[depth] = first
            firsts[last_bus] = last_first
            result = _greedy(
                widths, cols, orders, firsts, threshold,
                None if threshold is None else context[0],
                sums[last], workspace, num_buses, num_cores,
            )
            if result is not None:
                completed += 1
                threshold = on_complete(rank + value - minimum, result)
                cutoff = self._cutoff(threshold)
            if refresh is not None:
                self.countdown -= 1
                if self.countdown == 0:
                    self.countdown = self.refresh_interval
                    threshold = refresh()
                    cutoff = self._cutoff(threshold)
        self.completed += completed
        self.threshold = threshold
        self.cutoff = cutoff


def sweep_partitions(
    matrix: DenseTimeMatrix,
    total_width: int,
    num_buses: int,
    start: int,
    stop: int,
    on_complete: OnComplete,
    threshold: Optional[int] = None,
    use_lb: bool = False,
    refresh: Optional[Refresh] = None,
    refresh_interval: int = 1,
    workspace: Optional[KernelWorkspace] = None,
) -> Tuple[int, int]:
    """Enumerate and score canonical ranks ``[start, stop)`` in one pass.

    Walks the ``num_buses``-part partitions of ``total_width`` in the
    canonical order of :func:`repro.partition.enumerate.
    unique_partitions` and runs ``Core_assign`` on each under the
    current abort ``threshold`` — exactly what a loop of
    :func:`sweep_assign` calls over ``unique_partitions`` would do,
    without its per-partition setup: bus contexts live on per-depth
    stacks (only the last two parts change per partition), and the
    greedy's first round needs no min-load scan.  ``on_complete``
    receives every completed partition's rank and result and returns
    the threshold from then on; ``refresh`` (if given) is polled every
    ``refresh_interval`` scored partitions for the same.

    With ``use_lb`` a partition whose :meth:`DenseTimeMatrix.
    lower_bound` meets the threshold is skipped unscored, and since
    the bound is monotone in the last (widest) part, whole loop tails
    and subtrees are skipped by count.  Returns ``(completed,
    lb_pruned)``; every rank in the range is one or the other or
    aborted.
    """
    if not 1 <= num_buses <= total_width <= matrix.total_width:
        raise ConfigurationError(
            f"cannot sweep {num_buses} buses of width {total_width} "
            f"over a matrix covering widths up to {matrix.total_width}"
        )
    size = count_partitions(total_width, num_buses)
    if not 0 <= start <= stop <= size:
        raise ConfigurationError(
            f"rank range [{start}, {stop}) outside the {size} "
            f"partitions of {total_width} into {num_buses} parts"
        )
    if refresh_interval < 1:
        raise ConfigurationError(
            f"refresh_interval must be >= 1, got {refresh_interval}"
        )
    if workspace is None:
        workspace = KernelWorkspace()
    workspace.reserve(num_buses, matrix.num_cores)
    if start == stop:
        return 0, 0
    if num_buses == 1:
        # One partition, ``(total_width,)``: nothing to walk.
        if (
            use_lb and threshold is not None
            and matrix.lower_bound_for_max(total_width, 1) >= threshold
        ):
            return 0, 1
        result = sweep_assign(
            matrix, (total_width,), threshold, workspace
        )
        if result is None:
            return 0, 0
        on_complete(0, result)
        return 1, 0
    walk = _Walk(
        matrix, total_width, num_buses, start, stop, on_complete,
        threshold, use_lb, refresh, refresh_interval, workspace,
    )
    walk.descend(0, total_width, 1)
    return walk.completed, walk.lb_pruned


def kernel_assign(
    matrix: DenseTimeMatrix,
    widths: Sequence[int],
    best_known: Optional[int] = None,
    workspace: Optional[KernelWorkspace] = None,
) -> CoreAssignOutcome:
    """``Core_assign`` over dense columns — bit-identical, allocation-lean.

    Produces exactly the outcome of :func:`repro.assign.core_assign.
    core_assign` on ``matrix.times_for(widths)``: the same result on
    completion, and an abort exactly when the legacy path would have
    aborted — a run completes iff its final time beats ``best_known``.
    The abort itself may fire *earlier* than Lines 18-20: alongside
    the per-bus load check the loop maintains an admissible partial
    area bound (assigned work so far plus every remaining core's
    floor, cf. :func:`repro.assign.lower_bounds.partial_lower_bound`),
    which dooms most partitions steps before a single bus physically
    crosses the incumbent.
    """
    result = sweep_assign(matrix, widths, best_known, workspace)
    if result is None:
        assert best_known is not None
        return CoreAssignOutcome(
            completed=False, testing_time=best_known, result=None
        )
    return CoreAssignOutcome(
        completed=True, testing_time=result.testing_time, result=result
    )


class DenseTimeTable:
    """A times-only :class:`~repro.wrapper.pareto.TimeTable` stand-in.

    Answers :meth:`time` by O(1) matrix lookup and :meth:`design` by
    recovering the staircase breakpoint (leftmost width with the same
    time — where the running-minimum construction stored its design).
    Values are identical to the real table's; pool workers use these
    over the matrix their task carries so they never build private
    tables.

    ``design_steps`` — serialized wrapper-design records keyed by
    breakpoint width, as shipped in point-task payloads
    (:mod:`repro.engine.shm`) — closes the last per-worker
    rebuild gap: a breakpoint with a shipped record is *decoded*, not
    re-designed, so the handful of designs the final utilization
    accounting needs cost zero ``Design_wrapper`` calls too.  Without
    records (or for a width outside them) the table falls back to
    running ``Design_wrapper`` at the breakpoint, as before.
    """

    def __init__(
        self,
        core: Core,
        matrix: DenseTimeMatrix,
        index: int,
        design_steps: Optional[Sequence[Tuple[int, dict]]] = None,
    ) -> None:
        self.core = core
        self.max_width = matrix.total_width
        self._matrix = matrix
        self._index = index
        self._designs: Dict[int, WrapperDesign] = {}
        #: breakpoint width → serialized design record, decoded lazily.
        self._design_steps: Dict[int, dict] = dict(design_steps or ())

    def _check_width(self, width: int) -> None:
        if not 1 <= width <= self.max_width:
            raise ConfigurationError(
                f"width {width} outside table range 1..{self.max_width}"
            )

    def time(self, width: int) -> int:
        """Best testing time of the core on a bus of ``width`` wires."""
        self._check_width(width)
        return self._matrix.time(self._index, width)

    def design(self, width: int) -> WrapperDesign:
        """The design achieving :meth:`time` at ``width``, on demand."""
        self._check_width(width)
        target = self.time(width)
        # Leftmost width attaining the same time: rows are monotone
        # non-increasing, so equality with the target is a monotone
        # predicate and binary search finds the breakpoint.
        low, high = 1, width
        while low < high:
            mid = (low + high) // 2
            if self.time(mid) == target:
                high = mid
            else:
                low = mid + 1
        design = self._designs.get(low)
        if design is None:
            record = self._design_steps.get(low)
            if record is not None:
                # Imported lazily: the serializer sits above this
                # module in the layering.
                from repro.report.serialize import (
                    wrapper_design_from_dict,
                )

                design = wrapper_design_from_dict(record, self.core)
            else:
                design = design_wrapper(self.core, low)
            self._designs[low] = design
        return design

    @property
    def min_time(self) -> int:
        """Testing time at the full table width (the table's best)."""
        return self.time(self.max_width)

    def dense_row(self, max_width: int) -> List[int]:
        """Flat width-indexed times, mirroring ``TimeTable.dense_row``."""
        self._check_width(max_width)
        stride = self._matrix.total_width
        start = self._index * stride
        return list(self._matrix._flat[start:start + max_width])


def dense_time_tables(
    cores: Sequence[Core],
    matrix: DenseTimeMatrix,
    design_steps: Optional[Dict[str, Sequence[Tuple[int, dict]]]] = None,
) -> Dict[str, "DenseTimeTable"]:
    """One :class:`DenseTimeTable` per core over ``matrix``'s rows.

    ``design_steps`` optionally maps core names to their transported
    staircase records (see :func:`repro.engine.shm.attach_design_steps`).
    """
    if len(cores) != matrix.num_cores:
        raise ConfigurationError(
            f"{len(cores)} cores for a {matrix.num_cores}-row matrix"
        )
    steps = design_steps or {}
    return {
        core.name: DenseTimeTable(
            core, matrix, index, design_steps=steps.get(core.name)
        )
        for index, core in enumerate(cores)
    }
