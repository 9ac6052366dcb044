"""Exact solver for problem P_AW — dedicated branch-and-bound.

Plays the role of the ILP model of [8] in the paper's methodology:
the exhaustive baseline runs it once per width partition, and the
co-optimization pipeline runs it once, on the partition chosen by
``Partition_evaluate``, as the final optimization step.

The problem is makespan minimization on unrelated machines
(R||Cmax): core ``i`` on bus ``j`` costs ``times[i][j]``.  The search:

* warm-starts from ``Core_assign`` (or a caller-provided incumbent),
* branches cores in decreasing order of their minimum time (hardest
  first), child buses in increasing resulting load,
* prunes with the area bound (kept exact in integers from a running
  load total) and the per-core placement bound
  (:func:`~repro.assign.lower_bounds.placement_lower_bound`),
* evaluates the placement bound over the *suffix frontier* only: the
  remaining cores whose time rows no other remaining row dominates
  bus by bus, precomputed per depth before the search starts
  (:func:`~repro.assign.lower_bounds.suffix_frontiers`).  A dominated
  core never sets the maximum, so the bound's value — and with it
  every prune, the node order and the node count — is exactly the
  one the full O(remaining cores × buses) bound gives.  On the
  p21241 and p93791 partitions of the benchmark's exact grid the
  frontier holds 1–3 rows where the suffix holds up to 32 cores,
* breaks bus symmetry: a core never tries a bus whose (width, load)
  state duplicates an earlier bus's,
* degrades gracefully under node/time budgets, returning the incumbent
  with ``optimal=False`` and the budget that fired in
  ``terminated_by`` (the paper notes some p21241 models were
  "particularly intractable" — the budget is how we keep the pipeline
  responsive on such instances).
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass
from operator import add
from typing import List, Optional, Sequence

from repro.assign.core_assign import core_assign
from repro.assign.lower_bounds import (
    paw_lower_bound,
    suffix_frontiers,
)
from repro.exceptions import ConfigurationError
from repro.tam.assignment import AssignmentResult, evaluate_assignment

#: Default search budgets; generous for the paper's instance sizes
#: (N <= 32, B <= 10) yet bounded so no single partition stalls a sweep.
DEFAULT_NODE_LIMIT = 2_000_000
DEFAULT_TIME_LIMIT = 30.0


@dataclass(frozen=True)
class ExactResult:
    """Outcome of the branch-and-bound search.

    ``terminated_by`` names what ended the search: ``"proof"`` (the
    search finished, so the answer is optimal), or the ``"nodes"`` or
    ``"time"`` budget.  ``optimal`` is ``terminated_by == "proof"``.
    """

    result: AssignmentResult
    optimal: bool
    nodes_explored: int
    elapsed_seconds: float
    terminated_by: str


class _Search:
    """Mutable state of one branch-and-bound run."""

    def __init__(
        self,
        times: Sequence[Sequence[int]],
        widths: Sequence[int],
        node_limit: int,
        time_limit: float,
    ) -> None:
        self.times = times
        self.widths = widths
        self.num_cores = len(times)
        self.num_buses = len(widths)
        self.node_limit = node_limit
        self.time_limit = time_limit
        self.deadline = _time.monotonic() + time_limit
        self.nodes = 0
        self.terminated_by = "proof"

        # Hardest cores first: decreasing minimum time, then
        # decreasing maximum time.
        self.order = sorted(
            range(self.num_cores),
            key=lambda i: (min(times[i]), max(times[i])),
            reverse=True,
        )
        # suffix_min_sum[k]: total of per-core minimum times for
        # cores order[k:], for the area bound.
        self.suffix_min_sum = [0] * (self.num_cores + 1)
        for k in range(self.num_cores - 1, -1, -1):
            core = self.order[k]
            self.suffix_min_sum[k] = (
                self.suffix_min_sum[k + 1] + min(times[core])
            )

        self.best_time = float("inf")
        self.best_assignment: Optional[List[int]] = None
        self.global_lower_bound = paw_lower_bound(times)

    def seed(self, assignment: Sequence[int], testing_time: int) -> None:
        """Install a warm-start incumbent."""
        if testing_time < self.best_time:
            self.best_time = testing_time
            self.best_assignment = list(assignment)

    # ------------------------------------------------------------------
    def run(self) -> None:
        """Depth-first search from the empty assignment.

        The node loop is a closure over locals (the hot state), with
        a running load total for the area bound and the per-depth
        frontiers for the placement bound; see the module docstring.
        """
        times = self.times
        widths = self.widths
        num_cores = self.num_cores
        num_buses = self.num_buses
        node_limit = self.node_limit
        deadline = self.deadline
        global_lower_bound = self.global_lower_bound
        suffix_min_sum = self.suffix_min_sum
        order = self.order
        rows = [times[core] for core in order]
        frontiers = suffix_frontiers(rows)
        # Symmetry rule: a bus is skipped when an earlier bus of the
        # same width carries the same load.
        twins = [
            [earlier for earlier in range(bus)
             if widths[earlier] == widths[bus]]
            for bus in range(num_buses)
        ]
        loads = [0] * num_buses
        assignment = [0] * num_cores
        nodes = 0
        best = self.best_time
        best_assignment = self.best_assignment
        stop = "proof"

        def visit(depth: int, total: int) -> None:
            nonlocal nodes, best, best_assignment, stop
            nodes += 1
            if nodes >= node_limit:
                stop = "nodes"
                return
            if nodes % 4096 == 0 and _time.monotonic() > deadline:
                stop = "time"
                return

            if depth == num_cores:
                makespan = max(loads)
                if makespan < best:
                    best = makespan
                    best_assignment = list(assignment)
                return

            # Prune on bounds (strictly-better semantics): the area
            # bound, then the placement bound over the frontier.
            if max(loads) >= best:
                return
            if -(-(total + suffix_min_sum[depth]) // num_buses) >= best:
                return
            for frontier_row in frontiers[depth]:
                if min(map(add, loads, frontier_row)) >= best:
                    return
            if best <= global_lower_bound:
                # Incumbent already provably optimal; cut everything.
                return

            core = order[depth]
            row = rows[depth]
            candidates = []
            bus = 0
            for new_load in map(add, loads, row):
                if new_load < best:
                    for earlier in twins[bus]:
                        if loads[earlier] == loads[bus]:
                            break
                    else:
                        candidates.append((new_load, bus))
                bus += 1
            candidates.sort()

            for new_load, bus in candidates:
                if new_load >= best:
                    break  # sorted: the rest are no better
                loads[bus] = new_load
                assignment[core] = bus
                visit(depth + 1, total + row[bus])
                loads[bus] = new_load - row[bus]
                if stop != "proof":
                    return

        visit(0, 0)
        self.nodes = nodes
        self.best_time = best
        self.best_assignment = best_assignment
        self.terminated_by = stop


def exact_assign(
    times: Sequence[Sequence[int]],
    widths: Sequence[int],
    incumbent: Optional[AssignmentResult] = None,
    node_limit: int = DEFAULT_NODE_LIMIT,
    time_limit: float = DEFAULT_TIME_LIMIT,
) -> ExactResult:
    """Solve P_AW exactly (within budgets) for fixed bus widths.

    Parameters
    ----------
    times / widths:
        As for :func:`repro.assign.core_assign.core_assign`.
    incumbent:
        Optional warm-start assignment (e.g. from the heuristic); the
        solver also always runs ``Core_assign`` itself, so passing one
        only helps when it beats the heuristic.
    node_limit / time_limit:
        Search budgets.  On exhaustion the best-found assignment is
        returned with ``optimal=False`` and ``terminated_by`` set to
        ``"nodes"`` or ``"time"``.

    Returns
    -------
    :class:`ExactResult` — the assignment, an optimality flag, what
    ended the search, and search statistics.
    """
    if node_limit < 1:
        raise ConfigurationError(f"node_limit must be >= 1: {node_limit}")
    if time_limit <= 0:
        raise ConfigurationError(f"time_limit must be > 0: {time_limit}")

    start = _time.monotonic()
    search = _Search(times, widths, node_limit, time_limit)

    heuristic = core_assign(times, widths)
    assert heuristic.result is not None  # no best_known => completes
    search.seed(heuristic.result.assignment, heuristic.testing_time)
    if incumbent is not None:
        search.seed(incumbent.assignment, incumbent.testing_time)

    search.run()
    elapsed = _time.monotonic() - start

    assert search.best_assignment is not None
    optimal = search.terminated_by == "proof"
    result = evaluate_assignment(
        times,
        widths,
        search.best_assignment,
        optimal=optimal,
    )
    return ExactResult(
        result=result,
        optimal=optimal,
        nodes_explored=search.nodes,
        elapsed_seconds=elapsed,
        terminated_by=search.terminated_by,
    )
