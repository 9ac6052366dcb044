"""Frozen reference copy of the exact P_AW branch-and-bound.

This is the solver as it stood before its node loop was rewritten
around the grouped, frontier-pruned placement bound, kept verbatim
as the differential oracle of ``test_exact_oracle.py``: the
production :func:`repro.assign.exact.exact_assign` must return the
same ``testing_time``, ``assignment``, ``optimal`` flag and
``nodes_explored`` on every instance, whether the search ends by
proof or by its node limit.  Do not optimize this file.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.assign.core_assign import core_assign
from repro.assign.exact import DEFAULT_NODE_LIMIT, DEFAULT_TIME_LIMIT
from repro.assign.lower_bounds import (
    partial_lower_bound,
    placement_lower_bound,
    paw_lower_bound,
)
from repro.exceptions import ConfigurationError
from repro.tam.assignment import AssignmentResult, evaluate_assignment


@dataclass(frozen=True)
class ExactResult:
    """Outcome of the branch-and-bound search."""

    result: AssignmentResult
    optimal: bool
    nodes_explored: int
    elapsed_seconds: float


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
        self.exhausted = False

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
        assignment = [0] * self.num_cores
        loads = [0] * self.num_buses
        self._dfs(0, assignment, loads)

    def _dfs(
        self, depth: int, assignment: List[int], loads: List[int]
    ) -> None:
        if self.exhausted:
            return
        self.nodes += 1
        if self.nodes >= self.node_limit:
            self.exhausted = True
            return
        if self.nodes % 4096 == 0 and _time.monotonic() > self.deadline:
            self.exhausted = True
            return

        if depth == self.num_cores:
            makespan = max(loads)
            if makespan < self.best_time:
                self.best_time = makespan
                self.best_assignment = list(assignment)
            return

        # Prune on bounds (strictly-better semantics).
        area = partial_lower_bound(loads, self.suffix_min_sum[depth])
        if area >= self.best_time:
            return
        placement = placement_lower_bound(
            loads, self.order[depth:], self.times
        )
        if placement >= self.best_time:
            return
        if self.best_time <= self.global_lower_bound:
            # Incumbent already provably optimal; cut everything.
            return

        core = self.order[depth]
        row = self.times[core]

        # Symmetry breaking: among buses in identical (width, load)
        # states the core only tries the first.
        candidates = []
        seen_states = set()
        for bus in range(self.num_buses):
            state = (self.widths[bus], loads[bus])
            if state in seen_states:
                continue
            seen_states.add(state)
            new_load = loads[bus] + row[bus]
            if new_load < self.best_time:
                candidates.append((new_load, bus))
        candidates.sort()

        for new_load, bus in candidates:
            if new_load >= self.best_time:
                break  # sorted: the rest are no better
            loads[bus] = new_load
            assignment[core] = bus
            self._dfs(depth + 1, assignment, loads)
            loads[bus] = new_load - row[bus]
            if self.exhausted:
                return


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
        returned with ``optimal=False``.

    Returns
    -------
    :class:`ExactResult` — the assignment, an optimality flag, and
    search statistics.
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
    result = evaluate_assignment(
        times,
        widths,
        search.best_assignment,
        optimal=not search.exhausted,
    )
    return ExactResult(
        result=result,
        optimal=not search.exhausted,
        nodes_explored=search.nodes,
        elapsed_seconds=elapsed,
    )
