"""Lower bounds for problem P_AW, used by the exact solver's pruning.

All bounds take the per-core/per-bus times matrix; buses are unrelated
machines because a core's time depends on its bus's width.
"""

from __future__ import annotations

from math import ceil
from operator import ge
from typing import List, Sequence

from repro.exceptions import ConfigurationError
from repro.schedule.makespan import (
    saturation_lower_bound,
    unrelated_lower_bound,
)


def paw_lower_bound(times: Sequence[Sequence[int]]) -> int:
    """Best static lower bound on the P_AW makespan."""
    return unrelated_lower_bound(times)


def column_lower_bound(
    max_time: int, total_time: int, num_buses: int
) -> int:
    """:func:`paw_lower_bound` from widest-column aggregates, in O(1).

    Per-core testing times are monotone non-increasing in bus width,
    so for any width partition every core's minimum over its buses is
    its time on the *widest* bus.  Given that column's maximum
    (:func:`~repro.schedule.makespan.saturation_lower_bound`) and sum
    (the area bound's numerator), the full unrelated-machines bound
    collapses to this closed form — the O(1)-per-partition bound the
    dense sweep kernel (:mod:`repro.engine.kernel`) prunes with.
    """
    if num_buses < 1:
        raise ConfigurationError(
            f"num_buses must be >= 1, got {num_buses}"
        )
    return max(max_time, ceil(total_time / num_buses))


def partial_lower_bound(
    loads: Sequence[int],
    remaining_min_sum: int,
) -> int:
    """Bound for a partial assignment inside branch-and-bound.

    ``loads`` are the current bus times; every still-unassigned core
    will add at least its own minimum time (summed in
    ``remaining_min_sum``) to the total work.
    """
    num_buses = len(loads)
    area = ceil((sum(loads) + remaining_min_sum) / num_buses)
    return max(max(loads), area)


def placement_lower_bound(
    loads: Sequence[int],
    remaining: Sequence[int],
    times: Sequence[Sequence[int]],
) -> int:
    """Per-core placement bound: each remaining core must land somewhere.

    For every unassigned core the cheapest completed-bus time it can
    achieve is ``min_j (loads[j] + times[core][j])``; the makespan is
    at least the largest of these.  Tighter than the area bound when
    one oversized core dominates (the p31108 situation).

    This is the reference definition.  The exact solver
    (:mod:`repro.assign.exact`) evaluates the same value per node over
    the rows :func:`suffix_frontiers` keeps, and the property tests
    hold the two equal.
    """
    bound = max(loads) if loads else 0
    for core in remaining:
        best = min(
            loads[bus] + times[core][bus] for bus in range(len(loads))
        )
        if best > bound:
            bound = best
    return bound


def suffix_frontiers(
    rows: Sequence[Sequence[int]],
) -> List[List[Sequence[int]]]:
    """Per depth ``k``, the rows of ``rows[k:]`` no other row dominates.

    A row *dominates* another when it is at least as large on every
    bus (of equal rows one copy is kept).  A dominated core never
    sets the maximum in :func:`placement_lower_bound`, so that bound
    over ``frontiers[k]`` equals the bound over ``rows[k:]``.  Built
    back to front in O(n·|F|·B) for n rows, frontier size |F| and B
    buses: a new row either is dominated by the current frontier
    (which then carries over unchanged) or joins it and evicts the
    rows it dominates.  The last entry, ``frontiers[n]``, is empty.
    """
    frontier: List[Sequence[int]] = []
    frontiers = [frontier]
    for row in reversed(rows):
        if not any(all(map(ge, other, row)) for other in frontier):
            frontier = [row] + [
                other for other in frontier
                if not all(map(ge, row, other))
            ]
        frontiers.append(frontier)
    frontiers.reverse()
    return frontiers


__all__ = [
    "column_lower_bound",
    "paw_lower_bound",
    "partial_lower_bound",
    "placement_lower_bound",
    "saturation_lower_bound",
    "suffix_frontiers",
]
