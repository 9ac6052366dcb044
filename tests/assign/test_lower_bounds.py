"""Unit tests for P_AW lower bounds."""

from itertools import product
from operator import ge

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.assign.lower_bounds import (
    partial_lower_bound,
    paw_lower_bound,
    placement_lower_bound,
    suffix_frontiers,
)


def test_paw_lower_bound_valid():
    times = [[7, 9], [4, 3], [6, 2], [5, 5]]
    bound = paw_lower_bound(times)
    best = min(
        max(
            sum(times[i][m] for i, mm in enumerate(assign) if mm == m)
            for m in range(2)
        )
        for assign in product(range(2), repeat=4)
    )
    assert bound <= best


def test_partial_bound_empty_remaining():
    assert partial_lower_bound([10, 4], 0) == 10


def test_partial_bound_area():
    # loads 2+2, remaining min sum 8 -> ceil(12/2) = 6
    assert partial_lower_bound([2, 2], 8) == 6


def test_placement_bound_dominant_core():
    loads = [5, 0]
    times = [[100, 200], [1, 1]]
    bound = placement_lower_bound(loads, [0], times)
    assert bound == 105  # core 0 must land somewhere


def test_placement_bound_no_remaining():
    assert placement_lower_bound([3, 7], [], [[1, 1]]) == 7


def test_bounds_consistent_with_exact():
    from repro.assign.exact import exact_assign
    times = [[12, 20], [8, 15], [25, 40], [9, 9]]
    exact = exact_assign(times, [16, 8])
    assert paw_lower_bound(times) <= exact.result.testing_time


@st.composite
def bound_cases(draw):
    """(times, order, loads, depth): a random search node's bound inputs."""
    num_buses = draw(st.integers(1, 5))
    num_cores = draw(st.integers(0, 10))
    row = st.lists(
        st.integers(0, 30), min_size=num_buses, max_size=num_buses
    )
    times = draw(st.lists(row, min_size=num_cores, max_size=num_cores))
    order = draw(st.permutations(range(num_cores)))
    loads = draw(row)
    depth = draw(st.integers(0, num_cores))
    return times, order, loads, depth


@settings(max_examples=300, deadline=None)
@given(bound_cases())
def test_frontier_bound_equals_placement_bound(case):
    times, order, loads, depth = case
    frontier = suffix_frontiers([times[core] for core in order])[depth]
    assert placement_lower_bound(
        loads, range(len(frontier)), frontier
    ) == placement_lower_bound(loads, order[depth:], times)


@settings(max_examples=200, deadline=None)
@given(bound_cases())
def test_frontier_rows_are_undominated_suffix_rows(case):
    times, order, _, depth = case
    rows = [times[core] for core in order]
    frontier = suffix_frontiers(rows)[depth]
    for kept in frontier:
        assert kept in rows[depth:]
        assert not any(
            other is not kept and all(map(ge, other, kept))
            for other in frontier
        )


def test_suffix_frontiers_drop_dominated_and_duplicate_rows():
    rows = [[5, 1], [1, 5], [3, 3], [2, 2], [3, 3]]
    frontiers = suffix_frontiers(rows)
    assert frontiers[0] == [[5, 1], [1, 5], [3, 3]]
    assert frontiers[3] == [[3, 3]]
    assert frontiers[5] == []
