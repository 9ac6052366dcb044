"""Differential oracle: the exact solver against its frozen reference.

``_exact_reference.py`` holds the branch-and-bound as it was before
its node loop was rewritten around the suffix-frontier placement
bound.  The rewrite must make exactly the same pruning and branching
decisions at every node, so the two agree on the answer, the
assignment, the proof flag *and* the node count — also when a node
limit cuts the search short, since the incumbent at any cut depends
only on the node order.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _exact_reference import exact_assign as reference_assign
from repro.assign.exact import DEFAULT_NODE_LIMIT, exact_assign
from repro.soc.data import get_benchmark
from repro.wrapper.pareto import build_time_tables, times_matrix


def outcome(exact):
    return (
        exact.result.testing_time,
        list(exact.result.assignment),
        exact.optimal,
        exact.nodes_explored,
    )


def assert_same(times, widths, node_limit=DEFAULT_NODE_LIMIT):
    new = exact_assign(times, widths, node_limit=node_limit)
    old = reference_assign(times, widths, node_limit=node_limit)
    assert outcome(new) == outcome(old)
    return new


@st.composite
def instances(draw):
    """Small P_AW instances rich in ties, duplicates and dominance.

    Widths repeat often.  Half the instances give equal widths equal
    time columns (as every caller does); the other half draw each
    bus's column independently, so equal widths may come with
    different columns.
    """
    num_buses = draw(st.integers(1, 4))
    num_cores = draw(st.integers(1, 8))
    widths = draw(st.lists(
        st.integers(1, 3), min_size=num_buses, max_size=num_buses
    ))
    values = st.integers(0, 40)
    if draw(st.booleans()):
        by_width = {
            width: draw(st.lists(
                values, min_size=num_cores, max_size=num_cores
            ))
            for width in sorted(set(widths))
        }
        columns = [by_width[width] for width in widths]
    else:
        columns = [
            draw(st.lists(values, min_size=num_cores, max_size=num_cores))
            for _ in widths
        ]
    times = [list(row) for row in zip(*columns)]
    return times, widths


@settings(max_examples=300, deadline=None)
@given(
    instance=instances(),
    node_limit=st.sampled_from([1, 2, 3, 10, 100, DEFAULT_NODE_LIMIT]),
)
def test_random_instances_match_reference(instance, node_limit):
    times, widths = instance
    assert_same(times, widths, node_limit)


#: One partition per ITC'02 SOC whose search is still open at some of
#: the node limits below (d695 proves within ~120 nodes everywhere).
PARTITIONS = {
    "d695": (1, 7, 8, 9),
    "p21241": (4, 4, 4, 4),
    "p31108": (1, 1, 15, 16),
    "p93791": (5, 5, 5, 5),
}


def soc_times(name, widths):
    tables = build_time_tables(get_benchmark(name), max(widths))
    return times_matrix(list(tables.values()), widths)


@pytest.mark.parametrize("node_limit", [1, 100, 5000, 50000])
@pytest.mark.parametrize("name", sorted(PARTITIONS))
def test_itc02_partitions_match_reference_at_any_cut(name, node_limit):
    widths = PARTITIONS[name]
    assert_same(soc_times(name, widths), widths, node_limit)


def test_full_proof_matches_reference():
    exact = assert_same(soc_times("p93791", (4, 4, 4, 4)), (4, 4, 4, 4))
    assert exact.terminated_by == "proof"
    assert exact.nodes_explored > 100_000
