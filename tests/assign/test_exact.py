"""Unit tests for the exact branch-and-bound P_AW solver."""

from itertools import product

import pytest

from repro.assign.core_assign import core_assign
from repro.assign.exact import exact_assign
from repro.exceptions import ConfigurationError
from repro.wrapper.pareto import build_time_tables, times_matrix


def brute_force_makespan(times, num_buses):
    """Reference optimum by full enumeration (small instances only)."""
    best = float("inf")
    for assign in product(range(num_buses), repeat=len(times)):
        loads = [0] * num_buses
        for core, bus in enumerate(assign):
            loads[bus] += times[core][bus]
        best = min(best, max(loads))
    return best


class TestOptimality:
    def test_fig2_instance(self, fig2_times, fig2_widths):
        exact = exact_assign(fig2_times, fig2_widths)
        assert exact.optimal
        assert exact.result.testing_time == brute_force_makespan(
            fig2_times, 3
        )

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_brute_force_random(self, seed):
        import random
        rng = random.Random(seed)
        num_cores = rng.randint(3, 7)
        num_buses = rng.randint(2, 3)
        times = [
            [rng.randint(1, 60) for _ in range(num_buses)]
            for _ in range(num_cores)
        ]
        widths = sorted(
            rng.sample(range(1, 33), num_buses), reverse=True
        )
        exact = exact_assign(times, widths)
        assert exact.optimal
        assert exact.result.testing_time == brute_force_makespan(
            times, num_buses
        )

    def test_never_worse_than_heuristic(self, fig2_times, fig2_widths):
        heuristic = core_assign(fig2_times, fig2_widths)
        exact = exact_assign(fig2_times, fig2_widths)
        assert exact.result.testing_time <= heuristic.testing_time

    def test_result_flag_matches_optimal(self, fig2_times, fig2_widths):
        exact = exact_assign(fig2_times, fig2_widths)
        assert exact.result.optimal == exact.optimal

    def test_warm_start_accepted(self, fig2_times, fig2_widths):
        heuristic = core_assign(fig2_times, fig2_widths)
        exact = exact_assign(
            fig2_times, fig2_widths, incumbent=heuristic.result
        )
        assert exact.optimal
        assert exact.result.testing_time <= heuristic.testing_time


class TestSymmetryAndStructure:
    def test_identical_buses(self):
        times = [[7, 7], [5, 5], [4, 4], [4, 4]]
        exact = exact_assign(times, [8, 8])
        assert exact.optimal
        # Best split of {7,5,4,4}: {7,4} vs {5,4} -> makespan 11.
        assert exact.result.testing_time == 11

    def test_single_bus(self):
        times = [[3], [9], [5]]
        exact = exact_assign(times, [16])
        assert exact.result.testing_time == 17

    def test_one_core_per_bus_possible(self):
        times = [[10, 50], [50, 10]]
        exact = exact_assign(times, [16, 8])
        assert exact.result.testing_time == 10


class TestBudgets:
    def test_node_limit_degrades_gracefully(self, fig2_times, fig2_widths):
        exact = exact_assign(fig2_times, fig2_widths, node_limit=1)
        assert not exact.optimal
        # Still returns the heuristic-quality incumbent.
        heuristic = core_assign(fig2_times, fig2_widths)
        assert exact.result.testing_time <= heuristic.testing_time

    def test_nodes_counted(self, fig2_times, fig2_widths):
        exact = exact_assign(fig2_times, fig2_widths)
        assert exact.nodes_explored >= 1

    def test_proof_terminates_by_proof(self, fig2_times, fig2_widths):
        exact = exact_assign(fig2_times, fig2_widths)
        assert exact.terminated_by == "proof"
        assert exact.optimal

    def test_node_limit_terminates_by_nodes(
        self, fig2_times, fig2_widths
    ):
        exact = exact_assign(fig2_times, fig2_widths, node_limit=1)
        assert exact.terminated_by == "nodes"
        assert not exact.optimal

    def test_deadline_terminates_by_time(self, p93791):
        # The clock is read every 4096 nodes; this partition needs
        # ~175k nodes to prove, so a tiny budget always fires first.
        tables = build_time_tables(p93791, 4)
        widths = [4, 4, 4, 4]
        times = times_matrix(list(tables.values()), widths)
        exact = exact_assign(times, widths, time_limit=1e-9)
        assert exact.terminated_by == "time"
        assert not exact.optimal
        assert exact.nodes_explored == 4096

    def test_invalid_budgets(self, fig2_times, fig2_widths):
        with pytest.raises(ConfigurationError):
            exact_assign(fig2_times, fig2_widths, node_limit=0)
        with pytest.raises(ConfigurationError):
            exact_assign(fig2_times, fig2_widths, time_limit=0)
