"""Unit tests for the literal P_AW ILP formulation."""

import pytest

# The ILP oracle runs on numpy + scipy (the optional ``ilp`` extra).
pytest.importorskip("scipy")

from repro.assign.exact import exact_assign
from repro.assign.ilp_model import (
    build_paw_model,
    extract_assignment,
    solve_paw_ilp,
)
from repro.ilp.solution import Solution, SolveStatus


class TestModelShape:
    def test_variable_count_matches_paper(self, fig2_times, fig2_widths):
        # The paper: N*B (binary) variables; we add the single tau.
        model = build_paw_model(fig2_times, fig2_widths)
        assert model.num_variables == 5 * 3 + 1
        assert len(model.integer_indices) == 15

    def test_constraint_count_matches_paper(self, fig2_times, fig2_widths):
        # N + B constraints.
        model = build_paw_model(fig2_times, fig2_widths)
        assert model.num_constraints == 5 + 3

    def test_objective_is_tau(self, fig2_times, fig2_widths):
        model = build_paw_model(fig2_times, fig2_widths)
        tau = model.variable_by_name("tau")
        assert model.objective.terms == {tau.index: 1.0}


class TestSolve:
    def test_fig2_optimal(self, fig2_times, fig2_widths):
        result, solution = solve_paw_ilp(fig2_times, fig2_widths)
        assert solution.status is SolveStatus.OPTIMAL
        exact = exact_assign(fig2_times, fig2_widths)
        assert result.testing_time == exact.result.testing_time
        assert result.optimal

    def test_every_core_on_one_bus(self, fig2_times, fig2_widths):
        result, _ = solve_paw_ilp(fig2_times, fig2_widths)
        assert len(result.assignment) == 5
        assert all(0 <= bus < 3 for bus in result.assignment)

    def test_single_bus(self):
        times = [[4], [9]]
        result, solution = solve_paw_ilp(times, [8])
        assert result.testing_time == 13
        assert solution.status is SolveStatus.OPTIMAL


class TestExtraction:
    def test_extract_happy_path(self):
        solution = Solution(
            SolveStatus.OPTIMAL, 1.0,
            {"x_0_0": 1.0, "x_0_1": 0.0, "x_1_0": 0.0, "x_1_1": 1.0},
        )
        assert extract_assignment(solution, 2, 2) == [0, 1]

    def test_extract_rejects_unassigned_core(self):
        from repro.exceptions import InfeasibleError
        solution = Solution(
            SolveStatus.OPTIMAL, 1.0,
            {"x_0_0": 0.0, "x_0_1": 0.0},
        )
        with pytest.raises(InfeasibleError):
            extract_assignment(solution, 1, 2)

    def test_extract_rejects_doubly_assigned_core(self):
        from repro.exceptions import InfeasibleError
        solution = Solution(
            SolveStatus.OPTIMAL, 1.0,
            {"x_0_0": 1.0, "x_0_1": 1.0},
        )
        with pytest.raises(InfeasibleError):
            extract_assignment(solution, 1, 2)
