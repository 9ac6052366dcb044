"""Unit tests for the branch-and-bound ILP solver."""

import pytest

# The ILP oracle runs on numpy + scipy (the optional ``ilp`` extra).
pytest.importorskip("scipy")

from repro.exceptions import ConfigurationError
from repro.ilp.branch_and_bound import BranchAndBound, solve_model
from repro.ilp.model import LinExpr, Model
from repro.ilp.solution import SolveStatus


def knapsack_model():
    """max 10a + 6b + 4c s.t. a+b+c<=2  ->  min -(...)."""
    model = Model("knapsack")
    a = model.add_binary("a")
    b = model.add_binary("b")
    c = model.add_binary("c")
    model.add_constraint(a + b + c, "<=", 2)
    model.minimize(-(10 * a + 6 * b + 4 * c))
    return model


class TestSolve:
    def test_knapsack_optimum(self):
        solution = solve_model(knapsack_model())
        assert solution.status is SolveStatus.OPTIMAL
        assert solution.objective == pytest.approx(-16.0)
        assert solution.values["a"] == 1.0
        assert solution.values["b"] == 1.0
        assert solution.values["c"] == 0.0

    def test_pure_lp_no_branching(self):
        model = Model("lp")
        x = model.add_continuous("x", lower=0.0, upper=10.0)
        model.add_constraint(x, ">=", 3)
        model.minimize(x)
        solution = solve_model(model)
        assert solution.status is SolveStatus.OPTIMAL
        assert solution.objective == pytest.approx(3.0)
        assert solution.nodes_explored == 1

    def test_integer_rounding_needed(self):
        # LP optimum fractional; ILP must branch.
        model = Model("frac")
        x = model.add_variable("x", lower=0, upper=10, integer=True)
        y = model.add_variable("y", lower=0, upper=10, integer=True)
        model.add_constraint(2 * x + 3 * y, ">=", 7)
        model.minimize(x + y)
        solution = solve_model(model)
        assert solution.status is SolveStatus.OPTIMAL
        assert solution.objective == pytest.approx(3.0)

    def test_infeasible(self):
        model = Model("inf")
        x = model.add_binary("x")
        model.add_constraint(x, ">=", 2)
        model.minimize(x)
        solution = solve_model(model)
        assert solution.status is SolveStatus.INFEASIBLE
        assert not solution.is_feasible

    def test_unbounded(self):
        model = Model("unb")
        x = model.add_continuous("x")
        y = model.add_binary("y")
        model.add_constraint(x + y, ">=", 0)
        model.minimize(-x)
        solution = solve_model(model)
        assert solution.status is SolveStatus.UNBOUNDED

    def test_equality_constraints(self):
        model = Model("eq")
        x = model.add_binary("x")
        y = model.add_binary("y")
        model.add_constraint(x + y, "==", 1)
        model.minimize(2 * x + y)
        solution = solve_model(model)
        assert solution.objective == pytest.approx(1.0)
        assert solution.values["y"] == 1.0

    def test_objective_constant_carried(self):
        model = Model("const")
        x = model.add_binary("x")
        model.add_constraint(x, ">=", 1)
        model.minimize(x + 100)
        solution = solve_model(model)
        assert solution.objective == pytest.approx(101.0)

    def test_solution_feasibility_certificate(self):
        model = knapsack_model()
        solution = solve_model(model)
        assert solution.check_feasibility(model)

    def test_node_limit(self):
        model = knapsack_model()
        solution = BranchAndBound(model, node_limit=1).solve()
        assert solution.status in (
            SolveStatus.FEASIBLE,
            SolveStatus.NO_SOLUTION,
            SolveStatus.OPTIMAL,   # trivially solved at the root
        )

    def test_invalid_node_limit(self):
        with pytest.raises(ConfigurationError):
            BranchAndBound(knapsack_model(), node_limit=0)


class TestAgainstDedicatedSolver:
    """The generic ILP and the combinatorial B&B must agree on P_AW."""

    @pytest.mark.parametrize("seed", range(3))
    def test_paw_cross_validation(self, seed):
        import random

        from repro.assign.exact import exact_assign
        from repro.assign.ilp_model import solve_paw_ilp

        rng = random.Random(seed)
        times = [
            [rng.randint(5, 50) for _ in range(2)]
            for _ in range(5)
        ]
        widths = [16, 8]
        ilp_result, solution = solve_paw_ilp(times, widths)
        bnb = exact_assign(times, widths)
        assert solution.status is SolveStatus.OPTIMAL
        assert ilp_result.testing_time == bnb.result.testing_time
