"""Property-based tests for the generic ILP substrate."""

from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

# The ILP oracle runs on numpy + scipy (the optional ``ilp`` extra).
pytest.importorskip("scipy")

from repro.ilp.branch_and_bound import solve_model
from repro.ilp.model import LinExpr, Model
from repro.ilp.solution import SolveStatus


@st.composite
def knapsacks(draw):
    """Random 0-1 knapsack: max value under a weight cap."""
    n = draw(st.integers(min_value=1, max_value=7))
    values = draw(st.lists(st.integers(min_value=0, max_value=30),
                           min_size=n, max_size=n))
    weights = draw(st.lists(st.integers(min_value=1, max_value=20),
                            min_size=n, max_size=n))
    cap = draw(st.integers(min_value=0, max_value=60))
    return values, weights, cap


def knapsack_brute_force(values, weights, cap):
    best = 0
    n = len(values)
    for choice in product((0, 1), repeat=n):
        weight = sum(w for w, c in zip(weights, choice) if c)
        if weight <= cap:
            best = max(best, sum(v for v, c in zip(values, choice) if c))
    return best


class TestBranchAndBoundProperties:
    @settings(max_examples=40, deadline=None)
    @given(instance=knapsacks())
    def test_knapsack_optimal(self, instance):
        values, weights, cap = instance
        model = Model("kp")
        items = [model.add_binary(f"x{i}") for i in range(len(values))]
        weight_expr = sum(
            (w * x for w, x in zip(weights, items)), start=LinExpr()
        )
        model.add_constraint(weight_expr + 0 * items[0], "<=", cap)
        value_expr = sum(
            (v * x for v, x in zip(values, items)), start=LinExpr()
        )
        model.minimize(-(value_expr) - 0 * items[0])
        solution = solve_model(model)
        assert solution.status is SolveStatus.OPTIMAL
        assert -solution.objective == knapsack_brute_force(
            values, weights, cap
        )
        assert solution.check_feasibility(model)

    @settings(max_examples=30, deadline=None)
    @given(instance=knapsacks())
    def test_solution_certificate_always_valid(self, instance):
        values, weights, cap = instance
        model = Model("kp")
        items = [model.add_binary(f"x{i}") for i in range(len(values))]
        model.add_constraint(
            sum((w * x for w, x in zip(weights, items)), start=LinExpr())
            + 0 * items[0],
            "<=",
            cap,
        )
        model.minimize(
            sum((-v * x for v, x in zip(values, items)), start=LinExpr())
            + 0 * items[0]
        )
        solution = solve_model(model)
        if solution.is_feasible:
            assert solution.check_feasibility(model)
