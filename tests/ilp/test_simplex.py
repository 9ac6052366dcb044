"""Unit tests for the LP relaxation adapter."""

import pytest

# The ILP oracle runs on numpy + scipy (the optional ``ilp`` extra).
pytest.importorskip("scipy")

from repro.ilp.model import Model
from repro.ilp.simplex import LpRelaxation


def _simple_model():
    model = Model("m")
    x = model.add_continuous("x", lower=0.0, upper=4.0)
    y = model.add_continuous("y", lower=0.0, upper=4.0)
    model.add_constraint(x + y, "<=", 6)
    model.add_constraint(x - y, ">=", -2)
    model.minimize(-x - 2 * y)
    return model


class TestRelaxation:
    def test_solves_base(self):
        lp = LpRelaxation(_simple_model()).solve()
        assert lp.feasible
        # optimum at x=2, y=4 -> obj = -10
        assert lp.objective == pytest.approx(-10.0)

    def test_bound_overrides(self):
        relax = LpRelaxation(_simple_model())
        lp = relax.solve({1: (0.0, 1.0)})  # y <= 1
        assert lp.feasible
        assert lp.point[1] <= 1.0 + 1e-9

    def test_crossed_override_infeasible(self):
        relax = LpRelaxation(_simple_model())
        lp = relax.solve({0: (3.0, 2.0)})
        assert not lp.feasible

    def test_infeasible_constraints(self):
        model = Model("inf")
        x = model.add_continuous("x", lower=0.0, upper=1.0)
        model.add_constraint(x, ">=", 5)
        model.minimize(x)
        lp = LpRelaxation(model).solve()
        assert not lp.feasible
        assert not lp.unbounded

    def test_unbounded_detected(self):
        model = Model("unb")
        x = model.add_continuous("x")
        y = model.add_continuous("y", upper=1.0)
        model.add_constraint(x + y, ">=", 0)
        model.minimize(-x)
        lp = LpRelaxation(model).solve()
        assert lp.unbounded

    def test_binary_relaxes_to_unit_box(self):
        model = Model("bin")
        x = model.add_binary("x")
        model.minimize(-x)
        lp = LpRelaxation(model).solve()
        assert lp.objective == pytest.approx(-1.0)

    def test_equality_rows(self):
        model = Model("eq")
        x = model.add_continuous("x", upper=10.0)
        y = model.add_continuous("y", upper=10.0)
        model.add_constraint(x + y, "==", 7)
        model.minimize(x)
        lp = LpRelaxation(model).solve()
        assert lp.objective == pytest.approx(0.0)
        assert lp.point[1] == pytest.approx(7.0)
