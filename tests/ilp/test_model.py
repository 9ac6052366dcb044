"""Unit tests for the ILP modeling layer."""

import pytest

# The ILP oracle runs on numpy + scipy (the optional ``ilp`` extra).
pytest.importorskip("scipy")

from repro.exceptions import ConfigurationError, ValidationError
from repro.ilp.model import LinExpr, Model


class TestVariables:
    def test_add_variable(self):
        model = Model("m")
        x = model.add_variable("x", lower=1.0, upper=4.0)
        assert x.index == 0
        assert model.num_variables == 1

    def test_binary(self):
        model = Model("m")
        b = model.add_binary("b")
        assert b.integer and b.lower == 0.0 and b.upper == 1.0

    def test_continuous_default_unbounded_above(self):
        model = Model("m")
        t = model.add_continuous("t")
        assert t.upper == float("inf")

    def test_duplicate_name_rejected(self):
        model = Model("m")
        model.add_binary("x")
        with pytest.raises(ConfigurationError):
            model.add_binary("x")

    def test_crossed_bounds_rejected(self):
        model = Model("m")
        with pytest.raises(ConfigurationError):
            model.add_variable("x", lower=5.0, upper=1.0)

    def test_lookup_by_name(self):
        model = Model("m")
        x = model.add_binary("x")
        assert model.variable_by_name("x") is x

    def test_integer_indices(self):
        model = Model("m")
        model.add_binary("a")
        model.add_continuous("t")
        model.add_binary("b")
        assert model.integer_indices == [0, 2]


class TestExpressions:
    def _xy(self):
        model = Model("m")
        return model, model.add_binary("x"), model.add_binary("y")

    def test_addition(self):
        _, x, y = self._xy()
        expr = x + y + 3
        assert expr.terms == {0: 1.0, 1: 1.0}
        assert expr.constant == 3.0

    def test_scaling(self):
        _, x, y = self._xy()
        expr = 2 * x - 3 * y
        assert expr.terms == {0: 2.0, 1: -3.0}

    def test_subtraction_cancels(self):
        _, x, _ = self._xy()
        expr = (x + 1) - (x * 1.0)
        assert expr.terms.get(0, 0.0) == 0.0
        assert expr.constant == 1.0

    def test_rsub(self):
        _, x, _ = self._xy()
        expr = 5 - x
        assert expr.terms == {0: -1.0}
        assert expr.constant == 5.0

    def test_negation(self):
        _, x, _ = self._xy()
        assert (-x).terms == {0: -1.0}

    def test_sum_builtin(self):
        model, x, y = self._xy()
        z = model.add_binary("z")
        expr = sum((x, y, z), start=LinExpr())
        assert set(expr.terms) == {0, 1, 2}

    def test_non_number_scale_rejected(self):
        _, x, y = self._xy()
        with pytest.raises(TypeError):
            x * y  # bilinear is out of scope

    def test_repr_stable(self):
        _, x, _ = self._xy()
        assert "v0" in repr(x + 1)


class TestConstraintsAndObjective:
    def test_constant_folded_into_rhs(self):
        model = Model("m")
        x = model.add_binary("x")
        constraint = model.add_constraint(x + 5, "<=", 7)
        assert constraint.rhs == 2.0
        assert constraint.terms == {0: 1.0}

    def test_expression_rhs(self):
        model = Model("m")
        x = model.add_binary("x")
        y = model.add_binary("y")
        constraint = model.add_constraint(x, "<=", y)
        assert constraint.terms == {0: 1.0, 1: -1.0}
        assert constraint.rhs == 0.0

    def test_invalid_sense(self):
        model = Model("m")
        x = model.add_binary("x")
        with pytest.raises(ConfigurationError):
            model.add_constraint(x, "<", 1)

    def test_vacuous_constraint_rejected(self):
        model = Model("m")
        x = model.add_binary("x")
        with pytest.raises(ValidationError):
            model.add_constraint(x - x, "<=", 1)

    def test_objective_required(self):
        model = Model("m")
        model.add_binary("x")
        with pytest.raises(ConfigurationError):
            _ = model.objective

    def test_describe_counts(self):
        model = Model("m")
        x = model.add_binary("x")
        t = model.add_continuous("t")
        model.add_constraint(x - t, "<=", 0)
        model.minimize(t)
        text = model.describe()
        assert "2 variables" in text and "1 integer" in text
        assert "1 constraints" in text
