"""Generic mixed 0-1 integer linear programming substrate.

The paper's exact method formulates P_AW as an ILP and solves it with
``lpsolve 3.0`` [2].  No ILP solver ships with this environment, so
this subpackage provides one from scratch:

* :mod:`~repro.ilp.model` — a small modeling layer (variables, linear
  expressions, constraints, objective);
* :mod:`~repro.ilp.simplex` — LP relaxations via
  ``scipy.optimize.linprog`` (HiGHS);
* :mod:`~repro.ilp.branch_and_bound` — best-bound branch-and-bound on
  fractional variables, with node budgets;
* :mod:`~repro.ilp.solution` — solution/status reporting.

The dedicated combinatorial solver in :mod:`repro.assign.exact` is
much faster on P_AW's structure; this generic path exists for
fidelity to the paper and as an independent cross-check (the two are
tested against each other).  It needs numpy and scipy, the optional
``ilp`` extra (``pip install .[ilp]``); nothing else in the package
imports it.
"""

from repro.ilp.model import LinExpr, Model, Variable
from repro.ilp.branch_and_bound import BranchAndBound, solve_model
from repro.ilp.solution import Solution, SolveStatus

__all__ = [
    "LinExpr",
    "Model",
    "Variable",
    "BranchAndBound",
    "solve_model",
    "Solution",
    "SolveStatus",
]
