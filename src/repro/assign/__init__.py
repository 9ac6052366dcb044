"""Core assignment (problem :math:`P_{AW}`).

Three solvers for assigning cores to test buses of fixed widths:

* :func:`~repro.assign.core_assign.core_assign` — the paper's new
  O(N²) heuristic (Fig. 1), with early abort against a best-known
  testing time;
* :func:`~repro.assign.exact.exact_assign` — a dedicated
  branch-and-bound that solves P_AW exactly (the role the ILP model
  of [8] plays in the paper's final optimization step);
* :func:`~repro.assign.ilp_model.solve_paw_ilp` — the paper's actual
  ILP formulation, built on the generic solver in :mod:`repro.ilp`
  (slower; kept for fidelity and cross-validation).  It needs numpy
  and scipy (the ``ilp`` extra), so it is imported on first use, not
  with this package (DESIGN.md §14).
"""

from typing import Any

from repro.assign.core_assign import CoreAssignOutcome, core_assign
from repro.assign.exact import ExactResult, exact_assign
from repro.assign.lower_bounds import paw_lower_bound

_LAZY = ("build_paw_model", "solve_paw_ilp")

__all__ = [
    "CoreAssignOutcome",
    "core_assign",
    "ExactResult",
    "exact_assign",
    "build_paw_model",
    "solve_paw_ilp",
    "paw_lower_bound",
]


def __getattr__(name: str) -> Any:
    """Import the ILP oracle (``build_paw_model``, ``solve_paw_ilp``) on
    first access (PEP 562)."""
    if name in _LAZY:
        from repro.assign import ilp_model

        return getattr(ilp_model, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
