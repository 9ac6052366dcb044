"""repro — wrapper/TAM co-optimization for core-based SOCs.

A production-quality reproduction of:

    Vikram Iyengar, Krishnendu Chakrabarty, Erik Jan Marinissen,
    "Efficient Wrapper/TAM Co-Optimization for Large SOCs", DATE 2002.

Quickstart
----------
>>> from repro import co_optimize
>>> from repro.soc.data import get_benchmark
>>> soc = get_benchmark("d695")
>>> result = co_optimize(soc, total_width=32)
>>> result.testing_time > 0
True

Layered API (bottom-up, matching the paper's problem progression):

* **P_W** — :func:`repro.wrapper.design_wrapper`,
  :class:`repro.wrapper.TimeTable`;
* **P_AW** — :func:`repro.assign.core_assign` (heuristic, Fig. 1),
  :func:`repro.assign.exact_assign` (exact branch-and-bound),
  :func:`repro.assign.solve_paw_ilp` (the literal ILP of [8]; needs
  the optional ``ilp`` extra, numpy + scipy);
* **P_PAW / P_NPAW** — :func:`repro.partition.partition_evaluate`
  (Fig. 3), :func:`repro.optimize.co_optimize` (the full method),
  :func:`repro.optimize.exhaustive_optimize` (the [8] baseline);
* **sweeps at scale** — :class:`repro.engine.WrapperTableCache`
  (build each core's time table once, share it everywhere) and
  :class:`repro.engine.BatchRunner` (parallel (SOC, W, B) grids over
  a process pool);
* **the canonical job spec** — :class:`repro.api.OptimizeSpec` and
  :class:`repro.api.GridSpec`, the typed, schema-versioned,
  content-hashable description of a job shared by ``co_optimize``,
  the batch engine, the exploration service and the CLI.
"""

import logging as _logging

from repro.api import GridSpec, OptimizeSpec
from repro.soc.core import Core
from repro.soc.soc import Soc
from repro.wrapper.design import design_wrapper
from repro.wrapper.pareto import TimeTable, build_time_tables
from repro.wrapper.simulate import simulate_wrapper_test
from repro.assign.core_assign import core_assign
from repro.assign.exact import exact_assign
from repro.partition.evaluate import partition_evaluate
from repro.optimize.co_optimize import co_optimize
from repro.optimize.exhaustive import exhaustive_optimize
from repro.analysis.certificates import certify
from repro.analysis.utilization import analyze_utilization
from repro.engine import BatchJob, BatchRunner, WrapperTableCache
from repro.tam.bus import TamArchitecture
from repro.tam.assignment import AssignmentResult

# Library logging hygiene: the package logs through the standard
# hierarchy and stays silent unless the application configures
# handlers (CLI entry points wire basicConfig via --log-level).
_logging.getLogger(__name__).addHandler(_logging.NullHandler())

__version__ = "1.0.0"

__all__ = [
    "Core",
    "Soc",
    "design_wrapper",
    "TimeTable",
    "build_time_tables",
    "simulate_wrapper_test",
    "core_assign",
    "exact_assign",
    "partition_evaluate",
    "co_optimize",
    "exhaustive_optimize",
    "certify",
    "analyze_utilization",
    "WrapperTableCache",
    "BatchJob",
    "BatchRunner",
    "GridSpec",
    "OptimizeSpec",
    "TamArchitecture",
    "AssignmentResult",
    "__version__",
]
