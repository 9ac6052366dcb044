"""Importing the package must not load numpy or scipy.

Only the literal ILP oracle (``repro.ilp``, ``repro.assign.ilp_model``)
needs them, and it is imported on first use.  Each check runs in a
fresh interpreter so modules the test session already loaded do not
hide an eager import.
"""

import json
import os
import subprocess
import sys

import pytest

import repro

#: The directory holding the ``repro`` package under test.
SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

#: The entry points a user or a worker process starts from.
ENTRY_MODULES = (
    "repro",
    "repro.cli",
    "repro.service",
    "repro.engine.batch",
    "repro.search",
)

ASSIGN_ALL = [
    "CoreAssignOutcome",
    "core_assign",
    "ExactResult",
    "exact_assign",
    "build_paw_model",
    "solve_paw_ilp",
    "paw_lower_bound",
]


def _run(script):
    """Run ``script`` in a fresh interpreter; its stdout parsed as JSON."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + env.get("PYTHONPATH", "").split(os.pathsep)
    )
    done = subprocess.run(
        [sys.executable, "-c", script],
        env=env, capture_output=True, text=True, check=True, timeout=120,
    )
    return json.loads(done.stdout)


def test_entry_points_load_neither_numpy_nor_scipy():
    loaded = _run(
        "import importlib, json, sys\n"
        f"for name in {ENTRY_MODULES!r}:\n"
        "    importlib.import_module(name)\n"
        "print(json.dumps(sorted(\n"
        "    m for m in sys.modules\n"
        "    if m.split('.')[0] in ('numpy', 'scipy')\n"
        ")))\n"
    )
    assert loaded == []


def test_assign_all_is_unchanged_and_loads_nothing_heavy():
    report = _run(
        "import json, sys\n"
        "import repro.assign\n"
        "print(json.dumps({\n"
        "    'all': repro.assign.__all__,\n"
        "    'scipy': 'scipy' in sys.modules,\n"
        "    'oracle': 'repro.assign.ilp_model' in sys.modules,\n"
        "}))\n"
    )
    assert report == {"all": ASSIGN_ALL, "scipy": False, "oracle": False}


def test_unknown_attribute_still_raises():
    import repro.assign

    with pytest.raises(AttributeError, match="no_such_solver"):
        repro.assign.no_such_solver


def test_oracle_resolves_lazily_when_scipy_is_present():
    pytest.importorskip("scipy")
    report = _run(
        "import json, sys\n"
        "import repro.assign\n"
        "from repro.assign import build_paw_model, solve_paw_ilp\n"
        "from repro.assign import ilp_model\n"
        "ns = {}\n"
        "exec('from repro.assign import *', ns)\n"
        "print(json.dumps({\n"
        "    'same': solve_paw_ilp is ilp_model.solve_paw_ilp\n"
        "            and build_paw_model is ilp_model.build_paw_model\n"
        "            and repro.assign.solve_paw_ilp is solve_paw_ilp,\n"
        "    'star': sorted(k for k in ns if not k.startswith('_')),\n"
        "    'scipy': 'scipy' in sys.modules,\n"
        "}))\n"
    )
    assert report == {"same": True, "star": sorted(ASSIGN_ALL),
                      "scipy": True}
