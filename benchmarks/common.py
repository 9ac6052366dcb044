"""Shared benchmark helpers: the ``BENCH_*.json`` record schema and the
paper-table assertions.

Every perf-bearing benchmark archives its machine-readable result at
the repository root in one shape, so the files can be compared across
benches and across time::

    {
      "schema": 2,
      "kind": "<bench name>",
      "latest": <record>,
      "history": [<record>, ...]          # oldest first, bounded
    }

where each ``<record>`` is :func:`bench_record`'s output::

    {
      "name": "<bench name>",
      "config": {...},                    # what was measured
      "samples": [...],                   # the measured rows
      "speedup": <headline ratio or None>,
      "cpu_count": <os.cpu_count()>,
      "timestamp": <unix seconds>
    }

``append_history`` keeps every previous run in ``history`` (bounded)
instead of overwriting — the trajectory is the point: a perf
regression shows up as the newest entry breaking the trend.  A
pre-existing schema-1 file (the old write-the-dict-wholesale form) is
preserved verbatim as the first history entry under a ``legacy`` key,
never dropped.

The ``speedup`` headline is a ratio of two wall-clock times measured
in the same process on the same inputs, so it transfers across
machines in a way absolute milliseconds do not; CI floors are set
against it.

The rest of the module holds the shared assertions and rendering of
the paper-table benches.  The three Philips SOCs are deterministic
stand-ins built from the paper's published ranges, so those benches
check the paper's *relative* claims (heuristic vs exhaustive quality,
CPU advantage, monotonicity, saturation) rather than absolute cycle
counts.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from repro.engine import BatchRunner, grid_rows
from repro.engine.batch import BATCH_COLUMNS
from repro.report.experiments import (
    PAPER_WIDTHS,
    run_npaw,
    run_paw_comparison,
    rows_to_table,
)

#: How many history entries a BENCH_*.json retains (oldest dropped).
HISTORY_LIMIT = 50

BENCH_SCHEMA = 2


def bench_record(
    name: str,
    config: Dict[str, Any],
    samples: List[Dict[str, Any]],
    speedup: Optional[float] = None,
) -> Dict[str, Any]:
    """One benchmark run in the shared result shape."""
    return {
        "name": name,
        "config": config,
        "samples": samples,
        "speedup": speedup,
        "cpu_count": os.cpu_count(),
        "timestamp": time.time(),
    }


def load_bench(path: Path) -> Optional[Dict[str, Any]]:
    """The parsed ``BENCH_*.json`` document, or ``None`` if absent."""
    if not path.exists():
        return None
    return json.loads(path.read_text())


def latest_record(path: Path) -> Optional[Dict[str, Any]]:
    """The newest :func:`bench_record` stored at ``path``, if any.

    Schema-1 files predate the record shape and answer ``None`` —
    callers that need a baseline out of one read its fields directly.
    """
    doc = load_bench(path)
    if doc is None or doc.get("schema") != BENCH_SCHEMA:
        return None
    return doc.get("latest")


def append_history(
    path: Path,
    record: Dict[str, Any],
    keep: int = HISTORY_LIMIT,
) -> Dict[str, Any]:
    """Append ``record`` to the trajectory at ``path`` and rewrite it.

    Returns the document written.  An existing schema-1 file is
    migrated: the old document rides on as ``history[0]`` under a
    ``legacy`` key.
    """
    doc = load_bench(path)
    if doc is None:
        history: List[Dict[str, Any]] = []
    elif doc.get("schema") == BENCH_SCHEMA:
        history = list(doc.get("history", []))
    else:
        history = [{"legacy": doc}]
    history.append(record)
    history = history[-keep:]
    document = {
        "schema": BENCH_SCHEMA,
        "kind": record["name"],
        "latest": record,
        "history": history,
    }
    path.write_text(json.dumps(document, indent=2) + "\n")
    return document


COMPARISON_COLUMNS = [
    "W", "old_partition", "T_old", "t_old_s",
    "new_partition", "T_new", "t_new_s", "delta_pct", "cpu_ratio",
]
NPAW_COLUMNS = ["W", "B", "partition", "T_new", "t_new_s"]


def run_batch_sweep(
    socs: Sequence,
    widths: Sequence[int],
    max_workers: "int | None" = None,
    options: "Dict[str, object] | None" = None,
) -> List[Dict[str, object]]:
    """Sweep ``socs`` x ``widths`` through the parallel batch engine.

    ``options`` are forwarded to every job's ``co_optimize`` call.
    Returns one row per grid point in job order, ready for
    :func:`rows_to_table` with ``BATCH_COLUMNS``.
    """
    runner = BatchRunner(max_workers=max_workers)
    return grid_rows(runner.run_grid(socs, widths, options=options))


def run_comparison_bench(
    benchmark,
    report,
    soc,
    num_tams: int,
    result_name: str,
    title: str,
    widths: Sequence[int] = PAPER_WIDTHS,
    delta_tolerance_pct: float = 25.0,
    exhaustive_time_per_partition: float = 2.0,
    exhaustive_total_time: float = 180.0,
) -> List[Dict[str, object]]:
    """Run one fixed-B comparison table and assert the paper's shape."""
    rows = benchmark.pedantic(
        run_paw_comparison,
        args=(soc, num_tams),
        kwargs={
            "widths": widths,
            "exhaustive_time_per_partition": exhaustive_time_per_partition,
            "exhaustive_total_time": exhaustive_total_time,
        },
        rounds=1,
        iterations=1,
    )
    report(result_name, rows_to_table(rows, COMPARISON_COLUMNS, title=title))

    for row in rows:
        if row["old_complete"]:
            # The heuristic can never beat a proven-exact sweep...
            assert row["delta_pct"] >= -1e-9, row
        # ...and the paper's envelope keeps it within ~20% above
        # (worst entry in the paper: +17.62%; allow a little slack
        # on the synthesized instances).
        assert row["delta_pct"] <= delta_tolerance_pct, row

    old_times = [row["T_old"] for row in rows]
    new_times = [row["T_new"] for row in rows]
    assert all(a >= 0.98 * b for a, b in zip(old_times, old_times[1:]))
    assert all(a >= 0.98 * b for a, b in zip(new_times, new_times[1:]))
    return rows


def run_npaw_bench(
    benchmark,
    report,
    soc,
    result_name: str,
    title: str,
    widths: Sequence[int] = PAPER_WIDTHS,
    max_tams: int = 10,
) -> List[Dict[str, object]]:
    """Run one P_NPAW table and assert the paper's shape."""
    rows = benchmark.pedantic(
        run_npaw,
        args=(soc,),
        kwargs={"widths": widths, "max_tams": max_tams},
        rounds=1,
        iterations=1,
    )
    report(
        result_name,
        rows_to_table(rows, NPAW_COLUMNS + ["assignment"], title=title),
    )

    times = [row["T_new"] for row in rows]
    assert all(a >= 0.98 * b for a, b in zip(times, times[1:]))
    for row in rows:
        assert sum(map(int, row["partition"].split("+"))) == row["W"]
        assert 1 <= row["B"] <= max_tams
    return rows
