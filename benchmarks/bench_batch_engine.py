"""Batch engine — the four embedded benchmarks swept in parallel.

The :class:`repro.engine.BatchRunner` fans (SOC, W) jobs over a
process pool with per-worker wrapper-table caches.  This bench runs
the four embedded SOCs at the smaller paper widths and asserts the
engine's core contract: the parallel grid reproduces, point for
point, the per-width testing times of the sequential pipeline
(``co_optimize`` per width, the seed's code path).
"""

from common import BATCH_COLUMNS, run_batch_sweep
from repro.optimize.co_optimize import co_optimize
from repro.report.experiments import rows_to_table

WIDTHS = (16, 24, 32)

#: The exact polish is budgeted by wall clock; under pool contention
#: the default 30s can truncate a solve the uncontended sequential
#: run completes, which would make results load-dependent.  A budget
#: generous enough that every solve ends by optimality proof or node
#: exhaustion keeps parallel == sequential bit-for-bit.
OPTIONS = {"exact_time_limit": 600.0}


def test_batch_engine_matches_sequential(
    benchmark, report, d695, p21241, p31108, p93791
):
    socs = [d695, p21241, p31108, p93791]
    rows = benchmark.pedantic(
        run_batch_sweep,
        args=(socs, WIDTHS),
        kwargs={"max_workers": 4, "options": OPTIONS},
        rounds=1,
        iterations=1,
    )
    report(
        "batch_engine",
        rows_to_table(
            rows, BATCH_COLUMNS,
            title="Batch engine: four SOCs x widths, parallel grid.",
        ),
    )

    assert len(rows) == len(socs) * len(WIDTHS)
    by_key = {(row["soc"], row["W"]): row for row in rows}
    for soc in socs:
        for width in WIDTHS:
            sequential = co_optimize(soc, width, **OPTIONS)
            row = by_key[(soc.name, width)]
            assert row["T"] == sequential.testing_time, (soc.name, width)
            assert row["partition"] == "+".join(
                map(str, sequential.partition)
            )
