"""Table 13 — p31108, P_NPAW with 1 <= B <= 10.

The paper's signature observation for this SOC: testing time
saturates at 544579 cycles once W >= 40 and B >= 3-4, because one
memory core's test dominates — once *its* bus is wide enough
(10 bits in the paper), no additional width or TAM count helps.
Our stand-in reproduces the mechanism; the bench verifies the
saturation and ties it to the bottleneck core's floor.
"""

from common import run_npaw_bench
from repro.wrapper.pareto import build_time_tables


def test_table13_p31108_npaw(benchmark, p31108, report):
    rows = run_npaw_bench(
        benchmark,
        report,
        p31108,
        result_name="table13_p31108_npaw",
        title="Table 13. p31108 stand-in, P_NPAW (B <= 10): new method.",
    )

    # Identify the bottleneck core's floor: its minimum achievable
    # testing time at the full SOC width.
    tables = build_time_tables(p31108, 64)
    bottleneck_floor = max(
        tables[core.name].min_time for core in p31108
    )

    # The SOC testing time can never go below that floor...
    final_time = rows[-1]["T_new"]
    assert final_time >= bottleneck_floor
    # ...and at large widths it should be pinned near it (the
    # saturation the paper reports: equal times from W=40 to W=64).
    wide_times = [row["T_new"] for row in rows if row["W"] >= 48]
    assert max(wide_times) <= 1.35 * bottleneck_floor
    assert max(wide_times) <= 1.05 * min(wide_times)
