"""Table 7 — p21241 (28 cores), P_NPAW with 1 <= B <= 10.

The paper's key result for this SOC: with more than two TAMs
available, the new method beats the B<=2 exhaustive results by ~25%
on average at W >= 24, because Partition_evaluate can explore 3-6
TAM architectures the exhaustive method cannot reach.

Shape checks: free-B beats the exhaustive-at-B=2 testing time at
large widths, and the winning architectures use more than 2 TAMs.
"""

from common import run_npaw_bench
from repro.optimize.exhaustive import exhaustive_optimize


def test_table7_p21241_npaw(benchmark, p21241, report):
    rows = run_npaw_bench(
        benchmark,
        report,
        p21241,
        result_name="table07_p21241_npaw",
        title="Table 7. p21241 stand-in, P_NPAW (B <= 10): new method.",
    )

    # The paper's comparison: the best-B heuristic vs exhaustive B=2.
    improvements = []
    for row in rows:
        if row["W"] < 24:
            continue
        exhaustive_b2 = exhaustive_optimize(
            p21241, row["W"], 2,
            time_limit_per_partition=2.0, total_time_limit=120.0,
        )
        improvements.append(
            (exhaustive_b2.testing_time - row["T_new"])
            / exhaustive_b2.testing_time
        )
    # More TAMs help on average (paper: ~25% lower testing times).
    assert sum(improvements) / len(improvements) > 0.05
    assert max(row["B"] for row in rows) > 2
