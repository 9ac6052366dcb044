"""Tables 9 & 10 — p31108 (19 cores, memory-dominated), P_PAW at B = 2.

The paper reports the new method matching the exhaustive testing
times exactly at most widths on this SOC (ΔT = +0.00% for W >= 40),
because the bottleneck memory core dominates both solutions.
"""

from common import run_comparison_bench


def test_tables9_10_p31108_b2(benchmark, p31108, report):
    rows = run_comparison_bench(
        benchmark,
        report,
        p31108,
        num_tams=2,
        result_name="table09_10_p31108_b2",
        title="Tables 9/10. p31108 stand-in, B=2: exhaustive [8] vs "
              "new co-optimization method.",
    )
    # Paper: exact agreement at several widths (ΔT = +0.00%).  On the
    # stand-in, require close agreement at the widest configurations.
    wide_rows = [row for row in rows if row["W"] >= 48]
    assert min(row["delta_pct"] for row in wide_rows) <= 3.0
