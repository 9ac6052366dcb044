"""Tables 15 & 16 — p93791 (32 cores, the largest SOC), P_PAW at B = 2.

The paper reports the new method within +0..+9% of exhaustive with
1-2 orders of magnitude CPU advantage on this SOC, including exact
agreement (ΔT = +0.00%) at several widths.
"""

from common import run_comparison_bench


def test_tables15_16_p93791_b2(benchmark, p93791, report):
    rows = run_comparison_bench(
        benchmark,
        report,
        p93791,
        num_tams=2,
        result_name="table15_16_p93791_b2",
        title="Tables 15/16. p93791 stand-in, B=2: exhaustive [8] vs "
              "new co-optimization method.",
    )
    # Largest SOC, still close: some width must agree within ~3%.
    assert min(row["delta_pct"] for row in rows) <= 3.0
