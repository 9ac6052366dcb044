"""Tables 17 & 18 — p93791, P_PAW at B = 3.

The heaviest fixed-B configuration in the paper (its exhaustive CPU
times reach 440s rescaled).  The paper's new method matches the ILP
results within +0..+5% at two-to-three orders of magnitude less CPU.

Shape checks: quality envelope, monotonicity, and a genuine CPU
advantage for the heuristic at this B.
"""

from common import run_comparison_bench


def test_tables17_18_p93791_b3(benchmark, p93791, report):
    rows = run_comparison_bench(
        benchmark,
        report,
        p93791,
        num_tams=3,
        result_name="table17_18_p93791_b3",
        title="Tables 17/18. p93791 stand-in, B=3: exhaustive [8] vs "
              "new co-optimization method.",
        exhaustive_time_per_partition=0.6,
        exhaustive_total_time=120.0,
    )
    # The new method must hold a clear aggregate CPU advantage on
    # the hardest fixed-B family (paper: 2-3 orders of magnitude;
    # require >= 2x in aggregate to stay robust across machines).
    total_old = sum(row["t_old_s"] for row in rows)
    total_new = sum(row["t_new_s"] for row in rows)
    assert total_new * 2 <= total_old
