"""Table 19 — p93791, P_NPAW with 1 <= B <= 10.

On the largest SOC the paper's free-B search settles on B = 3 for
most widths (p93791's big logic cores keep wide buses productive),
with testing times matching the fixed-B=3 results.

Shape checks: partitions are valid; the free-B result never loses
to fixed B=2; testing time keeps improving with W (no saturation —
unlike p31108, this SOC has no single dominating core).
"""

from common import run_npaw_bench
from repro.optimize.co_optimize import co_optimize


def test_table19_p93791_npaw(benchmark, p93791, report):
    rows = run_npaw_bench(
        benchmark,
        report,
        p93791,
        result_name="table19_p93791_npaw",
        title="Table 19. p93791 stand-in, P_NPAW (B <= 10): new method.",
    )

    # Free-B at least matches fixed B=2 everywhere.
    for row in rows[:3]:
        fixed_b2 = co_optimize(p93791, row["W"], num_tams=2)
        assert row["T_new"] <= 1.02 * fixed_b2.testing_time

    # No saturation: W=64 is clearly better than W=16 (paper: 3.7x).
    assert rows[0]["T_new"] / rows[-1]["T_new"] > 2.0
