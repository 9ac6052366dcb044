"""Dense sweep kernel vs the legacy ``Partition_evaluate`` path.

Two claims, quantified on d695 and p93791 and archived as the first
entries of the ``BENCH_*.json`` perf trajectory:

* **speed** — the kernel (with its outcome-identical lower-bound
  pruning) runs the p93791 W=32 P_NPAW sweep at least 5× faster than
  the legacy per-partition path, with the identical best testing
  time and winning partition;
* **fidelity** — with ``prune="lb"`` disabled, the kernel's
  ``PartitionStats`` (``num_completed``, efficiency) match the legacy
  path exactly on every Table-1 configuration (p21241, W=44..64,
  B=4,5), so the paper's pruning-efficiency protocol is untouched.

The timing table also lands in ``results/sweep_kernel.txt``; the
machine-readable record is *appended* to ``BENCH_sweep_kernel.json``
at the repository root in the shared history schema of
``benchmarks/common.py`` (refreshed by the CI perf-smoke step), and
the telemetry-overhead gate below holds the traced kernel+lb sweep
to within 5% of the same sweep untraced, timed side by side.
"""

import statistics
import time
from pathlib import Path

from common import append_history, bench_record

from repro.engine.cache import WrapperTableCache
from repro.partition.evaluate import partition_evaluate
from repro.report.experiments import rows_to_table

BENCH_JSON = Path(__file__).resolve().parent.parent / (
    "BENCH_sweep_kernel.json"
)

#: The acceptance sweep: the paper's P_NPAW protocol, B = 1..10.
NPAW_COUNTS = range(1, 11)

#: (soc fixture name, W, required kernel+lb speedup).  Only p93791
#: W=32 carries a hard floor — d695 is small enough that fixed
#: per-sweep costs dominate and the margin is left soft.
SWEEPS = (
    ("d695", 24, None),
    ("d695", 32, None),
    ("p93791", 32, 5.0),
)

TABLE1_WIDTHS = (44, 48, 52, 56, 60, 64)
TABLE1_COUNTS = (4, 5)


def _best_of(runs, fn):
    """Best wall-clock of ``runs`` calls; returns (seconds, result)."""
    best_seconds = None
    result = None
    for _ in range(runs):
        start = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - start
        if best_seconds is None or elapsed < best_seconds:
            best_seconds = elapsed
    return best_seconds, result


def run_kernel_speed_rows(socs):
    """Legacy vs kernel vs kernel+lb timings, one row per sweep."""
    rows = []
    for soc, width, floor in socs:
        tables = WrapperTableCache(soc).table_list(width)

        # Best-of-N damps shared-runner noise: a transient slowdown
        # must hit every kernel run *and* spare every legacy run to
        # move the ratio the wrong way.
        legacy_s, legacy = _best_of(3, lambda: partition_evaluate(
            tables, width, NPAW_COUNTS, engine="legacy"))
        kernel_s, kernel = _best_of(5, lambda: partition_evaluate(
            tables, width, NPAW_COUNTS, engine="kernel"))
        lb_s, pruned = _best_of(5, lambda: partition_evaluate(
            tables, width, NPAW_COUNTS, engine="kernel", prune="lb"))

        assert kernel.testing_time == legacy.testing_time
        assert pruned.testing_time == legacy.testing_time
        assert kernel.best_partition == legacy.best_partition
        assert pruned.best_partition == legacy.best_partition
        assert kernel.best.assignment == legacy.best.assignment

        speedup = legacy_s / lb_s
        if floor is not None:
            assert speedup >= floor, (
                f"{soc.name} W={width}: kernel+lb speedup "
                f"{speedup:.1f}x below the {floor}x floor "
                f"(legacy {legacy_s:.3f}s, kernel+lb {lb_s:.3f}s)"
            )
        rows.append({
            "soc": soc.name,
            "W": width,
            "T": legacy.testing_time,
            "partition": "+".join(map(str, legacy.best_partition)),
            "legacy_s": round(legacy_s, 4),
            "kernel_s": round(kernel_s, 4),
            "kernel_lb_s": round(lb_s, 4),
            "speedup": round(speedup, 2),
            "lb_pruned": pruned.num_lb_pruned,
        })
    return rows


def test_sweep_kernel_speed_and_fidelity(
    benchmark, report, d695, p93791, p21241
):
    sweeps = [
        ({"d695": d695, "p93791": p93791}[name], width, floor)
        for name, width, floor in SWEEPS
    ]
    rows = benchmark.pedantic(
        run_kernel_speed_rows, args=(sweeps,), rounds=1, iterations=1
    )
    report(
        "sweep_kernel",
        rows_to_table(
            rows,
            ["soc", "W", "T", "partition", "legacy_s", "kernel_s",
             "kernel_lb_s", "speedup", "lb_pruned"],
            title="Dense sweep kernel vs legacy Partition_evaluate "
                  "(P_NPAW, B=1..10).",
        ),
    )

    # Fidelity on the Table-1 protocol: with lb pruning off, kernel
    # statistics are bit-identical to the legacy path on every cell.
    tables = WrapperTableCache(p21241).table_list(max(TABLE1_WIDTHS))
    for width in TABLE1_WIDTHS:
        for count in TABLE1_COUNTS:
            legacy = partition_evaluate(
                tables, width, count, engine="legacy"
            ).stats_for(count)
            kernel = partition_evaluate(
                tables, width, count, engine="kernel"
            ).stats_for(count)
            assert kernel.num_completed == legacy.num_completed, (
                width, count,
            )
            assert kernel.num_enumerated == legacy.num_enumerated
            assert kernel.efficiency == legacy.efficiency
            assert kernel.num_lb_pruned == 0

    headline = next(
        (
            row["speedup"] for row in rows
            if row["soc"] == "p93791" and row["W"] == 32
        ),
        None,
    )
    append_history(BENCH_JSON, bench_record(
        "bench_sweep_kernel",
        config={
            "npaw_counts": [NPAW_COUNTS.start, NPAW_COUNTS.stop],
            "sweeps": [
                [name, width] for name, width, _ in SWEEPS
            ],
        },
        samples=rows,
        speedup=headline,
    ))
    print(f"[appended to {BENCH_JSON}]")


#: Interleaved (untraced, traced) pairs the telemetry-overhead gate
#: times.
OVERHEAD_PAIRS = 25


def test_sweep_kernel_telemetry_overhead(p93791):
    """Telemetry must be free when off and near-free when on.

    Off: the disabled tracer hands out the no-op singleton, cheap
    enough to sit in per-point code without a guard.  On: the traced
    p93791 W=32 kernel+lb sweep must run within 5% of the same sweep
    untraced — spans are sampled at partition/count granularity,
    never inside the kernel inner loop.  Both sides are timed here,
    one run each per pair with the order alternating, and the gate
    reads the median of the per-pair time ratios: host load drifts
    hit both runs of a pair alike, and one lucky run on either side
    cannot decide it (best-of-N per side could, by up to 19% on a
    shared 2-CPU host whose true overhead read 0-2%).
    """
    from repro.obs import NOOP_SPAN, TRACER, span as obs_span

    assert TRACER.span("probe", any_meta=1) is NOOP_SPAN
    calls = 100_000
    start = time.perf_counter()
    for _ in range(calls):
        with obs_span("probe"):
            pass
    per_call = (time.perf_counter() - start) / calls
    assert per_call < 5e-6, (
        f"disabled span costs {per_call * 1e9:.0f}ns/call — the "
        f"no-op fast path has regressed"
    )

    tables = WrapperTableCache(p93791).table_list(32)
    ratios = []
    outcomes = set()
    for pair in range(OVERHEAD_PAIRS):
        seconds = {}
        # Alternate which side goes first, so periodic interference
        # cannot line up with one side.
        for traced in ((False, True) if pair % 2 else (True, False)):
            if traced:
                TRACER.enable()
            try:
                start = time.perf_counter()
                result = partition_evaluate(
                    tables, 32, NPAW_COUNTS, engine="kernel", prune="lb"
                )
                seconds[traced] = time.perf_counter() - start
            finally:
                TRACER.disable()
                TRACER.drain()
            outcomes.add((result.testing_time, result.best_partition))
        ratios.append(seconds[True] / seconds[False])

    assert len(outcomes) == 1
    overhead = statistics.median(ratios)
    assert overhead <= 1.05, (
        f"traced p93791 W=32 sweep runs {overhead:.3f}x the untraced "
        f"one (median of {OVERHEAD_PAIRS} interleaved pairs), more "
        f"than the 5% budget"
    )
