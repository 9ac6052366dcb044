"""Persistent table store — cold build vs warm reload.

The store's pitch is simple: ``design_wrapper`` output depends only
on core structure, so pay for it once per machine, not once per
process.  This bench builds p93791's wrapper time tables cold
(every ``design_wrapper`` call up to each core's time floor), then
reloads them from the on-disk :class:`repro.service.store.TableStore`
and asserts the warm path performs **zero** wrapper designs and is
decisively faster.
"""

import importlib.util
import time
from pathlib import Path

from repro.engine.cache import WrapperTableCache
from repro.report.experiments import rows_to_table
from repro.service.store import TableStore

WIDTH = 24

REFERENCE = (
    Path(__file__).parent.parent / "tests" / "wrapper"
    / "_wrapper_reference.py"
)


def reference_design_calls(cores, width):
    """Designs a cold build must pay, per the frozen test reference."""
    spec = importlib.util.spec_from_file_location("reference", REFERENCE)
    reference = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(reference)
    return sum(
        len(reference.paid_widths(core, 0, width)) for core in cores
    )


def test_warm_store_skips_wrapper_design(
    benchmark, report, p93791, tmp_path_factory
):
    store = TableStore(tmp_path_factory.mktemp("tables"))

    start = time.perf_counter()
    cold_cache = WrapperTableCache(p93791, store=store)
    cold_cache.tables(WIDTH)
    cold_seconds = time.perf_counter() - start
    assert cold_cache.design_calls() == reference_design_calls(
        p93791.cores, WIDTH
    )

    def warm_load():
        cache = WrapperTableCache(p93791, store=store)
        cache.tables(WIDTH)
        return cache

    start = time.perf_counter()
    warm_cache = benchmark.pedantic(warm_load, rounds=3, iterations=1)
    warm_seconds = (time.perf_counter() - start) / 3

    # The acceptance bar: a warm store serves every staircase with
    # zero design_wrapper calls...
    assert warm_cache.design_calls() == 0
    # ...and the tables answer exactly like the cold build's.
    cold_tables = cold_cache.tables(WIDTH)
    warm_tables = warm_cache.tables(WIDTH)
    for name, cold_table in cold_tables.items():
        assert warm_tables[name]._times == cold_table._times

    speedup = cold_seconds / max(warm_seconds, 1e-9)
    rows = [{
        "soc": p93791.name,
        "W": WIDTH,
        "cold_s": f"{cold_seconds:.3f}",
        "warm_s": f"{warm_seconds:.3f}",
        "speedup": f"{speedup:.1f}x",
        "warm_designs": warm_cache.design_calls(),
    }]
    report(
        "service_store",
        rows_to_table(
            rows,
            ["soc", "W", "cold_s", "warm_s", "speedup", "warm_designs"],
            title="Persistent table store: cold build vs warm reload.",
        ),
    )
    # Parsing JSON beats running the wrapper designer by a wide
    # margin; 2x is a deliberately loose floor for noisy CI boxes.
    assert speedup > 2.0, (cold_seconds, warm_seconds)
