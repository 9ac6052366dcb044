"""Differential oracle: wrapper tables against their frozen reference.

``_wrapper_reference.py`` holds the wrapper layer as it was before
tables stopped at the per-core time floor and ``balance_units`` became
closed-form water-filling: the heap balancer, ``design_wrapper`` over
it, and the per-width ``extend_to`` loop.  Production must place the
same units, build equal designs, store the same staircase times, and
share one design object across exactly the widths the reference does
(the running minimum keeps its incumbent between breakpoints).
"""

import random

import pytest

import _wrapper_reference as reference
from repro.soc.generator import random_soc
from repro.wrapper.bfd import balance_units
from repro.wrapper.pareto import TimeTable, time_floor

WIDTH = 64


def assert_matches_reference(table, core, max_width):
    times, designs = reference.table_rows(core, max_width)
    assert table.max_width == max_width
    assert table._times == times
    assert table._designs == designs
    for width in range(1, max_width):
        assert (table._designs[width] is table._designs[width - 1]) == (
            designs[width] is designs[width - 1]
        ), (core.name, width + 1)


class TestBalanceUnits:
    def test_random_cases_match_the_heap(self):
        rng = random.Random(16)
        for _ in range(20000):
            bins = rng.randint(1, 9)
            # Few distinct small loads, so ties are common.
            loads = [
                rng.choice((0, 0, 1, 2, 4, rng.randint(0, 40)))
                for _ in range(bins)
            ]
            units = rng.choice((0, 1, 2, bins, rng.randint(0, 80)))
            used = rng.choice((
                None,
                [False] * bins,
                [rng.random() < 0.5 for _ in range(bins)],
            ))
            assert balance_units(loads, units, used) == \
                reference.balance_units(loads, units, used), \
                (loads, units, used)

    @pytest.mark.parametrize("units", [0, 1, 3, 7, 12])
    def test_all_unused_zero_bins(self, units):
        loads = [0, 0, 0, 0]
        used = [False] * 4
        assert balance_units(loads, units, used) == \
            reference.balance_units(loads, units, used)

    def test_zero_units_leave_loads_alone(self):
        assert balance_units([5, 2, 9], 0) == \
            reference.balance_units([5, 2, 9], 0) == ([0, 0, 0], 9)


class TestTablesMatchReference:
    @pytest.mark.parametrize(
        "soc_name", ["d695", "p21241", "p31108", "p93791"]
    )
    def test_itc02_tables_to_w64(self, soc_name, request):
        soc = request.getfixturevalue(soc_name)
        for core in soc.cores:
            table = TimeTable(core, WIDTH)
            assert_matches_reference(table, core, WIDTH)
            assert table.design_calls == len(
                reference.paid_widths(core, 0, WIDTH)
            )

    @pytest.mark.parametrize("seed", range(6))
    def test_generated_soc_tables(self, seed):
        soc = random_soc(f"wrap{seed}", 6, 160 + seed)
        for core in soc.cores:
            assert_matches_reference(TimeTable(core, 48), core, 48)

    @pytest.mark.parametrize("start", [1, 3, 8, 20])
    def test_staircase_round_trip_then_extend(self, d695, start):
        for core in d695.cores:
            built = TimeTable(core, start)
            table = TimeTable.from_staircase(
                core, start, built.staircase()
            )
            assert table.design_calls == 0
            table.extend_to(40)
            assert_matches_reference(table, core, 40)
            assert table.design_calls == len(
                reference.paid_widths(core, start, 40)
            )


class TestFloor:
    def test_floor_matches_the_restated_formula(self, p93791):
        for core in p93791.cores:
            assert time_floor(core) == reference.time_floor(core)

    def test_floor_is_reached_where_the_reference_says(self, p31108):
        for core in p31108.cores:
            table = TimeTable(core, WIDTH)
            paid = reference.paid_widths(core, 0, WIDTH)
            assert table.min_time == time_floor(core)
            assert table.time(paid[-1]) == time_floor(core)
