"""Unit tests for the shared wrapper-table cache."""

import pytest

import repro.wrapper.pareto as pareto
from repro.engine.cache import WrapperTableCache
from repro.exceptions import ConfigurationError
from repro.wrapper.pareto import TimeTable


class TestCacheEquivalence:
    """A cached (possibly extended) table answers like a fresh build."""

    @pytest.mark.parametrize(
        "soc_name", ["d695", "p21241", "p31108", "p93791"]
    )
    def test_slices_match_fresh_tables_on_itc02_cores(
        self, soc_name, request
    ):
        soc = request.getfixturevalue(soc_name)
        cache = WrapperTableCache(soc)
        tables = cache.tables(8)
        for core in soc.cores:
            cached = tables[core.name]
            for sliced_width in (1, 4, 8):
                fresh = TimeTable(core, sliced_width)
                for width in range(1, sliced_width + 1):
                    assert cached.time(width) == fresh.time(width)
                    assert cached.design(width) == fresh.design(width)

    def test_extension_matches_fresh_build(self, d695):
        cache = WrapperTableCache(d695)
        small = cache.tables(3)
        grown = cache.tables(9)
        for core in d695.cores:
            fresh = TimeTable(core, 9)
            cached = grown[core.name]
            assert cached._times == fresh._times
            assert cached.pareto_points() == fresh.pareto_points()
            assert cached.saturation_width == fresh.saturation_width
            assert cached.min_time == fresh.min_time
        # Extension happened in place: the same mapping was grown.
        assert small is grown

    def test_extend_to_is_noop_when_covered(self, scan_core):
        table = TimeTable(scan_core, 6)
        times_before = list(table._times)
        table.extend_to(4)
        assert table.max_width == 6
        assert table._times == times_before


class TestCacheSharing:
    def test_hands_out_the_same_objects(self, tiny_soc):
        cache = WrapperTableCache(tiny_soc)
        first = cache.tables(5)
        second = cache.tables(5)
        assert first is second
        for name in first:
            assert first[name] is second[name]

    def test_wider_request_extends_same_objects(self, tiny_soc):
        cache = WrapperTableCache(tiny_soc)
        before = dict(cache.tables(4))
        after = cache.tables(7)
        for name, table in after.items():
            assert table is before[name]
            assert table.max_width == 7

    def test_narrower_request_keeps_width(self, tiny_soc):
        cache = WrapperTableCache(tiny_soc)
        cache.tables(7)
        cache.tables(3)
        assert cache.max_width == 7

    def test_table_list_follows_core_order(self, tiny_soc):
        cache = WrapperTableCache(tiny_soc)
        tables = cache.table_list(4)
        assert [t.core.name for t in tables] == [
            core.name for core in tiny_soc.cores
        ]

    def test_table_by_name(self, tiny_soc):
        cache = WrapperTableCache(tiny_soc)
        table = cache.table("scan_core", 4)
        assert table.core.name == "scan_core"

    def test_empty_cache_properties(self, tiny_soc):
        cache = WrapperTableCache(tiny_soc)
        assert cache.max_width == 0
        assert cache.design_calls() == 0

    def test_invalid_width_rejected(self, tiny_soc):
        cache = WrapperTableCache(tiny_soc)
        with pytest.raises(ConfigurationError):
            cache.tables(0)


class TestDesignCallCounting:
    """The cache's raison d'être: one design per (core, width), ever,
    and none past the core's floor width."""

    def test_extension_never_repeats_a_width(
        self, tiny_soc, monkeypatch, expected_designs
    ):
        calls = []
        original = pareto.design_wrapper

        def counting(core, width):
            calls.append((core.name, width))
            return original(core, width)

        monkeypatch.setattr(pareto, "design_wrapper", counting)
        cache = WrapperTableCache(tiny_soc)
        cache.tables(4)
        cache.tables(4)
        cache.tables(9)
        cache.tables(6)
        assert len(calls) == len(set(calls))
        assert set(calls) == expected_designs(tiny_soc.cores, 0, 9)
        assert cache.design_calls() == len(calls)
