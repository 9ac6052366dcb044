"""Round-trip and invalidation tests for the persistent table store."""

from dataclasses import replace

import pytest

import repro.wrapper.pareto as pareto
from repro.engine.cache import WrapperTableCache
from repro.service.store import TableStore
from repro.soc.soc import Soc
from repro.wrapper.pareto import TimeTable


@pytest.fixture
def store(tmp_path):
    return TableStore(tmp_path / "tables")


class TestRoundTrip:
    def test_persist_reload_is_bit_identical(self, scan_core, store):
        built = TimeTable(scan_core, 9)
        assert store.save(built)
        loaded = store.load(scan_core)
        assert loaded is not None
        assert loaded._times == built._times
        assert loaded._designs == built._designs
        assert loaded.max_width == built.max_width
        assert loaded.pareto_points() == built.pareto_points()

    def test_reload_then_extend_matches_fresh_build(
        self, tiny_soc, store
    ):
        """persist → reload → extend_to a wider budget → identical."""
        for core in tiny_soc.cores:
            store.save(TimeTable(core, 5))
        for core in tiny_soc.cores:
            reloaded = store.load(core)
            reloaded.extend_to(11)
            fresh = TimeTable(core, 11)
            assert reloaded._times == fresh._times
            assert reloaded._designs == fresh._designs

    def test_fetch_extends_and_repersists(self, scan_core, store):
        store.save(TimeTable(scan_core, 4))
        table = store.fetch(scan_core, 10)
        assert table.max_width == 10
        assert store.stored_width(scan_core) == 10

    def test_miss_on_empty_store(self, scan_core, store):
        assert store.load(scan_core) is None
        assert store.stored_width(scan_core) == 0
        assert len(store) == 0

    def test_tables_covers_whole_soc(self, tiny_soc, store):
        tables = store.tables(tiny_soc, 6)
        assert set(tables) == {core.name for core in tiny_soc.cores}
        assert all(t.max_width == 6 for t in tables.values())
        assert store.load(tiny_soc.cores[0]) is not None


class TestInvalidation:
    def test_scan_chain_mutation_misses_only_that_core(self, tiny_soc, store):
        for core in tiny_soc.cores:
            store.save(TimeTable(core, 6))
        mutated_core = replace(
            tiny_soc.cores[0], scan_chain_lengths=(12, 8, 8, 5)
        )
        mutated = Soc(
            name=tiny_soc.name,
            cores=(mutated_core,) + tiny_soc.cores[1:],
        )
        hits = {
            core.name: store.load(core) is not None
            for core in mutated.cores
        }
        assert hits[mutated_core.name] is False
        others = [core.name for core in mutated.cores[1:]]
        assert all(hits[name] for name in others)

    def test_corrupt_record_is_a_miss(self, scan_core, store):
        store.save(TimeTable(scan_core, 5))
        store.path_for(scan_core).write_text("{not json")
        assert store.load(scan_core) is None
        assert store.stored_width(scan_core) == 0

    def test_tampered_staircase_is_a_miss(self, scan_core, store):
        store.save(TimeTable(scan_core, 5))
        path = store.path_for(scan_core)
        # Invalidate the record structurally: no width can be covered
        # when the staircase claims to end before it starts.
        path.write_text(path.read_text().replace('"max_width": 5',
                                                 '"max_width": 0'))
        assert store.load(scan_core) is None

    def test_save_never_narrows(self, scan_core, store):
        assert store.save(TimeTable(scan_core, 8))
        assert not store.save(TimeTable(scan_core, 3))
        assert store.stored_width(scan_core) == 8

    def test_clear_empties_the_store(self, tiny_soc, store):
        store.tables(tiny_soc, 4)
        assert len(store) > 0
        removed = store.clear()
        assert removed > 0
        assert len(store) == 0


class TestStoreBackedCache:
    def test_warm_cache_pays_zero_designs(
        self, tiny_soc, store, monkeypatch
    ):
        WrapperTableCache(tiny_soc, store=store).tables(7)

        calls = []
        original = pareto.design_wrapper

        def counting(core, width):
            calls.append((core.name, width))
            return original(core, width)

        monkeypatch.setattr(pareto, "design_wrapper", counting)
        warm = WrapperTableCache(tiny_soc, store=store)
        tables = warm.tables(7)
        assert calls == []
        assert warm.design_calls() == 0
        for core in tiny_soc.cores:
            fresh = TimeTable(core, 7)
            assert tables[core.name]._times == fresh._times
            assert tables[core.name]._designs == fresh._designs

    def test_partially_warm_cache_pays_only_the_extension(
        self, tiny_soc, store, monkeypatch, expected_designs
    ):
        WrapperTableCache(tiny_soc, store=store).tables(4)

        calls = []
        original = pareto.design_wrapper

        def counting(core, width):
            calls.append((core.name, width))
            return original(core, width)

        monkeypatch.setattr(pareto, "design_wrapper", counting)
        warm = WrapperTableCache(tiny_soc, store=store)
        warm.tables(9)
        expected = expected_designs(tiny_soc.cores, 4, 9)
        assert set(calls) == expected
        assert len(calls) == len(expected)
        assert warm.design_calls() == len(expected)
        # ...and the wider coverage was persisted back.
        assert all(
            store.stored_width(core) == 9 for core in tiny_soc.cores
        )


class TestMixedWidthStoreLoads:
    """Regression: store entries at unequal widths must not leave the
    cache claiming coverage some tables don't have."""

    def test_one_prewidened_core_does_not_mask_the_rest(
        self, tiny_soc, store
    ):
        # One core persisted much wider than the others will load at.
        store.save(TimeTable(tiny_soc.cores[0], 16))
        cache = WrapperTableCache(tiny_soc, store=store)
        cache.tables(4)
        # The guaranteed coverage is what *every* table answers.
        assert cache.max_width == 4
        tables = cache.tables(9)
        for core in tiny_soc.cores:
            assert tables[core.name].max_width >= 9
            assert tables[core.name].time(9) == \
                TimeTable(core, 9).time(9)

    def test_design_calls_stay_honest_with_mixed_loads(
        self, tiny_soc, store
    ):
        store.save(TimeTable(tiny_soc.cores[0], 16))
        cache = WrapperTableCache(tiny_soc, store=store)
        cache.tables(6)
        cold_cores = tiny_soc.cores[1:]
        assert cache.design_calls() == 6 * len(cold_cores)


class TestSelfRepair:
    """A record load() rejects must never block save() from fixing it."""

    def test_invalid_body_is_discarded_and_resaved(self, scan_core, store):
        store.save(TimeTable(scan_core, 8))
        path = store.path_for(scan_core)
        # Healthy-looking header, body load() rejects (schema bump).
        path.write_text(path.read_text().replace('"schema": 1',
                                                 '"schema": 99'))
        fresh_store = TableStore(store.directory)  # no warm width cache
        assert fresh_store.load(scan_core) is None
        assert not path.exists()  # the bad record was discarded...
        assert fresh_store.save(TimeTable(scan_core, 8))  # ...and repaired
        assert fresh_store.stored_width(scan_core) == 8

    def test_store_backed_cache_repairs_corrupt_entries(
        self, tiny_soc, store
    ):
        WrapperTableCache(tiny_soc, store=store).tables(5)
        victim = store.path_for(tiny_soc.cores[0])
        victim.write_text("{broken")
        fresh_store = TableStore(store.directory)
        WrapperTableCache(tiny_soc, store=fresh_store).tables(5)
        assert fresh_store.stored_width(tiny_soc.cores[0]) == 5


class TestQuarantine:
    """Corrupt entries are renamed to ``*.bad``, never served again."""

    def test_truncated_record_is_quarantined_and_rebuilt(
        self, scan_core, store
    ):
        store.save(TimeTable(scan_core, 6))
        path = store.path_for(scan_core)
        # Deliberate truncation: the torn-write artifact quarantine
        # exists for.
        raw = path.read_text()
        path.write_text(raw[: len(raw) // 2])
        fresh = TableStore(store.directory)
        assert fresh.load(scan_core) is None  # miss, not an error
        bad = path.with_name(path.name + ".bad")
        assert bad.exists() and not path.exists()
        # The rebuild repairs the entry; the forensic copy stays.
        assert fresh.save(TimeTable(scan_core, 6))
        assert fresh.load(scan_core) is not None
        assert bad.exists()

    def test_quarantine_is_counted(self, scan_core, store):
        from repro.obs import REGISTRY

        store.save(TimeTable(scan_core, 5))
        store.path_for(scan_core).write_text("{torn")
        before = REGISTRY.snapshot().counter("store.quarantined")
        assert TableStore(store.directory).load(scan_core) is None
        after = REGISTRY.snapshot().counter("store.quarantined")
        assert after == before + 1

    def test_requarantine_replaces_the_previous_bad_copy(
        self, scan_core, store
    ):
        # Two corruption rounds: the second rename lands on an
        # existing .bad file and must replace it, not fail.
        for _ in range(2):
            fresh = TableStore(store.directory)
            fresh.save(TimeTable(scan_core, 5))
            fresh.path_for(scan_core).write_text("{torn")
            assert TableStore(store.directory).load(scan_core) is None
        path = store.path_for(scan_core)
        assert path.with_name(path.name + ".bad").exists()

    def test_grid_memo_quarantines_corrupt_entries(self, tmp_path):
        from repro.service.store import GridMemo

        memo = GridMemo(tmp_path / "grid-memo")
        memo.save("abc123", {"points": [], "failures": []}, num_jobs=0)
        entry = memo.path_for("abc123")
        raw = entry.read_text()
        entry.write_text(raw[: len(raw) // 2])
        assert memo.load("abc123") is None
        assert entry.with_name(entry.name + ".bad").exists()
        # Saving again repairs the entry in place.
        assert memo.save(
            "abc123", {"points": [], "failures": []}, num_jobs=0
        )
        assert memo.load("abc123") is not None
