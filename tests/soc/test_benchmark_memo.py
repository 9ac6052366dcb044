"""The embedded-benchmark memo: each SOC is built once per process.

``get_benchmark`` hands out one shared frozen ``Soc`` per name.  These
tests pin that sharing changes nothing a caller can observe: the
shared SOC equals a fresh build, its content fingerprint and the spec
canonical keys that hash it match the goldens recorded before the memo
existed, ``.soc`` files are still re-read on every load, threads
racing on a first build all get the same copy, and an unknown name
fails as before.
"""

import sys
import threading

import pytest

import repro.soc.data as data_module
from repro.api import GridSpec
from repro.soc.data import (
    benchmark_names,
    d695,
    get_benchmark,
    p21241,
    p31108,
    p93791,
)
from repro.soc.fingerprint import soc_fingerprint
from repro.soc.itc02 import write_soc
from repro.soc.loader import load_source
from repro.soc.soc import Soc

BUILDERS = {
    "d695": d695.build,
    "p21241": p21241.build,
    "p31108": p31108.build,
    "p93791": p93791.build,
}

#: ``soc_fingerprint`` of each benchmark, recorded from fresh builds.
GOLDEN_FINGERPRINTS = {
    "d695": "d8736a77b1c14d0eec7505f3",
    "p21241": "8f9876f56d3195e871eb8672",
    "p31108": "9f0596b4ce975628cbed1888",
    "p93791": "2d4900f8689fa282df825420",
}

#: ``GridSpec.from_axes([name], [16, 32], num_tams=(1, 2, 3))`` keys.
GOLDEN_GRID_KEYS = {
    "d695": "c38884118dbb9f7b8dcec407",
    "p21241": "55fbc3674171e4ba6d843bd1",
    "p31108": "7ae758315388fa51ed4ada81",
    "p93791": "fc2fd0d372c31428a5e45dcf",
}


def test_every_name_is_covered():
    assert sorted(BUILDERS) == benchmark_names()


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_repeated_calls_share_one_soc(name):
    assert get_benchmark(name) is get_benchmark(name)


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_shared_soc_equals_a_fresh_build(name):
    fresh = BUILDERS[name]()
    shared = get_benchmark(name)
    assert shared is not fresh
    assert shared == fresh


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_load_source_returns_the_shared_soc(name):
    assert load_source(name) is get_benchmark(name)


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_fingerprint_matches_golden(name):
    assert soc_fingerprint(get_benchmark(name)) == GOLDEN_FINGERPRINTS[name]
    assert soc_fingerprint(BUILDERS[name]()) == GOLDEN_FINGERPRINTS[name]


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_grid_canonical_key_matches_golden(name):
    grid = GridSpec.from_axes([name], [16, 32], num_tams=(1, 2, 3))
    assert grid.canonical_key() == GOLDEN_GRID_KEYS[name]
    # Resolving through fresh builds hashes to the same key.
    assert grid.canonical_key(
        resolver=lambda source: BUILDERS[source]()
    ) == GOLDEN_GRID_KEYS[name]


def test_soc_files_are_reread_on_every_load(tmp_path):
    original = get_benchmark("d695")
    path = tmp_path / "edited.soc"
    write_soc(original, path)
    first = load_source(str(path))
    assert first == original

    trimmed = Soc(name=original.name, cores=original.cores[:3])
    write_soc(trimmed, path)
    second = load_source(str(path))
    assert second == trimmed
    assert second != first
    assert load_source(str(path)) is not second


def test_unknown_name_keeps_its_error_text():
    with pytest.raises(KeyError) as info:
        get_benchmark("nope")
    assert info.value.args[0] == (
        "unknown benchmark 'nope'; available: "
        "['d695', 'p21241', 'p31108', 'p93791']"
    )
    # A failed lookup does not poison later ones.
    with pytest.raises(KeyError):
        get_benchmark("nope")
    assert get_benchmark("d695").name == "d695"


def test_racing_first_builds_hand_out_one_soc(monkeypatch):
    monkeypatch.setattr(data_module, "_BUILT", {})
    start = threading.Barrier(8)
    seen = []

    def worker():
        start.wait(timeout=30)
        seen.append(get_benchmark("p31108"))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(seen) == 8
    assert all(soc is seen[0] for soc in seen)
    assert seen[0] is get_benchmark("p31108")
    assert seen[0] == p31108.build()
