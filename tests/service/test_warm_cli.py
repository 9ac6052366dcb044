"""Acceptance: a repeated `repro-tam batch --cache-dir` invocation
performs ZERO `design_wrapper` calls — the persistent store serves
every staircase."""

import json

import pytest

import repro.wrapper.pareto as pareto
from repro.cli import main
from repro.engine.batch import BatchJob, BatchRunner


@pytest.fixture
def counted_designs(monkeypatch):
    """Count every design_wrapper invocation in this process."""
    calls = []
    original = pareto.design_wrapper

    def counting(core, width):
        calls.append((core.name, width))
        return original(core, width)

    monkeypatch.setattr(pareto, "design_wrapper", counting)
    return calls


class TestWarmBatchCLI:
    def test_second_invocation_designs_nothing(
        self, tmp_path, capsys, counted_designs
    ):
        argv = [
            "batch", "d695", "-W", "6", "9", "-B", "2",
            "--jobs", "1", "--cache-dir", str(tmp_path / "tables"),
        ]
        assert main(argv) == 0
        cold_calls = len(counted_designs)
        assert cold_calls > 0
        cold_out = capsys.readouterr().out

        counted_designs.clear()
        assert main(argv) == 0
        warm_out = capsys.readouterr().out
        assert counted_designs == []          # the acceptance bar
        assert warm_out == cold_out           # ...and same answers

    def test_warm_json_output_is_identical(
        self, tmp_path, capsys, counted_designs
    ):
        argv = [
            "batch", "d695", "-W", "6", "-B", "2", "--json",
            "--jobs", "1", "--cache-dir", str(tmp_path / "tables"),
        ]
        assert main(argv) == 0
        cold = json.loads(capsys.readouterr().out)
        counted_designs.clear()
        assert main(argv) == 0
        warm = json.loads(capsys.readouterr().out)
        assert counted_designs == []
        assert warm == cold

    def test_wider_rerun_pays_only_the_extension(
        self, tmp_path, capsys, counted_designs, d695, expected_designs
    ):
        cache = str(tmp_path / "tables")
        assert main(["batch", "d695", "-W", "6", "-B", "2",
                     "--jobs", "1", "--cache-dir", cache]) == 0
        counted_designs.clear()
        assert main(["batch", "d695", "-W", "9", "-B", "2",
                     "--jobs", "1", "--cache-dir", cache]) == 0
        capsys.readouterr()
        paid = set(counted_designs)
        expected = expected_designs(d695.cores, 6, 9)
        assert paid == expected
        assert len(counted_designs) == len(expected)


class TestWarmRunner:
    def test_store_backed_runners_share_across_instances(
        self, tmp_path, tiny_soc, counted_designs
    ):
        cache = tmp_path / "tables"
        jobs = [BatchJob(tiny_soc, w, 2) for w in (4, 6)]
        first = BatchRunner(max_workers=1, cache_dir=cache).run(jobs)
        assert len(counted_designs) > 0
        counted_designs.clear()
        second = BatchRunner(max_workers=1, cache_dir=cache).run(jobs)
        assert counted_designs == []
        assert second == first
