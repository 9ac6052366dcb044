"""Fixed-seed searches are bit-identical at any worker count,
and under seeded fault injection.

The island fan-out is an execution placement, never a semantic: the
inline run is the reference, and pool runs — including runs where a
``REPRO_FAULTS`` plan crashes, slows, or strips shared memory from
island workers — must reproduce it bit for bit.
"""

import pytest

from repro.engine.batch import BatchJob, BatchRunner
from repro.engine.faults import FAULTS_ENV

SEARCH_OPTIONS = {
    "mode": "search",
    "search_strategy": "ga",
    "seed": 7,
    "eval_budget": 1200,
    "time_budget": 30.0,
}


def search_job(soc):
    return BatchJob(soc, 16, (1, 2, 3), options=SEARCH_OPTIONS)


def signature(point):
    """Everything result-defining about one finished search point."""
    search = point.search
    return (
        point.testing_time,
        point.partition,
        search.trajectory,
        search.certificate.evals,
        search.certificate.improvements,
        search.certificate.terminated_by,
        tuple(
            (island.evals, island.terminated_by, island.trajectory)
            for island in search.islands
        ),
    )


@pytest.fixture
def no_ambient_faults(monkeypatch):
    monkeypatch.delenv(FAULTS_ENV, raising=False)
    return monkeypatch


@pytest.fixture(scope="module")
def inline_reference(d695):
    (point,) = BatchRunner(max_workers=1).run([search_job(d695)])
    return signature(point)


class TestWorkerCountIdentity:
    @pytest.mark.parametrize("workers", [2, 4])
    def test_fanned_search_matches_inline(
        self, d695, workers, inline_reference, no_ambient_faults
    ):
        runner = BatchRunner(max_workers=workers)
        (point,) = runner.run([search_job(d695)])
        assert signature(point) == inline_reference

    def test_fan_out_actually_happened(
        self, d695, no_ambient_faults
    ):
        runner = BatchRunner(max_workers=4)
        runner.run([search_job(d695)])
        snapshot = runner.metrics.snapshot()
        assert snapshot.counter("engine.jobs_search_fanned") == 1
        assert snapshot.counter("search.islands_run") == 4


class TestFaultInjectionIdentity:
    """Seeded fault plans may change *how* a search ran, never what
    it answered."""

    def plans(self, tmp_path):
        return {
            "slow": "slow@1=0.05",
            "shm": "shm@0,shm@2",
            "crash": f"state={tmp_path / 'tokens'},crash@2",
        }

    @pytest.mark.parametrize("fault", ["slow", "shm", "crash"])
    def test_faulted_run_is_bit_identical(
        self, d695, tmp_path, fault, inline_reference,
        no_ambient_faults
    ):
        no_ambient_faults.setenv(
            FAULTS_ENV, self.plans(tmp_path)[fault]
        )
        runner = BatchRunner(max_workers=4, retries=1)
        (point,) = runner.run([search_job(d695)])
        assert signature(point) == inline_reference
        # shm@0,shm@2 refuse islands 0 and 2 their incumbent board.
        assert runner.shm_fallbacks == (2 if fault == "shm" else 0)
