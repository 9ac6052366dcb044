"""Job- and task-level fault tolerance of the batch engine.

``REPRO_CHAOS_SEED`` (CI's chaos-smoke matrix) shifts which point,
shard, island or polish task the fan-out faults below land on.
"""

import os
from pathlib import Path

import pytest

import repro.engine.batch as batch
from repro.engine.batch import (
    BatchJob,
    BatchRunner,
    FailedPoint,
    grid_rows,
    split_results,
)
from repro.engine.faults import FAULTS_ENV
from repro.exceptions import ConfigurationError
from repro.obs import TRACER

SEED = int(os.environ.get("REPRO_CHAOS_SEED", "0"))

#: Where the flaky task bodies below keep their one-shot tokens; an
#: environment variable, so pool workers inherit it.
FLAKY_DIR_ENV = "REPRO_TEST_FLAKY_DIR"

#: Shards forced on the sharded test points, and islands per search.
NUM_SHARDS = 2
NUM_ISLANDS = 4


def bad_job(soc, width=4):
    """A job that fails inside the pipeline, not at construction."""
    return BatchJob(soc, width, 2, options={"enumerator": "bogus"})


def sharded_job(soc, **options):
    """A P_NPAW point that ``shard=NUM_SHARDS`` splits over the pool."""
    return BatchJob(soc, 8, None, options=options)


def search_job(soc):
    """A small ``mode="search"`` point; its islands fan out."""
    return BatchJob(soc, 8, (1, 2, 3), options={
        "mode": "search", "seed": 3, "eval_budget": 400,
        "time_budget": 30.0,
    })


def signature(point):
    """Everything result-defining about one point, search or exact."""
    trajectory = point.search.trajectory if point.search else None
    return (
        point.testing_time, point.partition, point.num_tams,
        point.certificate.gap, trajectory,
    )


def _claim(path):
    """Create ``path`` atomically; True for the one caller that did."""
    try:
        os.close(os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY))
    except FileExistsError:
        return False
    return True


def _fail_once(kind, key, target):
    """Raise on the first run of task ``target`` of ``kind``.

    Shard and island tasks are told apart by their fault key.  Polish
    tasks carry none, so they are numbered in the order they start.
    """
    directory = Path(os.environ[FLAKY_DIR_ENV])
    if key is None:
        key = 0
        while not _claim(directory / f"{kind}-started-{key}"):
            key += 1
    if key == target and _claim(directory / f"{kind}-failed"):
        raise RuntimeError(f"injected one-off {kind} task failure")


_REAL_TASKS = {
    "shard": batch._shard_task,
    "island": batch._island_task,
    "polish": batch._polish_task,
}


def flaky_shard(payload, worker, key):
    _fail_once("shard", key, SEED % NUM_SHARDS)
    return _REAL_TASKS["shard"](payload, worker, key)


def flaky_island(payload, worker, key):
    _fail_once("island", key, SEED % NUM_ISLANDS)
    return _REAL_TASKS["island"](payload, worker, key)


def flaky_polish(payload, worker, key):
    _fail_once("polish", key, SEED % 2)
    return _REAL_TASKS["polish"](payload, worker, key)


FLAKY_TASKS = {
    "shard": flaky_shard,
    "island": flaky_island,
    "polish": flaky_polish,
}


class TestRecordPolicy:
    def test_default_policy_still_raises(self, tiny_soc):
        with pytest.raises(ConfigurationError):
            BatchRunner(max_workers=1).run([bad_job(tiny_soc)])

    def test_failed_point_keeps_the_grid_alive(self, tiny_soc):
        runner = BatchRunner(max_workers=1, on_error="record")
        results = runner.run([
            BatchJob(tiny_soc, 4, 2),
            bad_job(tiny_soc, width=5),
            BatchJob(tiny_soc, 6, 2),
        ])
        assert len(results) == 3
        assert not isinstance(results[0], FailedPoint)
        assert isinstance(results[1], FailedPoint)
        assert not isinstance(results[2], FailedPoint)
        failure = results[1]
        assert failure.error_type == "ConfigurationError"
        assert "bogus" in failure.error_message
        assert failure.attempts == 1
        assert failure.total_width == 5
        assert "ConfigurationError" in failure.describe()

    def test_split_results_partitions(self, tiny_soc):
        runner = BatchRunner(max_workers=1, on_error="record")
        results = runner.run([BatchJob(tiny_soc, 4, 2),
                              bad_job(tiny_soc)])
        points, failures = split_results(results)
        assert len(points) == 1 and len(failures) == 1

    def test_pool_mode_records_failures_too(self, tiny_soc):
        runner = BatchRunner(max_workers=2, on_error="record")
        results = runner.run([
            BatchJob(tiny_soc, 4, 2),
            bad_job(tiny_soc, width=5),
            BatchJob(tiny_soc, 6, 2),
        ])
        kinds = [isinstance(r, FailedPoint) for r in results]
        assert kinds == [False, True, False]

    def test_grid_rows_renders_error_rows(self, tiny_soc):
        runner = BatchRunner(max_workers=1, on_error="record")
        grid = runner.run_grid([tiny_soc], (4,))
        # Force a failure row through the same renderer.
        failure = FailedPoint(
            job=bad_job(tiny_soc, width=5),
            error_type="ConfigurationError",
            error_message="boom",
            attempts=1,
        )
        rows = grid_rows(list(grid) + [(failure.job, failure)])
        assert rows[-1]["T"] == "-"
        assert "boom" in rows[-1]["partition"]
        assert rows[-1]["W"] == 5

    def test_rejects_unknown_policy(self):
        with pytest.raises(ConfigurationError):
            BatchRunner(on_error="ignore")
        with pytest.raises(ConfigurationError):
            BatchRunner(retries=-1)


class TestRetries:
    def test_transient_failure_is_retried_inline(
        self, tiny_soc, monkeypatch
    ):
        attempts = {"count": 0}
        original = batch.evaluate_point

        def flaky(*args, **kwargs):
            attempts["count"] += 1
            if attempts["count"] == 1:
                raise ConfigurationError("transient")
            return original(*args, **kwargs)

        monkeypatch.setattr(batch, "evaluate_point", flaky)
        runner = BatchRunner(max_workers=1, on_error="record", retries=1)
        [result] = runner.run([BatchJob(tiny_soc, 4, 2)])
        assert not isinstance(result, FailedPoint)
        assert attempts["count"] == 2

    def test_exhausted_retries_record_attempt_count(
        self, tiny_soc, monkeypatch
    ):
        def always_failing(*args, **kwargs):
            raise ConfigurationError("permanent")

        monkeypatch.setattr(batch, "evaluate_point", always_failing)
        runner = BatchRunner(max_workers=1, on_error="record", retries=2)
        [result] = runner.run([BatchJob(tiny_soc, 4, 2)])
        assert isinstance(result, FailedPoint)
        assert result.attempts == 3

    def test_exhausted_retries_raise_under_default_policy(
        self, tiny_soc, monkeypatch
    ):
        def always_failing(*args, **kwargs):
            raise ConfigurationError("permanent")

        monkeypatch.setattr(batch, "evaluate_point", always_failing)
        runner = BatchRunner(max_workers=1, retries=1)
        with pytest.raises(ConfigurationError):
            runner.run([BatchJob(tiny_soc, 4, 2)])


class TestPersistentPool:
    def test_persistent_runner_reuses_one_pool(self, tiny_soc):
        with BatchRunner(max_workers=2, persistent=True) as runner:
            runner.run([BatchJob(tiny_soc, w, 2) for w in (4, 5)])
            runner.run([BatchJob(tiny_soc, w, 2) for w in (6, 7)])
            assert runner.pools_started == 1
        assert runner._executor is None  # closed by the context exit

    def test_ephemeral_runner_starts_a_pool_per_run(self, tiny_soc):
        runner = BatchRunner(max_workers=2)
        runner.run([BatchJob(tiny_soc, w, 2) for w in (4, 5)])
        runner.run([BatchJob(tiny_soc, w, 2) for w in (6, 7)])
        assert runner.pools_started == 2

    def test_persistent_pool_matches_inline_results(self, tiny_soc):
        jobs = [BatchJob(tiny_soc, w, 2) for w in (4, 6, 8)]
        inline = BatchRunner(max_workers=1).run(jobs)
        with BatchRunner(max_workers=2, persistent=True) as runner:
            assert runner.run(jobs) == inline


class TestBrokenPoolRecovery:
    def test_persistent_runner_survives_a_killed_worker(self, tiny_soc):
        import os
        import signal
        import time

        with BatchRunner(max_workers=2, persistent=True) as runner:
            jobs = [BatchJob(tiny_soc, w, 2) for w in (4, 5)]
            healthy = runner.run(jobs)
            # Kill a resident worker out from under the executor, and
            # wait for the executor to notice the corpse — its manager
            # thread flags breakage asynchronously, and until then a
            # surviving worker could drain a small grid successfully.
            victim = next(iter(runner._executor._processes))
            os.kill(victim, signal.SIGKILL)
            deadline = time.monotonic() + 10.0
            while (not runner._executor._broken
                   and time.monotonic() < deadline):
                time.sleep(0.01)
            assert runner._executor._broken
            # The supervisor rebuilds the pool mid-grid and the run
            # completes with the same results as a healthy one.
            assert runner.run(jobs) == healthy
            assert runner.pool_restarts == 1
            assert runner.pools_started >= 2

    def test_exhausted_pool_restarts_record_failed_points(
        self, tiny_soc
    ):
        from concurrent.futures.process import BrokenProcessPool

        runner = BatchRunner(
            max_workers=2, on_error="record", pool_restart_retries=0
        )
        # A broken pool with no restart budget must not raise under
        # the record policy: every unfinished point gets a structured
        # FailedPoint instead.
        import repro.engine.batch as batch_module

        class _AlwaysBroken:
            def __init__(self, *args, **kwargs):
                raise BrokenProcessPool("pool refused to start")

        jobs = [BatchJob(tiny_soc, w, 2) for w in (4, 5)]
        original = batch_module.ProcessPoolExecutor
        try:
            batch_module.ProcessPoolExecutor = _AlwaysBroken
            with pytest.raises(BrokenProcessPool):
                # Construction failure happens before dispatch: the
                # supervisor only guards the dispatch loop.
                runner.run(jobs)
        finally:
            batch_module.ProcessPoolExecutor = original

    def test_rejects_bad_supervision_knobs(self):
        with pytest.raises(ConfigurationError):
            BatchRunner(pool_restart_retries=-1)
        with pytest.raises(ConfigurationError):
            BatchRunner(point_timeout=0)
        with pytest.raises(ConfigurationError):
            BatchRunner(point_timeout="soon")


class TestPointDeadlines:
    """Per-point wall-clock deadlines, driven by a slow@ fault."""

    @pytest.fixture
    def stalled_point(self, monkeypatch):
        """Grid point 1 stalls well past the test deadlines below.

        Kept short-ish: a timed-out point is *abandoned*, not
        interrupted, so the run's closing ``pool.shutdown(wait=True)``
        still waits out the stall.
        """
        monkeypatch.setenv("REPRO_FAULTS", "slow@1=6")

    def test_timed_out_point_is_recorded(self, tiny_soc, stalled_point):
        runner = BatchRunner(max_workers=2, on_error="record")
        results = runner.run(
            [BatchJob(tiny_soc, w, 2) for w in (4, 5, 6)],
            point_timeout=1.5,
        )
        kinds = [isinstance(r, FailedPoint) for r in results]
        assert kinds == [False, True, False]
        assert results[1].error_type == "DeadlineError"
        assert runner.points_timed_out == 1

    def test_timed_out_point_raises_under_default_policy(
        self, tiny_soc, stalled_point
    ):
        from repro.exceptions import DeadlineError

        runner = BatchRunner(max_workers=2)
        with pytest.raises(DeadlineError):
            runner.run(
                [BatchJob(tiny_soc, w, 2) for w in (4, 5)],
                point_timeout=1.5,
            )

    def test_generous_deadline_changes_nothing(self, tiny_soc):
        jobs = [BatchJob(tiny_soc, w, 2) for w in (4, 5)]
        plain = BatchRunner(max_workers=2).run(jobs)
        timed = BatchRunner(max_workers=2, point_timeout=120).run(jobs)
        assert timed == plain

    def test_stalled_shard_times_out_its_sharded_point(
        self, tiny_soc, monkeypatch
    ):
        # The sharded point runs in the parent and fans its shards
        # out; its deadline covers every one of its tasks.
        monkeypatch.setenv(
            FAULTS_ENV, f"slow@{SEED % NUM_SHARDS}=4"
        )
        runner = BatchRunner(max_workers=2, on_error="record")
        [result] = runner.run(
            [sharded_job(tiny_soc)], shard=NUM_SHARDS,
            point_timeout=1.5,
        )
        assert runner.jobs_sharded == 1
        assert isinstance(result, FailedPoint)
        assert result.error_type == "DeadlineError"
        assert runner.points_timed_out == 1


class TestFanOutTaskRetries:
    """A fan-out task that raises once is re-run alone, once."""

    CASES = {
        "shard": (sharded_job, {"shard": NUM_SHARDS}),
        "island": (search_job, {}),
        "polish": (
            lambda soc: sharded_job(soc, polish_top_k=4),
            {"shard": NUM_SHARDS},
        ),
    }

    @pytest.mark.parametrize("kind", sorted(CASES))
    def test_task_raising_once_is_rerun_once(
        self, kind, tiny_soc, tmp_path, monkeypatch
    ):
        monkeypatch.delenv(FAULTS_ENV, raising=False)
        make_job, run_options = self.CASES[kind]
        job = make_job(tiny_soc)
        (inline,) = BatchRunner(max_workers=1).run([job])
        monkeypatch.setenv(FLAKY_DIR_ENV, str(tmp_path))
        monkeypatch.setattr(batch, f"_{kind}_task", FLAKY_TASKS[kind])
        runner = BatchRunner(max_workers=2)
        (point,) = runner.run([job], **run_options)
        assert signature(point) == signature(inline)
        counters = runner.metrics.snapshot()
        for other in self.CASES:
            expected = 1 if other == kind else 0
            assert counters.counter(f"engine.{other}_retries") == expected
        assert (tmp_path / f"{kind}-failed").exists()


class TestFaultHookPlacement:
    """Point, shard and island tasks take the crash/slow hooks; only
    shard and island tasks take the shm hook; polish and build tasks
    take none.

    Each case runs one workload under a plan aimed at index ``K`` and
    checks which hooks fired: a crash rebuilds the pool once, a
    one-shot ``slow@K=0`` counts one injected fault, and ``shm@K``
    makes one shard or island task run without its incumbent board.
    """

    @staticmethod
    def hooked_plan(state, k):
        return f"seed={SEED},state={state},crash@{k},slow@{k}=0,shm@{k}"

    def case(self, kind, tiny_soc, d695, state):
        """(jobs, run options, plan, expected counters) for ``kind``."""
        if kind == "point":
            k = SEED % 3
            jobs = [BatchJob(tiny_soc, w, 2) for w in (4, 5, 6)]
            return jobs, {}, self.hooked_plan(state, k), (1, 0, 1)
        if kind == "shard":
            plan = self.hooked_plan(state, SEED % NUM_SHARDS)
            return [sharded_job(tiny_soc)], {"shard": NUM_SHARDS}, \
                plan, (1, 1, 2)
        if kind == "island":
            plan = self.hooked_plan(state, SEED % NUM_ISLANDS)
            return [search_job(tiny_soc)], {}, plan, (1, 1, 2)
        if kind == "polish":
            # Aimed past the shard indices, at a polish task index.
            plan = self.hooked_plan(state, NUM_SHARDS + SEED % 2)
            job = sharded_job(tiny_soc, polish_top_k=4)
            return [job], {"shard": NUM_SHARDS}, plan, (0, 0, 0)
        # Two cold SOCs build through the pool, one task each; every
        # build index is also a point index, so the slow fault (no
        # state: it fires at every hooked task with that key) must
        # fire once, at the point alone.
        jobs = [BatchJob(tiny_soc, 8, 2), BatchJob(d695, 8, 2)]
        return jobs, {}, f"seed={SEED},slow@{SEED % 2}=0", (0, 0, 1)

    @pytest.mark.parametrize(
        "kind", ["point", "shard", "island", "polish", "build"]
    )
    def test_hooks_fire_on_hooked_tasks_only(
        self, kind, tiny_soc, d695, tmp_path, monkeypatch
    ):
        monkeypatch.delenv(FAULTS_ENV, raising=False)
        jobs, run_options, plan, expected = self.case(
            kind, tiny_soc, d695, tmp_path / "tokens"
        )
        inline = BatchRunner(max_workers=1).run(jobs)
        monkeypatch.setenv(FAULTS_ENV, plan)
        runner = BatchRunner(max_workers=2)
        # Traced, so the pool's build tasks show up as spans.
        TRACER.enable()
        try:
            results = runner.run(jobs, **run_options)
        finally:
            TRACER.disable()
        assert [signature(p) for p in results] == \
            [signature(p) for p in inline]
        counters = runner.metrics.snapshot()
        assert (
            runner.pool_restarts,
            runner.shm_fallbacks,
            counters.counter("faults.injected"),
        ) == expected
        if kind == "polish":
            assert counters.counter("engine.polish_tasks_fanned") > \
                NUM_SHARDS + SEED % 2
        if kind == "build":
            spans = [s.name for s in runner.last_run_spans]
            assert spans.count("build_tables") == 2
