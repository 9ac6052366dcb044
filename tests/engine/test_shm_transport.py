"""The by-value dense-matrix transport: descriptors, the worker-side
cache, and what each kind of pool task carries."""

import pickle
from multiprocessing import shared_memory

import pytest

import repro.engine.shm as shm
from repro.engine.batch import (
    BatchJob,
    BatchRunner,
    Task,
    _point_task,
    _run_task,
    _Worker,
)
from repro.engine.kernel import build_dense_matrix
from repro.engine.shm import DenseDescriptor, attach
from repro.soc.fingerprint import soc_fingerprint
from repro.wrapper.pareto import build_time_tables


def _drop(fingerprint):
    """Forget a worker-cache entry."""
    shm._ATTACHED.pop(fingerprint, None)


def run_point(caches, job, descriptor=None):
    """One job through the pool's task entry point, in-process."""
    point, _ = _run_task(
        Task(_point_task, (job, descriptor)), _Worker(caches)
    )
    return point


def matrix_for(soc, width):
    tables = build_time_tables(soc, width)
    return build_dense_matrix(
        [tables[core.name] for core in soc.cores], width
    )


class TestSegmentRoundTrip:
    """A descriptor carries its matrix by value through the pickle
    channel, and each worker unpacks it once per SOC fingerprint."""

    def test_publish_attach_round_trip(self, tiny_soc):
        matrix = matrix_for(tiny_soc, 10)
        descriptor = DenseDescriptor.of("fp-roundtrip", matrix)
        assert descriptor.payload == matrix.to_bytes()
        assert descriptor.design_payload is None
        try:
            attached = attach(pickle.loads(pickle.dumps(descriptor)))
            for width in range(1, 11):
                assert attached.column(width) == matrix.column(width)
        finally:
            _drop("fp-roundtrip")

    def test_publish_reuses_wide_segments(self, tiny_soc):
        # The runner keeps one descriptor per SOC: reused while wide
        # enough, replaced by a wider build, dropped on close().
        fingerprint = soc_fingerprint(tiny_soc)
        with BatchRunner(max_workers=2, persistent=True) as runner:
            runner.run([BatchJob(tiny_soc, 12, 2)])
            wide = runner._descriptors[fingerprint]
            runner.run([BatchJob(tiny_soc, 8, 2)])
            assert runner._descriptors[fingerprint] is wide
            runner.run([BatchJob(tiny_soc, 16, 2)])
            wider = runner._descriptors[fingerprint]
            assert wider is not wide and wider.total_width == 16
            assert list(runner._descriptors) == [fingerprint]
        assert runner._descriptors == {}
        assert runner._matrices == {}

    def test_attach_caches_per_fingerprint(self, tiny_soc):
        matrix = matrix_for(tiny_soc, 8)
        try:
            first = attach(DenseDescriptor.of("fp-cache", matrix))
            # A fresh copy of the same descriptor (what the next task
            # unpickles) is served from the cache, memos and all.
            again = DenseDescriptor.of("fp-cache", matrix)
            assert attach(again) is first
        finally:
            _drop("fp-cache")

    def test_superseded_attachment_is_evicted(self, tiny_soc):
        # A wider matrix for the same SOC replaces the cache entry
        # instead of pinning every generation until process exit.
        try:
            stale = attach(
                DenseDescriptor.of("fp-evict", matrix_for(tiny_soc, 8))
            )
            fresh = attach(
                DenseDescriptor.of("fp-evict", matrix_for(tiny_soc, 12))
            )
            assert fresh is not stale
            assert fresh.total_width == 12
            assert shm._ATTACHED["fp-evict"] == (
                (len(tiny_soc.cores), 12), fresh
            )
        finally:
            _drop("fp-evict")


class TestWorkerDensePath:
    def test_pool_matches_inline_with_transport(self, tiny_soc):
        jobs = [BatchJob(tiny_soc, w, (1, 2, 3)) for w in (4, 6, 8)]
        inline = BatchRunner(max_workers=1).run(jobs)
        shared = BatchRunner(max_workers=2).run(jobs)
        assert inline == shared

    def test_mismatched_descriptor_raises(self, tiny_soc):
        # A descriptor only ever ships with the job it was built
        # for; one for other SOC content, or too narrow, is a bug.
        matrix = matrix_for(tiny_soc, 8)
        job = BatchJob(tiny_soc, 6, 2)
        foreign = DenseDescriptor.of("not-this-soc", matrix)
        with pytest.raises(RuntimeError, match="does not serve"):
            run_point({}, job, foreign)
        narrow = DenseDescriptor.of(
            soc_fingerprint(tiny_soc), matrix_for(tiny_soc, 4)
        )
        caches = {}
        with pytest.raises(RuntimeError, match="does not serve"):
            run_point(caches, job, narrow)
        assert caches == {}  # no private table rebuild either

    def test_matching_descriptor_used_without_table_builds(
        self, tiny_soc, monkeypatch
    ):
        import repro.wrapper.pareto as pareto

        matrix = matrix_for(tiny_soc, 8)
        descriptor = DenseDescriptor(
            fingerprint=soc_fingerprint(tiny_soc),
            num_cores=matrix.num_cores,
            total_width=matrix.total_width,
            payload=matrix.to_bytes(),
        )
        job = BatchJob(tiny_soc, 8, 2, options={"polish": False})
        reference = run_point({}, job)

        def exploding(core, width):
            raise AssertionError(
                "dense path must not build wrapper tables"
            )

        # Only the handful of designs for the final report may run —
        # count them instead of forbidding them outright.
        calls = []
        original = pareto.design_wrapper

        def counting(core, width):
            calls.append((core.name, width))
            return original(core, width)

        monkeypatch.setattr(pareto, "design_wrapper", exploding)
        import repro.engine.kernel as kernel_module
        monkeypatch.setattr(kernel_module, "design_wrapper", counting)
        caches = {}
        point = run_point(caches, job, descriptor)
        assert point == reference
        assert caches == {}  # no private WrapperTableCache created
        # Designs ran only for the final architecture's bus widths.
        assert len(calls) <= len(tiny_soc.cores) * len(point.partition)


class TestSharedMemoryHoldsOnlyBoards:
    """Shared memory is created for incumbent boards and nothing else."""

    @pytest.fixture
    def created(self, monkeypatch):
        """Sizes of the segments the parent creates during the test."""
        sizes = []

        class Counting(shared_memory.SharedMemory):
            def __init__(self, name=None, create=False, size=0):
                if create:
                    sizes.append(size)
                super().__init__(name=name, create=create, size=size)

        monkeypatch.setattr(shm._shared_memory, "SharedMemory", Counting)
        return sizes

    @staticmethod
    def jobs(d695, p93791):
        return [BatchJob(d695, 16, 2), BatchJob(p93791, 16, 2)]

    def test_unsharded_pool_creates_no_segment(
        self, d695, p93791, created
    ):
        jobs = self.jobs(d695, p93791)
        inline = BatchRunner(max_workers=1).run(jobs)
        runner = BatchRunner(max_workers=2, shard=0)
        assert runner.run(jobs) == inline
        assert created == []
        assert runner.shm_fallbacks == 0

    def test_sharded_pool_creates_one_board_per_point(
        self, d695, p93791, created
    ):
        jobs = self.jobs(d695, p93791)
        inline = BatchRunner(max_workers=1).run(jobs)
        runner = BatchRunner(max_workers=2, shard=2)
        assert runner.run(jobs) == inline
        assert runner.jobs_sharded == len(jobs)
        # One two-slot board (keep_top=1) per sharded point.
        assert created == [2 * 8] * len(jobs)
        assert runner.shm_fallbacks == 0

    def test_fanned_tasks_carry_no_designs(
        self, tiny_soc, monkeypatch
    ):
        carried = []
        original = BatchRunner._gather

        def spy(self, pool, tasks, kind, deadline):
            carried.extend((kind, task.payload[0]) for task in tasks)
            return original(self, pool, tasks, kind, deadline)

        monkeypatch.setattr(BatchRunner, "_gather", spy)
        sharded = BatchJob(tiny_soc, 10, 2)
        search = BatchJob(tiny_soc, 8, (1, 2), options={
            "mode": "search", "seed": 3, "eval_budget": 200,
        })
        runner = BatchRunner(max_workers=2, shard=2)
        for job in (sharded, search):
            (pooled,) = runner.run([job])
            (inline,) = BatchRunner(max_workers=1).run([job])
            assert (pooled.testing_time, pooled.partition) == \
                (inline.testing_time, inline.partition)
        kinds = {kind for kind, _ in carried}
        assert {"shard", "island"} <= kinds
        for kind, descriptor in carried:
            if kind in ("shard", "island"):
                assert isinstance(descriptor, DenseDescriptor)
                assert descriptor.payload
                assert descriptor.design_payload is None
