"""Differential oracle: the fused sweep walker against its frozen reference.

``_sweep_reference.py`` holds the partition sweep as it was before
enumeration and scoring were fused into
:func:`repro.engine.kernel.sweep_partitions`: one ``sweep_assign``
call per partition of ``unique_partitions`` (or of a rank slice, for
a shard), each lower-bound test made partition by partition.  The
walker must make exactly the same abort/complete decision for every
partition, so the two agree on ``best``, ``runners_up`` and every
``PartitionStats`` field — ``num_lb_pruned`` included, although the
walker counts lower-bound skips a loop tail or a subtree at a time —
and a shard records exactly the same completions.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _sweep_reference as reference
from repro.engine.cache import WrapperTableCache
from repro.engine.kernel import (
    DenseTimeMatrix,
    KernelWorkspace,
    build_dense_matrix,
    sweep_assign,
    sweep_partitions,
)
from repro.exceptions import ConfigurationError
from repro.partition.count import count_partitions
from repro.partition.evaluate import partition_evaluate
from repro.partition.shard import (
    LocalBoard,
    ShardSpan,
    plan_shards,
    sharded_partition_evaluate,
    sweep_shard,
)
from repro.soc.data import get_benchmark

SOCS = ("d695", "p21241", "p31108", "p93791")
WIDTHS = (8, 16, 32, 48, 64)
PRUNES = (True, "lb", False)

#: Largest TAM count swept per width: deep enough for three outer
#: walker levels everywhere, small enough that the unpruned
#: reference (every partition scored to completion) stays quick.
B_MAX = {8: 8, 16: 8, 32: 6, 48: 5, 64: 4}


def outcome(result):
    return result.best, result.runners_up, result.stats


def assert_same_sweep(matrix, tables, width, counts, **options):
    """Production and reference agree, or both reject the sweep."""
    try:
        expected = outcome(reference.partition_evaluate(
            tables, width, counts, dense=matrix, **options
        ))
    except ConfigurationError:
        with pytest.raises(ConfigurationError):
            partition_evaluate(
                tables, width, counts, dense=matrix, **options
            )
        return
    assert outcome(partition_evaluate(
        tables, width, counts, dense=matrix, **options
    )) == expected, options


@pytest.fixture(scope="module")
def caches():
    return {}


def sweep_inputs(caches, soc_name, width):
    if soc_name not in caches:
        caches[soc_name] = WrapperTableCache(get_benchmark(soc_name))
    tables = caches[soc_name].table_list(width)
    return tables, build_dense_matrix(tables, width)


class TestItc02Grid:
    @pytest.mark.parametrize("width", WIDTHS)
    @pytest.mark.parametrize("soc_name", SOCS)
    def test_every_option_matches_reference(
        self, caches, soc_name, width
    ):
        tables, matrix = sweep_inputs(caches, soc_name, width)
        counts = range(1, B_MAX[width] + 1)
        for prune in PRUNES:
            for keep_top in (1, 3):
                for stratify in (False, True):
                    assert_same_sweep(
                        matrix, tables, width, counts, prune=prune,
                        keep_top=keep_top,
                        stratify_by_tam_count=stratify,
                    )

    @pytest.mark.parametrize("width", WIDTHS)
    @pytest.mark.parametrize("soc_name", SOCS)
    def test_initial_best_matches_reference(
        self, caches, soc_name, width
    ):
        tables, matrix = sweep_inputs(caches, soc_name, width)
        counts = range(1, B_MAX[width] + 1)
        best = partition_evaluate(
            tables, width, counts, dense=matrix
        ).testing_time
        # A loose incumbent, a tight one, and an unbeatable one
        # (both sides must reject it).
        for initial_best in (best * 11 // 10, best + 1, best):
            for prune in (True, "lb"):
                assert_same_sweep(
                    matrix, tables, width, counts, prune=prune,
                    initial_best=initial_best, keep_top=3,
                )

    def test_deep_lb_sweep_matches_reference(self, caches):
        # Ten TAM counts at W=64, where the bound skips almost every
        # partition: whole subtrees at once in the walker.
        tables, matrix = sweep_inputs(caches, "p31108", 64)
        assert_same_sweep(matrix, tables, 64, range(1, 11), prune="lb")

    def test_increment_enumerator_still_scores_one_by_one(
        self, caches
    ):
        tables, matrix = sweep_inputs(caches, "d695", 16)
        for prune in PRUNES:
            assert_same_sweep(
                matrix, tables, 16, range(1, 6), prune=prune,
                enumerator="increment",
            )


class _Row:
    """The one table attribute a sweep over a given matrix reads."""

    def __init__(self, max_width):
        self.max_width = max_width


#: Times a random matrix draws from: zeros, and few enough distinct
#: values that columns tie and the reference-width tie-break decides.
TIMES = (0, 0, 1, 2, 3, 5, 8, 13, 40)
TIED_TIMES = (0, 1, 2, 3)


@st.composite
def small_matrices(draw, monotone=True, times=TIMES, max_cores=6):
    """Random N×W matrices with zero times and (optionally) staircases."""
    num_cores = draw(st.integers(1, max_cores))
    width = draw(st.integers(1, 12))
    rows = []
    for _ in range(num_cores):
        row = draw(st.lists(
            st.sampled_from(times), min_size=width, max_size=width,
        ))
        rows.append(sorted(row, reverse=True) if monotone else row)
    flat = [time for row in rows for time in row]
    return DenseTimeMatrix(flat, num_cores, width)


def sweep_options(width):
    return st.fixed_dictionaries({
        "counts": st.lists(
            st.integers(1, width + 1), min_size=1, max_size=4
        ),
        "keep_top": st.integers(1, 3),
        "stratify_by_tam_count": st.booleans(),
        "initial_best": st.one_of(st.none(), st.integers(0, 200)),
    })


class TestRandomMatrices:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_staircase_rows_every_prune_mode(self, data):
        matrix = data.draw(small_matrices())
        width = matrix.total_width
        options = data.draw(sweep_options(width))
        counts = options.pop("counts")
        tables = [_Row(width)] * matrix.num_cores
        for prune in PRUNES:
            assert_same_sweep(
                matrix, tables, width, counts, prune=prune, **options
            )

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_tied_columns_follow_the_reference_tie_break(self, data):
        # Equal-width runs pick cores by the reference bus's times on
        # a tie, and the walker tracks each bus's reference itself.
        matrix = data.draw(small_matrices(times=TIED_TIMES, max_cores=9))
        width = matrix.total_width
        options = data.draw(sweep_options(width))
        counts = options.pop("counts")
        tables = [_Row(width)] * matrix.num_cores
        for prune in PRUNES:
            assert_same_sweep(
                matrix, tables, width, counts, prune=prune, **options
            )

    def test_last_run_reference_on_a_hand_built_tie(self):
        # Three cores tie on width 2 and differ on width 1: the second
        # width-2 bus of (1, 2, 2) must rank them by width 1, as the
        # first one does (a width-2 bus's reference is width 1).
        rows = ((10, 5, 5, 5, 5), (30, 5, 5, 5, 5), (20, 5, 5, 5, 5))
        matrix = DenseTimeMatrix(
            [time for row in rows for time in row], 3, 5
        )
        tables = [_Row(5)] * 3
        assert_same_sweep(matrix, tables, 5, 3, prune=False)
        result = partition_evaluate(
            tables, 5, 3, dense=matrix, prune=False, keep_top=3
        )
        by_widths = {
            entry.widths: entry.assignment
            for entry in (result.best,) + result.runners_up
        }
        assert by_widths[(1, 2, 2)] == (0, 1, 2)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_arbitrary_rows_without_the_bound(self, data):
        # The lower bound assumes staircase rows; the abort and the
        # scan-free first round (with its zero-time fallback) do not.
        matrix = data.draw(small_matrices(monotone=False))
        width = matrix.total_width
        options = data.draw(sweep_options(width))
        counts = options.pop("counts")
        tables = [_Row(width)] * matrix.num_cores
        for prune in (True, False):
            assert_same_sweep(
                matrix, tables, width, counts, prune=prune, **options
            )

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_sweep_assign_matches_reference(self, data):
        # Any bus order, repeated widths, zero times, any incumbent.
        matrix = data.draw(small_matrices(monotone=data.draw(st.booleans())))
        widths = data.draw(st.lists(
            st.integers(1, matrix.total_width), min_size=1, max_size=6
        ))
        best_known = data.draw(st.one_of(st.none(), st.integers(0, 200)))
        workspace = KernelWorkspace()
        expected = reference.sweep_assign(matrix, widths, best_known)
        assert sweep_assign(
            matrix, widths, best_known, workspace
        ) == expected
        # A reused workspace must not leak state between partitions.
        assert sweep_assign(
            matrix, widths, best_known, workspace
        ) == expected


class TestWalkerContract:
    def test_range_must_lie_inside_the_enumeration(self, caches):
        _, matrix = sweep_inputs(caches, "d695", 8)
        size = count_partitions(8, 3)
        for start, stop in ((0, size + 1), (-1, 2), (3, 2)):
            with pytest.raises(ConfigurationError):
                sweep_partitions(matrix, 8, 3, start, stop, None)
        with pytest.raises(ConfigurationError):
            sweep_partitions(matrix, 8, 9, 0, 0, None)
        with pytest.raises(ConfigurationError):
            sweep_partitions(matrix, 9, 2, 0, 1, None)

    def test_empty_range_scores_nothing(self, caches):
        _, matrix = sweep_inputs(caches, "d695", 8)
        assert sweep_partitions(matrix, 8, 3, 2, 2, None) == (0, 0)


def run_shards(shard_fn, matrix, width, shards, board, **options):
    return [
        shard_fn(matrix, spans, index, width, board=board, **options)
        for index, spans in enumerate(shards)
    ]


class TestShardSlices:
    """Shard spans that cut subtrees and counts anywhere."""

    @pytest.mark.parametrize("seed", range(12))
    def test_random_plans_match_reference_and_serial(self, caches, seed):
        rng = random.Random(seed)
        soc_name = rng.choice(("d695", "p31108", "p93791"))
        width = rng.choice((12, 16, 20, 24))
        counts = [rng.randint(1, 7) for _ in range(rng.randint(1, 4))]
        num_shards = rng.randint(1, 17)
        prune = rng.choice(PRUNES)
        keep_top = rng.choice((1, 2, 3))
        tables, matrix = sweep_inputs(caches, soc_name, width)
        plan = plan_shards(width, counts, num_shards)
        options = dict(keep_top=keep_top, prune=prune)
        for with_board in (False, True):
            boards = (
                (LocalBoard(plan.num_shards, keep_top),
                 LocalBoard(plan.num_shards, keep_top))
                if with_board else (None, None)
            )
            produced = run_shards(
                sweep_shard, matrix, width, plan.shards, boards[0],
                **options,
            )
            expected = run_shards(
                reference.sweep_shard, matrix, width, plan.shards,
                boards[1], **options,
            )
            assert [shard.completions for shard in produced] == [
                shard.completions for shard in expected
            ], (seed, with_board)
        serial = partition_evaluate(
            tables, width, counts, dense=matrix, **options
        )
        sharded = sharded_partition_evaluate(
            tables, width, counts, num_shards, dense=matrix, **options
        )
        assert outcome(sharded) == outcome(serial)

    @pytest.mark.parametrize("seed", range(8))
    def test_spans_starting_mid_subtree(self, caches, seed):
        rng = random.Random(100 + seed)
        width = rng.choice((16, 24, 32))
        num_tams = rng.randint(2, 6)
        size = count_partitions(width, num_tams)
        tables, matrix = sweep_inputs(caches, "p21241", width)
        best = partition_evaluate(
            tables, width, num_tams, dense=matrix
        ).testing_time
        for _ in range(6):
            start = rng.randrange(size + 1)
            stop = rng.randint(start, size)
            spans = (ShardSpan(0, num_tams, start, stop),)
            for prune in PRUNES:
                options = dict(
                    keep_top=rng.choice((1, 3)), prune=prune,
                    initial_best=rng.choice((None, best * 2, best + 1)),
                )
                produced = sweep_shard(matrix, spans, 0, width, **options)
                expected = reference.sweep_shard(
                    matrix, spans, 0, width, **options
                )
                assert produced.completions == expected.completions, (
                    start, stop, options,
                )
