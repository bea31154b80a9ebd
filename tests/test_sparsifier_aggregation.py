"""Tests: all aggregation strategies agree with each other — the library's
sort-reduce kernel and run reducer (``repro.sparsifier.aggregation``) and
the §4.2 hash family of the E12/E15 fixture ``benchmarks/hashing.py``."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from benchmarks.hashing import (
    aggregate_hash,
    aggregate_hash_sharded,
    aggregate_histogram,
)
from repro.errors import SamplingError
from repro.graph.generators import erdos_renyi_graph
from repro.sparsifier.aggregation import (
    aggregate_dict,
    aggregate_sort,
    merge_runs,
    reduce_pairs,
)
from repro.sparsifier.path_sampling import PathSamplingConfig, per_draw_samples


def _canon(triple):
    rows, cols, values = triple
    order = np.lexsort((cols, rows))
    return rows[order], cols[order], values[order]


ALL = [aggregate_dict, aggregate_sort, aggregate_hash, aggregate_hash_sharded]
GUARDED = ALL + [aggregate_histogram]


class TestAgreement:
    @pytest.mark.parametrize("aggregate", ALL)
    def test_simple_case(self, aggregate):
        rows = np.array([0, 0, 1])
        cols = np.array([1, 1, 2])
        values = np.array([1.0, 2.0, 4.0])
        r, c, v = _canon(aggregate(rows, cols, values, n=5))
        np.testing.assert_array_equal(r, [0, 1])
        np.testing.assert_array_equal(c, [1, 2])
        np.testing.assert_allclose(v, [3.0, 4.0])

    @pytest.mark.parametrize("aggregate", ALL)
    def test_empty(self, aggregate):
        empty = np.empty(0, dtype=np.int64)
        r, c, v = aggregate(empty, empty, np.empty(0), n=4)
        assert r.size == c.size == v.size == 0

    def test_random_agreement(self, rng):
        n = 40
        rows = rng.integers(0, n, size=3000)
        cols = rng.integers(0, n, size=3000)
        values = rng.random(3000)
        reference = _canon(aggregate_dict(rows, cols, values, n))
        for aggregate in (aggregate_sort, aggregate_hash, aggregate_hash_sharded):
            got = _canon(aggregate(rows, cols, values, n))
            np.testing.assert_array_equal(got[0], reference[0])
            np.testing.assert_array_equal(got[1], reference[1])
            np.testing.assert_allclose(got[2], reference[2])

    def test_hash_batching(self, rng):
        n = 20
        rows = rng.integers(0, n, size=1000)
        cols = rng.integers(0, n, size=1000)
        values = np.ones(1000)
        small = _canon(aggregate_hash(rows, cols, values, n, batch_size=37))
        big = _canon(aggregate_hash(rows, cols, values, n, batch_size=10**6))
        np.testing.assert_allclose(small[2], big[2])

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=15),
                st.integers(min_value=0, max_value=15),
            ),
            min_size=1,
            max_size=200,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_property_agreement(self, pairs):
        rows = np.array([r for r, _ in pairs], dtype=np.int64)
        cols = np.array([c for _, c in pairs], dtype=np.int64)
        values = np.ones(rows.size)
        reference = _canon(aggregate_dict(rows, cols, values, 16))
        for aggregate in (aggregate_sort, aggregate_hash, aggregate_hash_sharded):
            got = _canon(aggregate(rows, cols, values, 16))
            np.testing.assert_array_equal(got[0], reference[0])
            np.testing.assert_allclose(got[2], reference[2])

    @pytest.mark.parametrize("aggregate", ALL)
    def test_parallel_array_validation(self, aggregate):
        with pytest.raises(ValueError):
            aggregate(np.array([0]), np.array([0, 1]), np.array([1.0]), n=3)


class TestSortKernel:
    """The default aggregator: stream-order sums, row-major sorted output."""

    # Few distinct keys and up to 60 samples: some key repeats > 8 times in
    # most examples, where a pairwise (reduceat-style) sum would differ from
    # the sequential one in the last digit.
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=2),
                st.integers(min_value=0, max_value=2),
                st.floats(min_value=1e-3, max_value=1e3),
            ),
            max_size=60,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_property_equals_dict_exactly(self, samples):
        rows = np.array([s[0] for s in samples], dtype=np.int64)
        cols = np.array([s[1] for s in samples], dtype=np.int64)
        values = np.array([s[2] for s in samples], dtype=np.float64)
        got = aggregate_sort(rows, cols, values, 3)
        keys = got[0] * 3 + got[1]
        assert np.all(np.diff(keys) > 0)
        assert got[2].dtype == np.float64
        for a, b in zip(got, _canon(aggregate_dict(rows, cols, values, 3))):
            np.testing.assert_array_equal(a, b)

    def test_one_key_many_times_sums_in_stream_order(self, rng):
        values = rng.random(1000) * 10.0 ** rng.integers(-8, 8, size=1000)
        zeros = np.zeros(1000, dtype=np.int64)
        _, _, got = aggregate_sort(zeros, zeros, values, 1)
        sequential = 0.0
        for value in values.tolist():
            sequential += value
        assert got.tolist() == [sequential]

    def test_single_sample(self):
        r, c, v = aggregate_sort([3], [1], [2.5], 4)
        assert (r.tolist(), c.tolist(), v.tolist()) == ([3], [1], [2.5])

    def test_stats_recorded(self, rng):
        stats = {}
        r, _, _ = aggregate_sort(
            rng.integers(0, 10, 200), rng.integers(0, 10, 200), np.ones(200),
            10, stats=stats,
        )
        assert stats["distinct"] == r.size
        # packed keys + inverse (one per sample), unique keys + sums.
        assert stats["peak_table_bytes"] == 8 * (2 * 200 + 2 * r.size)

    def test_hash_variants_bitwise_equal_below_one_batch(self):
        # A real 1/p_e-weighted sample stream shorter than aggregate_hash's
        # 1M batch: the sort kernel and both hash tables sum each key in
        # stream order, so they agree bit for bit, not just to rounding.
        graph = erdos_renyi_graph(60, 0.3, seed=0)
        config = PathSamplingConfig(
            window=3, num_samples=20_000, downsample=True,
            downsample_constant=0.5,
        )
        u, v, w, _ = per_draw_samples(graph, config, 1)
        assert 0 < u.size < 1_000_000 and np.unique(w).size > 1
        reference = aggregate_sort(u, v, w, 60)
        for aggregate in (aggregate_hash, aggregate_hash_sharded):
            for a, b in zip(_canon(aggregate(u, v, w, 60)), reference):
                np.testing.assert_array_equal(a, b)


class TestRunReducer:
    """The stream's reducer: slabs become canonical sorted runs, runs are
    folded in order into the reduced upper triangle."""

    @staticmethod
    def _oracle(rows, cols, values, n):
        return _canon(aggregate_dict(
            np.minimum(rows, cols), np.maximum(rows, cols), values, n
        ))

    def test_a_slab_is_reduced_onto_the_upper_triangle(self):
        keys, sums = reduce_pairs(
            np.array([2, 1, 3, 1, 0]), np.array([1, 2, 3, 2, 4]),
            np.array([1.0, 2.0, 8.0, 4.0, 16.0]), 5,
        )
        assert keys.tolist() == [0 * 5 + 4, 1 * 5 + 2, 3 * 5 + 3]
        assert sums.tolist() == [16.0, 7.0, 8.0]

    @given(
        st.lists(
            st.tuples(
                st.integers(0, 5), st.integers(0, 5),
                st.floats(min_value=1e-3, max_value=1e3),
            ),
            max_size=120,
        ),
        st.integers(1, 12),
        st.booleans(),
    )
    @settings(max_examples=80, deadline=None)
    def test_property_any_slab_cut_merges_to_the_oracle(
        self, samples, slab, whole_weights
    ):
        rows = np.array([s[0] for s in samples], dtype=np.int64)
        cols = np.array([s[1] for s in samples], dtype=np.int64)
        values = np.array([s[2] for s in samples], dtype=np.float64)
        if whole_weights:
            values = np.ceil(values)
        runs = [
            reduce_pairs(rows[i:i + slab], cols[i:i + slab], values[i:i + slab], 6)
            for i in range(0, rows.size, slab)
        ]
        stats = {}
        got = merge_runs(iter(runs), 6, stats=stats)
        want = self._oracle(rows, cols, values, 6)
        assert np.all(got[0] <= got[1])
        assert np.all(np.diff(got[0] * 6 + got[1]) > 0)
        np.testing.assert_array_equal(got[0], want[0])
        np.testing.assert_array_equal(got[1], want[1])
        assert got[2].dtype == np.float64
        if whole_weights:  # partial sums of integers are exact in any order
            np.testing.assert_array_equal(got[2], want[2])
        else:
            np.testing.assert_allclose(got[2], want[2], rtol=1e-13)
        assert stats["distinct"] == got[0].size
        assert stats["peak_table_bytes"] >= 16 * got[0].size

    def test_a_keys_entries_are_added_in_run_order(self, rng):
        # One key in every run, the runs growing so that each is folded on
        # arrival: the value is the left-to-right sum over the runs.
        values = rng.random(40) * 10.0 ** rng.integers(-8, 8, size=40)
        runs = [(np.array([7]), np.array([value])) for value in values]
        _, _, got = merge_runs(iter(runs), 4)
        sequential = 0.0
        for value in values.tolist():
            sequential += value
        assert got.tolist() == [sequential]
        # ... and within one fold too (all forty set aside behind a wide run).
        wide = (np.arange(100), np.ones(100))
        _, _, got = merge_runs(iter([wide, *runs]), 10)
        folded = 1.0
        for value in values.tolist():
            folded += value
        assert got[7] == folded

    def test_same_runs_same_bits_whatever_their_container(self, rng):
        rows, cols = rng.integers(0, 30, size=(2, 5000))
        values = rng.random(5000) + 1.0
        runs = [
            reduce_pairs(rows[i:i + 300], cols[i:i + 300], values[i:i + 300], 30)
            for i in range(0, 5000, 300)
        ]
        first = merge_runs(iter(runs), 30)
        again = merge_runs((run for run in list(runs)), 30)
        for a, b in zip(first, again):
            np.testing.assert_array_equal(a, b)

    def test_no_runs_and_empty_runs(self):
        empty = (np.empty(0, dtype=np.int64), np.empty(0))
        for runs in ([], [empty], [empty, empty, empty]):
            stats = {}
            rows, cols, sums = merge_runs(iter(runs), 5, stats=stats)
            assert rows.size == cols.size == sums.size == 0
            assert rows.dtype == cols.dtype == np.int64 and sums.dtype == np.float64
            assert stats == {"peak_table_bytes": 0, "distinct": 0}
        one = reduce_pairs(np.array([1]), np.array([0]), np.array([2.0]), 5)
        rows, cols, sums = merge_runs(iter([empty, one, empty]), 5)
        assert (rows.tolist(), cols.tolist(), sums.tolist()) == ([0], [1], [2.0])

    def test_key_overflow_rejected(self):
        with pytest.raises(SamplingError):
            merge_runs(iter([]), 2**32)


class TestInputGuards:
    """Keys pack as ``row*n+col``: out-of-range input must not alias."""

    @pytest.mark.parametrize("aggregate", GUARDED)
    @pytest.mark.parametrize(
        "rows, cols", [([0, 5], [1, 1]), ([0, 1], [1, 5]), ([-1], [0]), ([0], [-2])]
    )
    def test_out_of_range_index_rejected(self, aggregate, rows, cols):
        with pytest.raises(SamplingError):
            aggregate(np.array(rows), np.array(cols), np.ones(len(rows)), n=5)

    @pytest.mark.parametrize("aggregate", GUARDED)
    def test_key_overflow_rejected(self, aggregate):
        n = 2**32  # n*n - 1 == 2**64 - 1 does not fit int64
        with pytest.raises(SamplingError):
            aggregate(np.array([n - 1]), np.array([n - 1]), np.ones(1), n=n)

    def test_largest_exact_key_space_accepted(self):
        n = 3_037_000_499  # floor(sqrt(2**63)): n*n - 1 still fits
        r, c, v = aggregate_sort([n - 1, n - 1], [n - 1, n - 1], [1.0, 2.0], n)
        assert (r.tolist(), c.tolist(), v.tolist()) == ([n - 1], [n - 1], [3.0])


class TestShardedAggregation:
    """The §4.2 per-processor-tables alternative: hash-partitioned shards."""

    def test_duplicate_heavy_matches_dict(self, rng):
        # A tiny keyspace makes nearly every sample a duplicate, stressing
        # the in-shard accumulation and the final merge.
        n = 5
        rows = rng.integers(0, n, size=4000)
        cols = rng.integers(0, n, size=4000)
        values = rng.random(4000)
        reference = _canon(aggregate_dict(rows, cols, values, n))
        got = _canon(
            aggregate_hash_sharded(rows, cols, values, n, num_shards=4, workers=4)
        )
        np.testing.assert_array_equal(got[0], reference[0])
        np.testing.assert_array_equal(got[1], reference[1])
        np.testing.assert_allclose(got[2], reference[2])

    def test_growth_triggering_batches(self, rng):
        # batch_size far below the distinct-key count forces every shard
        # table to rehash repeatedly while accumulating.
        n = 200
        rows = rng.integers(0, n, size=6000)
        cols = rng.integers(0, n, size=6000)
        values = np.ones(6000)
        reference = _canon(aggregate_dict(rows, cols, values, n))
        got = _canon(
            aggregate_hash_sharded(
                rows, cols, values, n, num_shards=3, workers=2, batch_size=101
            )
        )
        np.testing.assert_array_equal(got[0], reference[0])
        np.testing.assert_allclose(got[2], reference[2])

    def test_shard_and_worker_counts_irrelevant(self, rng):
        n = 30
        rows = rng.integers(0, n, size=2000)
        cols = rng.integers(0, n, size=2000)
        values = rng.random(2000)
        reference = _canon(aggregate_hash(rows, cols, values, n))
        for num_shards, workers in [(1, 1), (3, 1), (8, 4), (16, 2)]:
            got = _canon(
                aggregate_hash_sharded(
                    rows, cols, values, n, num_shards=num_shards, workers=workers
                )
            )
            np.testing.assert_array_equal(got[0], reference[0])
            np.testing.assert_array_equal(got[1], reference[1])
            np.testing.assert_allclose(got[2], reference[2])

    def test_stats_recorded(self, rng):
        n = 30
        rows = rng.integers(0, n, size=1000)
        cols = rng.integers(0, n, size=1000)
        stats = {}
        r, _, _ = aggregate_hash_sharded(
            rows, cols, np.ones(1000), n, num_shards=4, stats=stats
        )
        assert stats["num_shards"] == 4
        assert stats["distinct"] == r.size
        # Shards are key-disjoint: their items are concatenated, no merge
        # table exists, so the shard tables are the whole footprint.
        assert stats["peak_table_bytes"] == stats["shard_table_bytes"] > 0
        assert stats["probe_rounds"] > 0

    def test_invalid_shard_count(self):
        with pytest.raises(ValueError):
            aggregate_hash_sharded(
                np.array([0]), np.array([0]), np.array([1.0]), 2, num_shards=0
            )

    def test_hash_stats_recorded(self, rng):
        stats = {}
        r, _, _ = aggregate_hash(
            rng.integers(0, 10, 200), rng.integers(0, 10, 200), np.ones(200),
            10, stats=stats,
        )
        assert stats["distinct"] == r.size
        assert stats["peak_table_bytes"] > 0


class TestHistogramAggregation:
    """The per-processor-lists + sparse-histogram strategy (§4.2 alt #1)."""

    def test_matches_dict(self, rng):
        rows = rng.integers(0, 30, size=2000)
        cols = rng.integers(0, 30, size=2000)
        values = rng.random(2000)
        reference = _canon(aggregate_dict(rows, cols, values, 30))
        got = _canon(aggregate_histogram(rows, cols, values, 30))
        np.testing.assert_array_equal(got[0], reference[0])
        np.testing.assert_array_equal(got[1], reference[1])
        np.testing.assert_allclose(got[2], reference[2])

    def test_partition_count_irrelevant(self, rng):
        rows = rng.integers(0, 10, size=300)
        cols = rng.integers(0, 10, size=300)
        values = np.ones(300)
        a = _canon(aggregate_histogram(rows, cols, values, 10, num_partitions=1))
        b = _canon(aggregate_histogram(rows, cols, values, 10, num_partitions=16))
        np.testing.assert_allclose(a[2], b[2])

    def test_more_partitions_than_samples(self):
        r, c, v = aggregate_histogram(
            np.array([0]), np.array([1]), np.array([2.0]), 4, num_partitions=8
        )
        assert r.size == 1 and v[0] == 2.0

    def test_empty(self):
        empty = np.empty(0, dtype=np.int64)
        r, c, v = aggregate_histogram(empty, empty, np.empty(0), 4)
        assert r.size == 0

    def test_invalid_partitions(self):
        with pytest.raises(ValueError):
            aggregate_histogram(
                np.array([0]), np.array([0]), np.array([1.0]), 2, num_partitions=0
            )
