"""Tests for the sparse parallel hash table of the E12/E15 fixture
``benchmarks/hashing.py``, incl. hypothesis ground-truthing."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from benchmarks.hashing import SparseParallelHashTable, hash_partition


class TestBasics:
    def test_empty(self):
        table = SparseParallelHashTable()
        assert len(table) == 0
        assert table.get(1) == 0.0

    def test_single_insert(self):
        table = SparseParallelHashTable()
        table.add_batch(np.array([42]), np.array([1.5]))
        assert len(table) == 1
        assert table.get(42) == pytest.approx(1.5)

    def test_get_default(self):
        table = SparseParallelHashTable()
        table.add_batch(np.array([1]), np.array([1.0]))
        assert table.get(2, default=-7.0) == -7.0

    def test_duplicate_keys_in_batch_merge(self):
        table = SparseParallelHashTable()
        table.add_batch(np.array([5, 5, 5]), np.array([1.0, 2.0, 3.0]))
        assert len(table) == 1
        assert table.get(5) == pytest.approx(6.0)

    def test_accumulation_across_batches(self):
        table = SparseParallelHashTable()
        table.add_batch(np.array([9]), np.array([2.0]))
        table.add_batch(np.array([9]), np.array([0.5]))
        assert table.get(9) == pytest.approx(2.5)

    def test_negative_keys_rejected(self):
        table = SparseParallelHashTable()
        with pytest.raises(ValueError):
            table.add_batch(np.array([-1]), np.array([1.0]))

    def test_parallel_arrays_required(self):
        table = SparseParallelHashTable()
        with pytest.raises(ValueError):
            table.add_batch(np.array([1, 2]), np.array([1.0]))

    def test_empty_batch_noop(self):
        table = SparseParallelHashTable()
        table.add_batch(np.empty(0, dtype=np.int64), np.empty(0))
        assert len(table) == 0

    def test_invalid_constructor_args(self):
        with pytest.raises(ValueError):
            SparseParallelHashTable(capacity_hint=0)
        with pytest.raises(ValueError):
            SparseParallelHashTable(max_load=1.5)


class TestGrowth:
    def test_grows_beyond_initial_capacity(self):
        table = SparseParallelHashTable(capacity_hint=2)
        keys = np.arange(1000, dtype=np.int64)
        table.add_batch(keys, np.ones(1000))
        assert len(table) == 1000
        assert table.load_factor <= 0.5 + 1e-9

    def test_values_survive_rehash(self):
        table = SparseParallelHashTable(capacity_hint=2)
        for chunk in np.array_split(np.arange(500, dtype=np.int64), 10):
            table.add_batch(chunk, chunk.astype(float))
        for key in (0, 123, 499):
            assert table.get(key) == pytest.approx(float(key))

    def test_rehash_triggered_inside_single_add_batch(self):
        # One add_batch large enough to force several doublings mid-call must
        # preserve earlier entries and merge duplicates exactly like a dict.
        table = SparseParallelHashTable(capacity_hint=1)
        table.add_batch(np.array([3, 11]), np.array([1.0, 2.0]))
        slots_before = table.num_slots
        keys = np.concatenate([np.arange(2000, dtype=np.int64), [3, 11, 3]])
        values = np.concatenate([np.ones(2000), [10.0, 20.0, 100.0]])
        table.add_batch(keys, values)
        assert table.num_slots > slots_before
        expected = {}
        for k, v in zip(keys.tolist(), values.tolist()):
            expected[k] = expected.get(k, 0.0) + v
        expected[3] += 1.0
        expected[11] += 2.0
        got = dict(zip(*(a.tolist() for a in table.items())))
        assert got == pytest.approx(expected)

    def test_slots_power_of_two(self):
        table = SparseParallelHashTable(capacity_hint=100)
        assert table.num_slots & (table.num_slots - 1) == 0

    def test_size_in_bytes(self):
        table = SparseParallelHashTable(capacity_hint=100)
        assert table.size_in_bytes() == table.num_slots * 16


class TestPairs:
    def test_add_pairs_round_trip(self):
        table = SparseParallelHashTable()
        rows = np.array([0, 1, 1])
        cols = np.array([2, 0, 0])
        table.add_pairs(rows, cols, np.array([1.0, 2.0, 3.0]), n=5)
        r, c, v = table.to_pairs(5)
        result = {(int(a), int(b)): x for a, b, x in zip(r, c, v)}
        assert result == {(0, 2): 1.0, (1, 0): 5.0}

    def test_add_pairs_out_of_range(self):
        table = SparseParallelHashTable()
        with pytest.raises(ValueError):
            table.add_pairs(np.array([0]), np.array([7]), np.array([1.0]), n=5)

    def test_add_pairs_empty_batch(self):
        # Regression: a worker whose chunk has no surviving src<dst edges
        # hands an empty batch to the table; `.max()` on it used to crash.
        table = SparseParallelHashTable()
        table.add_pairs(
            np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.float64), n=5,
        )
        assert len(table) == 0

    def test_add_pairs_mismatched_shapes(self):
        table = SparseParallelHashTable()
        with pytest.raises(ValueError, match="parallel arrays"):
            table.add_pairs(
                np.array([0, 1]), np.empty(0, dtype=np.int64),
                np.array([1.0, 2.0]), n=5,
            )

    @pytest.mark.parametrize("compact", [False, True])
    def test_add_batch_empty(self, compact):
        table = SparseParallelHashTable(compact=compact)
        table.add_batch(np.empty(0, dtype=np.int64), np.empty(0))
        assert len(table) == 0
        # Still usable after the empty batch.
        table.add_batch(np.array([3]), np.array([1.5]))
        assert table.get(3) == pytest.approx(1.5)


class TestAgainstDict:
    def _compare(self, keys, values):
        table = SparseParallelHashTable(capacity_hint=4)
        keys = np.asarray(keys, dtype=np.int64)
        values = np.asarray(values, dtype=np.float64)
        # Split into several batches to exercise growth + accumulation.
        for chunk_k, chunk_v in zip(np.array_split(keys, 3), np.array_split(values, 3)):
            table.add_batch(chunk_k, chunk_v)
        expected = {}
        for k, v in zip(keys.tolist(), values.tolist()):
            expected[k] = expected.get(k, 0.0) + v
        got_keys, got_values = table.items()
        got = dict(zip(got_keys.tolist(), got_values.tolist()))
        assert set(got) == set(expected)
        for k in expected:
            assert got[k] == pytest.approx(expected[k])

    def test_adversarial_collisions(self):
        # Keys spaced by the table size provoke identical hash slots.
        keys = np.arange(0, 16 * 64, 64)
        self._compare(keys, np.ones(keys.size))

    def test_dense_small_keyspace(self, rng):
        keys = rng.integers(0, 10, size=500)
        self._compare(keys, rng.random(500))

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=300),
                st.floats(min_value=-10, max_value=10, allow_nan=False),
            ),
            min_size=1,
            max_size=300,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_matches_dict_property(self, pairs):
        keys = [k for k, _ in pairs]
        values = [v for _, v in pairs]
        self._compare(keys, values)


class TestCompactTable:
    """The §6 future-work compressed table: int32 keys / float32 values."""

    def test_halves_memory(self):
        full = SparseParallelHashTable(capacity_hint=1000)
        compact = SparseParallelHashTable(capacity_hint=1000, compact=True)
        assert compact.size_in_bytes() == full.size_in_bytes() // 2

    def test_same_results_as_full(self, rng):
        keys = rng.integers(0, 10_000, size=2000)
        values = rng.random(2000)
        full = SparseParallelHashTable(capacity_hint=16)
        compact = SparseParallelHashTable(capacity_hint=16, compact=True)
        full.add_batch(keys, values)
        compact.add_batch(keys, values)
        fk, fv = full.items()
        ck, cv = compact.items()
        f = dict(zip(fk.tolist(), fv.tolist()))
        c = dict(zip(ck.tolist(), cv.tolist()))
        assert set(f) == set(c)
        for k in f:
            assert c[k] == pytest.approx(f[k], rel=1e-5)  # float32 precision

    def test_key_range_enforced(self):
        table = SparseParallelHashTable(compact=True)
        with pytest.raises(ValueError):
            table.add_batch(np.array([2**40]), np.array([1.0]))

    def test_boundary_key_accepted(self):
        # 2^31 - 1 is representable in int32; only the sentinel -1 is reserved.
        table = SparseParallelHashTable(compact=True)
        table.add_batch(np.array([2**31 - 1]), np.array([2.0]))
        assert table.get(2**31 - 1) == pytest.approx(2.0)

    def test_first_unrepresentable_key_rejected(self):
        table = SparseParallelHashTable(compact=True)
        with pytest.raises(ValueError, match=r"2\^31 - 1"):
            table.add_batch(np.array([2**31]), np.array([1.0]))

    def test_full_table_accepts_large_keys(self):
        table = SparseParallelHashTable()
        table.add_batch(np.array([2**40]), np.array([1.0]))
        assert table.get(2**40) == 1.0

    def test_growth_preserves_dtype(self):
        table = SparseParallelHashTable(capacity_hint=2, compact=True)
        table.add_batch(np.arange(500), np.ones(500))
        assert table._keys.dtype == np.int32
        assert len(table) == 500

    def test_pairs_round_trip(self):
        table = SparseParallelHashTable(compact=True)
        table.add_pairs(np.array([3, 7]), np.array([1, 2]), np.array([1.0, 2.0]), n=100)
        rows, cols, vals = table.to_pairs(100)
        got = {(int(r), int(c)): float(v) for r, c, v in zip(rows, cols, vals)}
        assert got == {(3, 1): 1.0, (7, 2): 2.0}


class TestHashPartition:
    def test_range_and_determinism(self, rng):
        keys = rng.integers(0, 2**40, size=5000)
        parts = hash_partition(keys, 7)
        assert parts.min() >= 0 and parts.max() < 7
        np.testing.assert_array_equal(parts, hash_partition(keys, 7))

    def test_single_partition(self):
        assert not hash_partition(np.arange(100), 1).any()

    def test_invalid_partition_count(self):
        with pytest.raises(ValueError):
            hash_partition(np.arange(10), 0)

    def test_roughly_balanced(self, rng):
        # Consecutive packed keys should spread across shards, not clump.
        parts = hash_partition(np.arange(8000, dtype=np.int64), 8)
        counts = np.bincount(parts, minlength=8)
        assert counts.min() > 8000 / 8 * 0.5
