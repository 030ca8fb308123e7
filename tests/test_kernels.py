"""Array-kernel tests: every kernel against a brute-force oracle.

The kernels in :mod:`repro.predictors.kernels` are the load-bearing
primitives of the vectorised fast engine; each is checked here on
randomized inputs (fixed seeds) against a direct Python re-derivation
of its contract.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.predictors import kernels
from repro.predictors.counters import SaturatingCounter

#: key universes for :func:`kernels.stable_order`: one, two and three
#: radix digits, past the radix limit, and signed
KEY_RANGES = {
    "below-2^16": (0, (1 << 16) - 1),
    "below-2^32": (0, (1 << 32) - 1),
    "below-2^48": (1 << 32, (1 << 48) - 1),
    "above-2^48": (1 << 48, (1 << 63) - 1),
    "negative": (-(1 << 63), (1 << 16)),
}


def _tied_keys(low, high):
    """Key lists drawn from a small pool, so equal keys are common."""
    return st.lists(
        st.integers(low, high), min_size=1, max_size=6
    ).flatmap(lambda pool: st.lists(st.sampled_from(pool), max_size=200))


class TestStableOrder:
    @pytest.mark.parametrize("universe", sorted(KEY_RANGES))
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_equals_stable_argsort(self, universe, data):
        keys = np.array(
            data.draw(_tied_keys(*KEY_RANGES[universe])), dtype=np.int64
        )
        assert np.array_equal(
            kernels.stable_order(keys), np.argsort(keys, kind="stable")
        )

    @pytest.mark.parametrize("keys", [[], [5], [1 << 40], [-3]])
    def test_empty_and_single(self, keys):
        keys = np.array(keys, dtype=np.int64)
        order = kernels.stable_order(keys)
        assert order.tolist() == list(range(len(keys)))
        assert order.dtype == np.intp

    def test_ties_across_every_digit(self):
        rng = np.random.RandomState(8)
        digits = rng.randint(0, 3, size=(3, 5000)).astype(np.int64)
        keys = digits[0] | (digits[1] << 16) | (digits[2] << 32)
        assert np.array_equal(
            kernels.stable_order(keys), np.argsort(keys, kind="stable")
        )


class TestRaggedRanges:
    def test_matches_brute_force(self):
        rng = np.random.RandomState(7)
        lengths = rng.randint(1, 6, size=200)
        row_ids, offsets, first = kernels.ragged_ranges(lengths)
        expected_rows = [i for i, n in enumerate(lengths) for _ in range(n)]
        expected_offsets = [k for n in lengths for k in range(n)]
        assert row_ids.tolist() == expected_rows
        assert offsets.tolist() == expected_offsets
        assert first.tolist() == np.concatenate(
            ([0], np.cumsum(lengths)[:-1])
        ).tolist()

    def test_empty(self):
        row_ids, offsets, first = kernels.ragged_ranges(np.zeros(0, dtype=np.int64))
        assert len(row_ids) == len(offsets) == len(first) == 0


class TestPreviousSameKey:
    @pytest.mark.parametrize("seed,universe", [(1, 4), (2, 50), (3, 1)])
    def test_matches_brute_force(self, seed, universe):
        rng = np.random.RandomState(seed)
        keys = rng.randint(0, universe, size=500)
        result = kernels.previous_same_key(keys)
        last_seen = {}
        for i, key in enumerate(keys):
            assert result[i] == last_seen.get(key, -1), i
            last_seen[key] = i

    def test_empty(self):
        assert len(kernels.previous_same_key(np.zeros(0, dtype=np.int64))) == 0


class TestLastWriteLookup:
    @pytest.mark.parametrize("seed", [11, 12, 13])
    def test_matches_brute_force(self, seed):
        rng = np.random.RandomState(seed)
        n_writes, n_queries = 300, 400
        write_keys = rng.randint(0, 20, size=n_writes)
        write_times = np.sort(rng.randint(0, 1000, size=n_writes))
        query_keys = rng.randint(0, 25, size=n_queries)
        query_times = rng.randint(-5, 1100, size=n_queries)
        result = kernels.last_write_lookup(
            write_keys, write_times, query_keys, query_times
        )
        for q in range(n_queries):
            expected = -1
            for w in range(n_writes):
                if (
                    write_keys[w] == query_keys[q]
                    and write_times[w] <= query_times[q]
                ):
                    expected = w
            assert result[q] == expected, q

    def test_empty_writes(self):
        result = kernels.last_write_lookup(
            np.zeros(0, dtype=np.int64),
            np.zeros(0, dtype=np.int64),
            np.array([1, 2]),
            np.array([3, 4]),
        )
        assert result.tolist() == [-1, -1]

    def test_empty_queries(self):
        result = kernels.last_write_lookup(
            np.array([1]), np.array([0]),
            np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64),
        )
        assert len(result) == 0


class TestLastWriteIndex:
    def build(self, seed=21, n=400, universe=15):
        rng = np.random.RandomState(seed)
        keys = rng.randint(0, universe, size=n)
        times = np.sort(rng.randint(0, 5000, size=n))
        return keys, times, kernels.LastWriteIndex(keys, times)

    def test_query_equals_wrapper(self):
        keys, times, index = self.build()
        rng = np.random.RandomState(22)
        query_keys = rng.randint(0, 18, size=300)
        query_times = rng.randint(-10, 6000, size=300)
        assert np.array_equal(
            index.query(query_keys, query_times),
            kernels.last_write_lookup(keys, times, query_keys, query_times),
        )

    def test_resolve_roundtrips_positions(self):
        keys, times, index = self.build()
        rng = np.random.RandomState(23)
        query_keys = rng.randint(0, 18, size=200)
        query_times = rng.randint(-10, 6000, size=200)
        positions = index.positions(query_keys, query_times)
        assert np.array_equal(
            index.resolve(positions), index.query(query_keys, query_times)
        )

    def test_previous_in_key_matches_brute_force(self):
        keys, _, index = self.build(seed=24)
        result = index.previous_in_key()
        last_seen = {}
        for i, key in enumerate(keys):
            assert result[i] == last_seen.get(key, -1), i
            last_seen[key] = i

    def test_filtered_last_matches_brute_force(self):
        keys, times, index = self.build(seed=25)
        rng = np.random.RandomState(26)
        flags = rng.rand(len(keys)) < 0.4
        filtered = index.filtered_last(flags)
        rng2 = np.random.RandomState(27)
        query_keys = rng2.randint(0, 18, size=300)
        query_times = rng2.randint(-10, 6000, size=300)
        positions = index.positions(query_keys, query_times)
        for q in range(len(query_keys)):
            expected = -1
            for w in range(len(keys)):
                if (
                    flags[w]
                    and keys[w] == query_keys[q]
                    and times[w] <= query_times[q]
                ):
                    expected = w
            got = filtered[positions[q]] if positions[q] >= 0 else -1
            assert got == expected, q

    def test_positions_independent_of_query_order(self):
        keys, times, index = self.build(seed=29)
        rng = np.random.RandomState(30)
        query_keys = rng.randint(0, 18, size=500)
        query_times = rng.randint(-3000, 6000, size=500)
        expected = np.array(
            [
                max(
                    (
                        p
                        for p in range(len(keys))
                        if index.sorted_keys[p] == k
                        and times[index.order[p]] <= t
                    ),
                    default=-1,
                )
                for k, t in zip(query_keys, query_times)
            ]
        )
        by_time = np.argsort(query_times, kind="stable")
        for permutation in (
            np.arange(500),
            by_time,
            by_time[::-1],
            np.lexsort((query_times, query_keys))[::-1],
            rng.permutation(500),
        ):
            assert np.array_equal(
                index.positions(
                    query_keys[permutation], query_times[permutation]
                ),
                expected[permutation],
            )
        assert (expected[query_times < 0] == -1).all()

    def test_shared_order_matches_fresh_sort(self):
        keys, times, _ = self.build(seed=28)
        order = np.argsort(keys, kind="stable")
        fresh = kernels.LastWriteIndex(keys, times)
        shared = kernels.LastWriteIndex(keys, times, order=order)
        query_keys = np.arange(20, dtype=np.int64)
        query_times = np.full(20, 10_000, dtype=np.int64)
        assert np.array_equal(
            fresh.query(query_keys, query_times),
            shared.query(query_keys, query_times),
        )


class TestCounterScan:
    @pytest.mark.parametrize(
        "seed,bits,initial", [(31, 2, 1), (32, 2, 0), (33, 3, 2), (34, 2, 3)]
    )
    def test_matches_saturating_counter(self, seed, bits, initial):
        rng = np.random.RandomState(seed)
        group_ids = np.sort(rng.randint(0, 10, size=600))
        takens = rng.rand(600) < 0.6
        maximum = (1 << bits) - 1
        before, after = kernels.counter_scan(group_ids, takens, initial, maximum)
        counters = {}
        for i in range(len(group_ids)):
            key = int(group_ids[i])
            if key not in counters:
                counters[key] = SaturatingCounter(bits, initial=initial)
            counter = counters[key]
            assert before[i] == counter.value, i
            counter.update(bool(takens[i]))
            assert after[i] == counter.value, i

    def test_long_single_group(self):
        # stresses the pointer-jumping loop past several doublings
        rng = np.random.RandomState(35)
        n = 3000
        takens = rng.rand(n) < 0.5
        before, after = kernels.counter_scan(
            np.zeros(n, dtype=np.int64), takens, 1, 3
        )
        counter = SaturatingCounter(2, initial=1)
        for i in range(n):
            assert before[i] == counter.value
            counter.update(bool(takens[i]))
            assert after[i] == counter.value

    def test_empty(self):
        before, after = kernels.counter_scan(
            np.zeros(0, dtype=np.int64), np.zeros(0, dtype=bool), 1, 3
        )
        assert len(before) == len(after) == 0


class TestGshareHistories:
    @pytest.mark.parametrize("bits", [1, 4, 12])
    def test_matches_shift_register(self, bits):
        rng = np.random.RandomState(41)
        n = 500
        takens = (rng.rand(n) < 0.55).astype(np.int64)
        # epoch boundaries reset the register
        boundaries = np.sort(rng.choice(np.arange(1, n), size=6, replace=False))
        segment_first = np.zeros(n, dtype=np.int64)
        for b in boundaries:
            segment_first[b:] = b
        result = kernels.gshare_histories(takens, segment_first, bits)
        mask = (1 << bits) - 1
        register = 0
        for i in range(n):
            if i in set(boundaries.tolist()):
                register = 0
            assert result[i] == register, i
            register = ((register << 1) | int(takens[i])) & mask

    def test_empty(self):
        assert len(
            kernels.gshare_histories(
                np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64), 12
            )
        ) == 0


class TestSegmentStarts:
    def test_matches_brute_force(self):
        rng = np.random.RandomState(51)
        group_ids = np.sort(rng.randint(0, 12, size=300))
        result = kernels.segment_starts(group_ids)
        firsts = {}
        for i, g in enumerate(group_ids):
            firsts.setdefault(int(g), i)
            assert result[i] == firsts[int(g)]
