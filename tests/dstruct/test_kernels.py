"""Tests for the vectorized offline dominance kernels."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.dstruct.dominance import count_dominators_naive
from repro.dstruct.kernels import (
    and_prefix_rows,
    bit_chunks,
    chunk_buffers,
    count_dominators_bitset,
    count_dominators_merge2d,
    count_smaller_before,
    popcount_rows,
    prefix_bit_matrix,
    sort_and_rank,
)

from ..conftest import points_strategy


def smaller_before_brute(values):
    v = np.asarray(values)
    return np.array(
        [int(np.sum(v[:i] < v[i])) for i in range(v.shape[0])], dtype=np.int64
    )


class TestCountSmallerBefore:
    def test_empty_and_singleton(self):
        assert count_smaller_before(np.array([])).tolist() == []
        assert count_smaller_before(np.array([3.0])).tolist() == [0]

    def test_strict_on_ties(self):
        v = np.array([2.0, 2.0, 1.0, 2.0, 3.0])
        assert count_smaller_before(v).tolist() == [0, 0, 0, 1, 4]

    def test_sorted_ascending(self):
        v = np.arange(10.0)
        assert count_smaller_before(v).tolist() == list(range(10))

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=80, deadline=None)
    def test_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(0, 200))
        # Tiny alphabet: ties dominate the sequence.
        v = rng.integers(0, 6, size=n).astype(float)
        assert (
            count_smaller_before(v).tolist()
            == smaller_before_brute(v).tolist()
        )


class TestMerge2d:
    def test_requires_two_dims(self):
        with pytest.raises(ValueError, match="d=2"):
            count_dominators_merge2d(np.ones((3, 3)))

    @given(points_strategy(min_rows=1, max_rows=80, min_dims=2, max_dims=2))
    @settings(max_examples=60, deadline=None)
    def test_matches_naive_untied(self, pts):
        assert (
            count_dominators_merge2d(pts).tolist()
            == count_dominators_naive(pts).tolist()
        )

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_matches_naive_tied(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(0, 90))
        pts = rng.integers(0, 4, size=(n, 2)).astype(float)
        assert (
            count_dominators_merge2d(pts).tolist()
            == count_dominators_naive(pts).tolist()
        )


class TestBitset:
    @given(points_strategy(min_rows=1, max_rows=70, min_dims=1, max_dims=5))
    @settings(max_examples=60, deadline=None)
    def test_matches_naive_untied(self, pts):
        assert (
            count_dominators_bitset(pts).tolist()
            == count_dominators_naive(pts).tolist()
        )

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_matches_naive_tied_and_chunked(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(0, 90))
        d = int(rng.integers(1, 6))
        pts = rng.integers(0, 3, size=(n, d)).astype(float)
        expected = count_dominators_naive(pts).tolist()
        assert count_dominators_bitset(pts).tolist() == expected
        # A one-byte budget forces one 64-bit word per chunk — the
        # maximum number of bit-space chunks — without changing counts.
        assert (
            count_dominators_bitset(pts, budget_bytes=1).tolist() == expected
        )

    def test_empty(self):
        assert count_dominators_bitset(np.zeros((0, 3))).size == 0


class TestPackedHelpers:
    def test_bit_chunks_cover_bit_space(self):
        for n in (1, 63, 64, 65, 1000):
            chunks = bit_chunks(n, budget_bytes=1)
            assert chunks[0][0] == 0
            assert chunks[-1][1] == n
            for (_, prev_hi), (lo, _) in zip(chunks, chunks[1:]):
                assert prev_hi == lo
            # One-byte budget floors at one word per chunk.
            assert all(hi - lo <= 64 for lo, hi in chunks)

    def test_bit_chunks_empty(self):
        assert bit_chunks(0) == []

    def test_prefix_matrix_rows_are_sorted_prefixes(self):
        rng = np.random.default_rng(7)
        col = rng.integers(0, 5, size=20).astype(float)
        order = np.argsort(col, kind="stable")
        matrix = prefix_bit_matrix(order, 20, 0, 20)
        pops = popcount_rows(matrix)
        # Row r holds exactly the r smallest elements.
        assert pops.tolist() == list(range(20))
        for r in (0, 1, 10, 19):
            members = {
                i for i in range(20) if matrix[r, i >> 6] >> (i & 63) & 1
            }
            assert members == set(order[:r].tolist())

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_prefix_matrix_matches_definition_on_any_range(self, seed):
        # Unaligned ranges, ties and sizes around word boundaries.
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 200))
        lo, hi = sorted(int(x) for x in rng.integers(0, n + 1, size=2))
        col = rng.integers(0, 4, size=n).astype(float)
        order = np.argsort(col, kind="stable")
        matrix = prefix_bit_matrix(order, n, lo, hi)
        assert matrix.shape == (n, (hi - lo + 63) >> 6)
        for r in range(n):
            expect = np.zeros(matrix.shape[1], dtype=np.uint64)
            for i in order[:r]:
                if lo <= i < hi:
                    bit = np.uint64((i - lo) & 63)
                    expect[(i - lo) >> 6] |= np.uint64(1) << bit
            assert np.array_equal(matrix[r], expect), r

    def test_reused_buffers_match_fresh_calls(self):
        # One set of chunk buffers serves consecutive different column
        # families and bit ranges; every result equals a call on fresh
        # buffers and the AND of the definition's prefix rows.
        rng = np.random.default_rng(11)
        n = 150
        families = [
            [sort_and_rank(rng.integers(0, 3, size=n).astype(float))
             for _ in range(k)]
            for k in (1, 3, 2)
        ]
        ranges = [(0, 150), (64, 150), (3, 70), (128, 129)]
        for lo, hi, (out, gather) in chunk_buffers(n, ranges, 2):
            for ranked in families:
                got = and_prefix_rows(ranked, lo, hi, out, gather).copy()
                _, _, fresh = next(chunk_buffers(n, [(lo, hi)], 2))
                assert np.array_equal(
                    got, and_prefix_rows(ranked, lo, hi, *fresh)
                )
                by_rows = np.bitwise_and.reduce(
                    [prefix_bit_matrix(order, n, lo, hi)[g]
                     for order, g in ranked]
                )
                assert np.array_equal(got.T, by_rows)


class TestSortAndRank:
    @given(
        st.lists(
            st.sampled_from([-np.inf, -1.5, -0.0, 0.0, 2.0, np.inf]),
            max_size=60,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_argsort_and_binary_search(self, values):
        col = np.array(values, dtype=float)
        order, g = sort_and_rank(col)
        expect_order = np.argsort(col, kind="stable")
        assert np.array_equal(order, expect_order)
        assert np.array_equal(
            g, np.searchsorted(col[expect_order], col, side="left")
        )
