"""The vectorized top-k kernels must match the lexsort bit-for-bit."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import qkernel
from repro.core.qkernel import batch_topk, topk_select


def lexsort_topk(scores, tids, k):
    """The reference: full ``(score, tid)`` lexsort, truncated."""
    tids = np.asarray(tids, dtype=np.intp)
    order = np.lexsort((tids, scores))
    return tids[order[: max(k, 0)]]


#: Candidate counts on both sides of the argsort / argpartition
#: crossover.
SIZES = st.one_of(
    st.integers(1, 2 * qkernel._ARGSORT_MAX),
    st.integers(qkernel._ARGSORT_MAX - 8, 3000),
)

#: How a score vector is drawn: generic, from a few values, with ties
#: planted inside the k-head and at the k boundary, or with signed
#: zeros, infinities and NaN mixed in.
STYLES = st.sampled_from(("distinct", "few", "head_ties", "specials"))

#: k relative to the candidate count n.
K_CHOICES = st.sampled_from(("0", "1", "n-1", "n", "n+5", "any"))

SPECIALS = np.array([0.0, -0.0, np.inf, -np.inf, np.nan])


def pick_k(choice: str, n: int, rng) -> int:
    return {
        "0": 0,
        "1": 1,
        "n-1": n - 1,
        "n": n,
        "n+5": n + 5,
        "any": int(rng.integers(1, n + 1)),
    }[choice]


def draw_scores(rng, n: int, style: str, k: int) -> np.ndarray:
    if style == "few":
        return rng.choice(rng.random(int(rng.integers(1, 6))), size=n)
    scores = rng.random(n)
    if style == "head_ties":
        # Sorted, so positions are ranks: tie a pair strictly inside
        # the head, and the k-th score with the (k+1)-th.
        scores.sort()
        head = min(max(k, 1), n)
        inside = int(rng.integers(0, head))
        scores[inside : inside + 2] = scores[inside]
        if 1 <= k < n:
            scores[k] = scores[k - 1]
        rng.shuffle(scores)
    elif style == "specials":
        planted = rng.random(n) < rng.uniform(0.02, 0.5)
        scores[planted] = rng.choice(SPECIALS, size=int(planted.sum()))
    return scores


def unsorted_tids(rng, n: int) -> np.ndarray:
    """n distinct tids in random order, not a permutation of 0..n-1."""
    return rng.permutation(2 * n)[:n].astype(np.intp)


class TestTopkSelect:
    def test_matches_lexsort_random(self, rng):
        scores = rng.random(500)
        tids = rng.permutation(500).astype(np.intp)
        for k in (1, 3, 20, 100, 499, 500, 700):
            assert (
                topk_select(scores, tids, k).tolist()
                == lexsort_topk(scores, tids, k).tolist()
            )

    def test_boundary_ties_resolved_by_tid(self):
        # Five-way tie exactly at the k-th score: lexsort keeps the
        # smallest tids among the tied, in tid order.
        scores = np.array([0.5] * 5 + [0.1, 0.2] + [0.9] * 33)
        tids = np.array([50, 40, 30, 20, 10] + [7, 8] + list(range(100, 133)))
        for k in (3, 4, 5, 6, 7):
            assert (
                topk_select(scores, tids, k).tolist()
                == lexsort_topk(scores, tids, k).tolist()
            )

    def test_all_tied(self):
        scores = np.zeros(40)
        tids = np.arange(40)[::-1].copy()
        assert topk_select(scores, tids, 5).tolist() == [0, 1, 2, 3, 4]

    def test_k_zero_and_empty(self):
        assert topk_select(np.zeros(3), np.arange(3), 0).size == 0
        assert topk_select(np.zeros(0), np.zeros(0, dtype=np.intp), 4).size == 0

    def test_k_exceeds_n(self):
        scores = np.array([2.0, 1.0])
        out = topk_select(scores, np.array([5, 9]), 10)
        assert out.tolist() == [9, 5]

    def test_specials_and_signed_zeros(self):
        # -0.0 == 0.0 ties by tid; NaN ranks after +inf, NaNs by tid.
        scores = np.array([np.nan, 0.0, np.inf, -0.0, np.nan, -np.inf, 0.5])
        tids = np.array([3, 9, 1, 2, 0, 8, 5])
        for k in range(len(scores) + 2):
            assert (
                topk_select(scores, tids, k).tolist()
                == lexsort_topk(scores, tids, k).tolist()
            )
        assert topk_select(np.array([np.nan]), np.array([4]), 1).tolist() == [4]

    def test_tied_fallback_never_sorts_every_candidate(self, monkeypatch):
        # Tied data with k < n takes the fallback, which sorts only the
        # k survivors: no lexsort (or argsort head) sees all n scores.
        n, k = 3 * qkernel._ARGSORT_MAX, 10
        scores = np.repeat([0.25, 0.5, 0.75], n // 3)
        tids = np.random.default_rng(7).permutation(n).astype(np.intp)
        expected = lexsort_topk(scores, tids, k).tolist()
        sorted_sizes = []
        real_lexsort = np.lexsort

        def spy(keys):
            sorted_sizes.append(len(keys[0]))
            return real_lexsort(keys)

        monkeypatch.setattr(np, "lexsort", spy)
        assert topk_select(scores, tids, k).tolist() == expected
        assert sorted_sizes == [k]

    @settings(deadline=None, max_examples=150)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=SIZES,
        k_choice=K_CHOICES,
        style=STYLES,
    )
    def test_matches_lexsort_with_heavy_ties(self, seed, n, k_choice, style):
        # Few-valued scores, planted head and boundary ties and special
        # values force the audit to fail (and the fallback to run) on
        # both sides of the head crossover; generic scores pass it.
        rng = np.random.default_rng(seed)
        k = pick_k(k_choice, n, rng)
        scores = draw_scores(rng, n, style, k)
        tids = unsorted_tids(rng, n)
        assert (
            topk_select(scores, tids, k).tolist()
            == lexsort_topk(scores, tids, k).tolist()
        )


class TestBatchTopk:
    def test_matches_per_row_select(self, rng):
        scores = rng.random((16, 300))
        tids = rng.permutation(300).astype(np.intp)
        for k in (1, 10, 80, 300):
            out = batch_topk(scores, tids, k)
            assert out.shape == (16, min(k, 300))
            for row in range(16):
                assert (
                    out[row].tolist()
                    == lexsort_topk(scores[row], tids, k).tolist()
                )

    @settings(deadline=None, max_examples=80)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_queries=st.integers(1, 8),
        n_candidates=SIZES,
        k_choice=K_CHOICES,
        styles=st.lists(STYLES, min_size=1, max_size=4),
    )
    def test_tied_rows_fall_back_exactly(
        self, seed, n_queries, n_candidates, k_choice, styles
    ):
        # Clean and tied (or special-valued) rows share one batch: the
        # audit must re-answer exactly the rows that need it, on both
        # sides of the head crossover.
        rng = np.random.default_rng(seed)
        k = pick_k(k_choice, n_candidates, rng)
        scores = np.stack(
            [
                draw_scores(rng, n_candidates, styles[row % len(styles)], k)
                for row in range(n_queries)
            ]
        )
        tids = unsorted_tids(rng, n_candidates)
        out = batch_topk(scores, tids, k)
        assert out.shape == (n_queries, min(max(k, 0), n_candidates))
        for row in range(n_queries):
            assert (
                out[row].tolist()
                == lexsort_topk(scores[row], tids, k).tolist()
            )

    @settings(deadline=None, max_examples=60)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_queries=st.integers(1, 8),
        n_candidates=SIZES,
        k_choice=K_CHOICES,
        styles=st.lists(STYLES, min_size=1, max_size=4),
    )
    def test_approximate_scores_answer_as_exact(
        self, seed, n_queries, n_candidates, k_choice, styles
    ):
        # Scores off by up to ``slack`` per row (as a GEMM is from a
        # GEMV) still give the exact scores' answer: rows whose head is
        # not separated by twice the slack are re-scored.
        rng = np.random.default_rng(seed)
        k = pick_k(k_choice, n_candidates, rng)
        exact = np.stack(
            [
                draw_scores(rng, n_candidates, styles[row % len(styles)], k)
                for row in range(n_queries)
            ]
        )
        slack = rng.choice([0.0, 1e-12, 1e-3], size=n_queries)
        noise = rng.uniform(-1, 1, exact.shape) * slack[:, None]
        with np.errstate(invalid="ignore"):
            approx = exact + noise
        tids = unsorted_tids(rng, n_candidates)
        out = batch_topk(
            approx, tids, k, slack=slack, rescore=lambda row: exact[row]
        )
        assert out.shape == (n_queries, min(max(k, 0), n_candidates))
        for row in range(n_queries):
            assert (
                out[row].tolist()
                == lexsort_topk(exact[row], tids, k).tolist()
            )

    def test_k_zero_and_empty_candidates(self):
        assert batch_topk(np.zeros((4, 7)), np.arange(7), 0).shape == (4, 0)
        empty = batch_topk(
            np.zeros((4, 0)), np.zeros(0, dtype=np.intp), 3
        )
        assert empty.shape == (4, 0)

    def test_shape_validation(self):
        with pytest.raises(ValueError, match=r"\(Q, C\)"):
            batch_topk(np.zeros(5), np.arange(5), 2)
        with pytest.raises(ValueError, match="per score column"):
            batch_topk(np.zeros((2, 5)), np.arange(4), 2)


class TestMaskedBatchTopk:
    """Large-C batches stay bit-identical to the lexsort.

    These cases were written for a threshold-masked schedule that has
    since been removed; they keep their names and now drive the one
    head + audit schedule at the shapes that schedule served: large
    candidate sets, heavy ties, changing shapes and strided scores.
    """

    def _check(self, scores, tids, k):
        out = batch_topk(scores, tids, k)
        assert out.shape == (scores.shape[0], min(k, scores.shape[1]))
        for row in range(scores.shape[0]):
            assert (
                out[row].tolist()
                == lexsort_topk(scores[row], tids, k).tolist()
            )

    def test_real_probe_large_candidate_set(self, rng):
        scores = rng.random((24, 1500))
        tids = rng.permutation(1500).astype(np.intp)
        for k in (1, 20, 64, 100, 256, 400):
            self._check(scores, tids, k)

    def test_real_probe_heavy_ties(self, rng):
        # Integer-valued scores put ties inside every head and at every
        # k boundary, so most rows take the tie-exact fallback.
        scores = rng.integers(0, 40, (16, 1200)).astype(float)
        tids = rng.permutation(1200).astype(np.intp)
        for k in (1, 20, 100):
            self._check(scores, tids, k)

    def test_scratch_reused_across_shapes(self, rng):
        # Growing and shrinking batches, both sides of the crossover:
        # nothing of one call may leak into the next one's answers.
        for n_queries, n_candidates in (
            (8, 600), (16, 1400), (4, 520), (64, 200), (2, 2400),
        ):
            scores = rng.random((n_queries, n_candidates))
            tids = rng.permutation(n_candidates).astype(np.intp)
            self._check(scores, tids, 15)

    def test_non_contiguous_scores(self, rng):
        scores = rng.random((12, 2400))[:, ::2]  # C-non-contiguous view
        tids = rng.permutation(1200).astype(np.intp)
        self._check(scores, tids, 10)
        self._check(scores.T.copy().T, tids, 50)  # Fortran order

    @settings(deadline=None, max_examples=60)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_queries=st.integers(1, 10),
        n_candidates=st.one_of(
            st.integers(40, 160),
            st.integers(qkernel._ARGSORT_MAX - 8, 4 * qkernel._ARGSORT_MAX),
        ),
        k=st.integers(1, 12),
        styles=st.lists(STYLES, min_size=1, max_size=4),
    )
    def test_small_probe_matches_lexsort(
        self, seed, n_queries, n_candidates, k, styles
    ):
        # Small k against many candidates, ties and special values
        # included, on both sides of the head crossover.
        rng = np.random.default_rng(seed)
        scores = np.stack(
            [
                draw_scores(rng, n_candidates, styles[row % len(styles)], k)
                for row in range(n_queries)
            ]
        )
        tids = unsorted_tids(rng, n_candidates)
        self._check(scores, tids, k)
