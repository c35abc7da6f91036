import itertools

import numpy as np
import pytest

from mtlds.evaluation import UndefinedMetricError, auc, evaluate_ranking, ndcg_at_k
from mtlds.sortops import check_lengths


def pairwise_auc_oracle(scores, labels):
    """O(n^2) count of positive-over-negative pairs, ties worth 1/2."""
    pos = [s for s, y in zip(scores, labels) if y == 1]
    neg = [s for s, y in zip(scores, labels) if y == 0]
    total = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                total += 1.0
            elif p == n:
                total += 0.5
    return total / (len(pos) * len(neg))


def ideal_dcg_oracle(gains, k):
    """Exhaustive maximum DCG over every ordering of the gains."""
    best = 0.0
    for order in itertools.permutations(range(len(gains))):
        dcg = sum((2.0 ** gains[i] - 1.0) / np.log2(pos + 2)
                  for pos, i in enumerate(order[:k]))
        best = max(best, dcg)
    return best


class TestAUC:
    def test_perfect_separation(self):
        assert auc([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0]) == 1.0

    def test_all_ties_give_half(self):
        assert auc([0.5, 0.5, 0.5, 0.5], [1, 0, 1, 0]) == 0.5

    def test_matches_pairwise_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            scores = np.round(rng.standard_normal(200), 2)  # rounding forces ties
            labels = rng.integers(0, 2, 200)
            if labels.sum() in (0, 200):
                continue
            assert abs(auc(scores, labels) - pairwise_auc_oracle(scores, labels)) <= 1e-12

    def test_single_class_error_names_counts(self):
        with pytest.raises(UndefinedMetricError, match="3 positive and 0 negative"):
            auc([0.1, 0.2, 0.3], [1, 1, 1])

    def test_non_finite_score_rejected(self):
        with pytest.raises(ValueError, match="auc: scores must be finite, got nan at position 0"):
            auc([np.nan, 0.1, 0.2], [1, 0, 0])

    def test_rank_only_dependence(self):
        rng = np.random.default_rng(1)
        scores = rng.standard_normal(50)
        labels = rng.integers(0, 2, 50)
        if labels.sum() in (0, 50):
            labels[0] = 1 - labels[0]
        a = auc(scores, labels)
        b = auc(np.exp(scores) + 7.0, labels)  # strictly increasing transform
        assert a == pytest.approx(b, abs=1e-12)


class TestNDCG:
    def test_ideal_order_scores_one(self):
        assert ndcg_at_k([0.9, 0.5, 0.1], [2, 1, 0], k=3) == pytest.approx(1.0)

    def test_hand_case_reversed_pair(self):
        got = ndcg_at_k([0.1, 0.9], [1, 0], k=2)
        assert got == pytest.approx(1.0 / np.log2(3.0), abs=1e-4)
        assert got == pytest.approx(0.6309, abs=1e-4)

    def test_matches_exhaustive_ideal_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(40):
            n = int(rng.integers(2, 9))
            gains = rng.integers(0, 4, n)
            if not gains.any():
                gains[0] = 1
            scores = rng.standard_normal(n)
            k = int(rng.integers(1, n + 1))
            by_score = np.argsort(-scores, kind="stable")
            dcg = sum((2.0 ** gains[i] - 1.0) / np.log2(pos + 2)
                      for pos, i in enumerate(by_score[:k]))
            expected = dcg / ideal_dcg_oracle(list(gains), k)
            assert ndcg_at_k(scores, gains, k) == pytest.approx(expected, abs=1e-12)

    def test_k_zero_rejected(self):
        with pytest.raises(ValueError):
            ndcg_at_k([0.5], [1], k=0)

    def test_k_beyond_length_is_stable(self):
        scores = [0.3, 0.9, 0.5]
        gains = [1, 0, 2]
        assert ndcg_at_k(scores, gains, 3) == ndcg_at_k(scores, gains, 50)

    def test_all_zero_gains_undefined(self):
        with pytest.raises(UndefinedMetricError):
            ndcg_at_k([0.5, 0.4], [0, 0], k=2)

    @pytest.mark.parametrize("scores,gains,match", [
        ([np.nan, 0.1, 0.2], [0, 1, 2], "ndcg_at_k: scores must be finite, got nan at position 0"),
        ([0.3, -np.inf, 0.2], [0, 1, 2],
         "ndcg_at_k: scores must be finite, got -inf at position 1"),
        ([0.3, 0.1, 0.2], [0, np.nan, 2], "ndcg_at_k: gains must be finite, got nan at position 1"),
        ([0.3, 0.1, 0.2], [0, 1, np.inf], "ndcg_at_k: gains must be finite, got inf at position 2"),
    ], ids=["nan-score", "inf-score", "nan-gain", "inf-gain"])
    def test_non_finite_input_rejected(self, scores, gains, match):
        with pytest.raises(ValueError, match=match):
            ndcg_at_k(scores, gains, 1)

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(3)
        scores = rng.standard_normal(7)
        gains = rng.integers(0, 3, 7)
        gains[0] = 1
        a = ndcg_at_k(scores, gains, 4)
        b = ndcg_at_k(3.0 * scores + 100.0, gains, 4)
        assert a == pytest.approx(b, abs=1e-12)


def flat(parts):
    """One impression after another, and the impressions' lengths."""
    return np.concatenate(parts), np.array([len(p) for p in parts])


class TestEvaluateRanking:
    def test_skips_all_zero_gain_impressions(self):
        scores = [0.5, 0.1, 0.2, 0.9]
        gains = [1, 0, 0, 0]
        finals = [1, 0, 0, 0]
        report = evaluate_ranking(scores, gains, finals, [2, 2], (2,))
        assert report.ndcg_at[2] == pytest.approx(1.0)
        assert report.impressions == 2

    def test_global_auc_concatenates_samples(self):
        scores = [0.9, 0.1, 0.8, 0.4]
        gains = [1, 0, 1, 0]
        finals = [1, 0, 0, 0]
        report = evaluate_ranking(scores, gains, finals, [2, 2], (2,))
        assert report.auc == pytest.approx(
            auc([0.9, 0.1, 0.8, 0.4], [1, 0, 0, 0]))

    def test_oracle_scores_reach_perfect_ndcg(self):
        rng = np.random.default_rng(4)
        gains = [rng.integers(0, 3, 6) for _ in range(10)]
        for g in gains:
            g[0] = max(g[0], 1)
        scores = [g.astype(float) for g in gains]
        finals = [(g >= 2).astype(int) for g in gains]
        finals[0][:] = [1, 0, 0, 0, 0, 0]
        flat_gains, lengths = flat(gains)
        report = evaluate_ranking(flat(scores)[0], flat_gains, flat(finals)[0], lengths,
                                  (2, 6, 12))
        for k in (2, 6, 12):
            assert report.ndcg_at[k] == pytest.approx(1.0)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_block_ndcg_equals_in_order_loop_over_ndcg_at_k(self, seed):
        """Every mean is bit-equal to a left-to-right sum of the single-list
        oracle over the impressions with a non-zero gain."""
        rng = np.random.default_rng(seed)
        lengths = np.concatenate([np.arange(1, 41), rng.integers(1, 41, 160)])
        rng.shuffle(lengths)
        scores, gains = [], []
        for i, n in enumerate(lengths):
            s = np.round(rng.standard_normal(n), 1)  # many tied scores
            g = rng.integers(0, 4, n) * (rng.random(n) < 0.4)
            if i % 7 == 0:
                g[:] = 0  # all-zero rows sit inside the blocks
            scores.append(s)
            gains.append(g)
        finals = [(g > 1).astype(int) for g in gains]
        finals[0][0], finals[1][0] = 1, 0
        cutoffs = (1, 2, 6, 12, 50)
        report = evaluate_ranking(flat(scores)[0], flat(gains)[0], flat(finals)[0], lengths,
                                  cutoffs)

        live = [(s, g) for s, g in zip(scores, gains) if np.any(g > 0)]
        assert 0 < len(live) < len(scores)
        for k in cutoffs:
            total = 0.0
            for s, g in live:
                total += ndcg_at_k(s, g, k)
            assert report.ndcg_at[k] == total / len(live)
        assert report.impressions == len(scores)

    def test_prebuilt_layout_gives_the_bits_of_raw_lengths(self):
        rng = np.random.default_rng(6)
        lengths = rng.integers(1, 9, 60)
        n = int(lengths.sum())
        scores, gains = rng.standard_normal(n), rng.integers(0, 3, n)
        finals = (gains > 1).astype(int)
        raw = evaluate_ranking(scores, gains, finals, lengths, (2, 6))
        built = evaluate_ranking(scores, gains, finals, check_lengths(lengths, n, "test"), (2, 6))
        assert repr(built.as_dict()) == repr(raw.as_dict())

    @pytest.mark.parametrize("scores,gains,lengths,cutoffs,match", [
        ([0.5, 0.1], [1, 0], [2], (2, 0), r"cutoffs\[1\] must be an integer >= 1, got 0"),
        ([0.5, 0.1], [1, 0], [2], (6, 6),
         r"cutoffs must be distinct, got \[6, 6\] \(6 repeats\)"),
        ([0.5, 0.1], [1, -1], [2], (2,), "gains must be non-negative"),
        ([0.5, 0.1, 0.3, 0.2], [1, 0, 0, -1], [2, 2], (2,), "gains must be non-negative"),
        ([0.5, 0.1, 0.3, 0.2], [1, 0, 1], [2, 2], (2,), "4 scores vs 3 gains"),
        ([0.5, 0.1], [1, 0], [2, 2], (2,), "not positive integers summing to the column's 2 rows"),
        ([0.5, 0.1, 0.3], [1, 0, 1], [2], (2,), "summing to the column's 3 rows"),
        ([0.5, 0.1, 0.3], [1, 0, 1], [3, 0], (2,), "summing to the column's 3 rows"),
        ([0.5, 0.1], [1, 0], [], (2,), "no impressions to evaluate"),
        ([0.5, 0.1, 0.3], [1, 0, 1], check_lengths([2, 2], 4, "another column"), (2,),
         r"evaluate_ranking: impression lengths \[2, 2\] .* the column's 3 rows"),
        ([0.5, 0.1], [1, 0], check_lengths(np.array([], dtype=np.intp), 0, "no column"), (2,),
         "no impressions to evaluate"),
        ([np.nan, 0.1], [1, 0], [2], (1,),
         "evaluate_ranking: scores must be finite, got nan at position 0"),
        ([0.5, 0.1, np.inf], [1, 0, 0], [1, 2], (1,),
         "evaluate_ranking: scores must be finite, got inf at position 2"),
        ([0.2, 0.1, 0.3, 0.4], [np.nan, 1, 0, 1], [2, 2], (1, 2),
         "evaluate_ranking: gains must be finite, got nan at position 0"),
        ([0.2, 0.1, 0.3, 0.4], [1, 0, np.inf, 1], [2, 2], (1, 2),
         "evaluate_ranking: gains must be finite, got inf at position 2"),
    ], ids=["k-zero", "repeated-cutoff", "negative-gain", "negative-gain-in-zero-row",
            "length-mismatch", "list-count-mismatch", "lengths-short", "zero-length", "no-lengths",
            "other-layout", "empty-layout", "nan-score", "inf-score", "nan-gain", "inf-gain"])
    def test_invalid_input_rejected(self, scores, gains, lengths, cutoffs, match):
        finals = np.zeros(len(scores), dtype=int)
        finals[0] = 1
        with pytest.raises(ValueError, match=match):
            evaluate_ranking(scores, gains, finals, lengths, cutoffs)
