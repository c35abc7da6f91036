"""Ranking metrics: AUC over the whole sample set and per-impression NDCG@k."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np


class UndefinedMetricError(ValueError):
    """The metric has no value for this input (e.g. single-class AUC)."""


@dataclass
class MetricReport:
    auc: float
    ndcg_at: dict[int, float]
    impressions: int

    def as_dict(self) -> dict:
        return {
            "auc": self.auc,
            "ndcg": {str(k): v for k, v in sorted(self.ndcg_at.items())},
            "impressions": self.impressions,
        }


def auc(scores: Sequence[float] | np.ndarray, labels: Sequence[int] | np.ndarray) -> float:
    """Probability that a random positive outranks a random negative, ties 1/2.

    Rank-sum formulation with midranks, so it matches the O(n^2) pairwise
    count exactly.
    """
    s = np.asarray(scores, dtype=np.float64).reshape(-1)
    y = np.asarray(labels).reshape(-1)
    if s.shape != y.shape:
        raise ValueError(f"{s.size} scores vs {y.size} labels")
    n_pos = int((y == 1).sum())
    n_neg = int((y == 0).sum())
    if n_pos + n_neg != y.size:
        raise ValueError("labels must be binary")
    if n_pos == 0 or n_neg == 0:
        raise UndefinedMetricError(
            f"AUC undefined: {n_pos} positive and {n_neg} negative labels")
    order = np.argsort(s, kind="stable")
    ranks = np.empty(s.size, dtype=np.float64)
    sorted_s = s[order]
    i = 0
    while i < s.size:
        j = i
        while j + 1 < s.size and sorted_s[j + 1] == sorted_s[i]:
            j += 1
        ranks[order[i:j + 1]] = 0.5 * (i + j) + 1.0  # midrank, 1-based
        i = j + 1
    pos_rank_sum = ranks[y == 1].sum()
    return float((pos_rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def _dcg(gains_in_rank_order: np.ndarray, k: int) -> float:
    top = gains_in_rank_order[:k]
    discounts = 1.0 / np.log2(np.arange(2, top.size + 2))
    return float(((2.0 ** top - 1.0) * discounts).sum())


def ndcg_at_k(
    scores: Sequence[float] | np.ndarray,
    gains: Sequence[int] | np.ndarray,
    k: int,
) -> float:
    """NDCG@k with exponential gain 2^g - 1 and log2(position + 1) discount.

    Items are ranked by descending score (stable ties) and the ideal ordering
    is by descending gain.  Undefined when every gain is zero.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    s = np.asarray(scores, dtype=np.float64).reshape(-1)
    g = np.asarray(gains, dtype=np.float64).reshape(-1)
    if s.shape != g.shape:
        raise ValueError(f"{s.size} scores vs {g.size} gains")
    if np.any(g < 0):
        raise ValueError("gains must be non-negative")
    if not np.any(g > 0):
        raise UndefinedMetricError("NDCG undefined: all gains are zero")
    by_score = np.argsort(-s, kind="stable")
    ideal = np.sort(g)[::-1]
    return _dcg(g[by_score], k) / _dcg(ideal, k)


def evaluate_ranking(
    impression_scores: Sequence[np.ndarray],
    impression_gains: Sequence[np.ndarray],
    final_labels: Sequence[np.ndarray],
    cutoffs: Sequence[int],
    grouped_auc: bool = False,
) -> MetricReport:
    """Metrics over a list of impressions.

    AUC of the final task is computed globally over all samples (the default)
    or, with ``grouped_auc``, per impression and averaged over impressions
    where it is defined.  NDCG is always per impression, skipping impressions
    whose gains are all zero.
    """
    if not impression_scores:
        raise ValueError("no impressions to evaluate")
    ndcg_sums = {k: 0.0 for k in cutoffs}
    ndcg_count = 0
    for s, g in zip(impression_scores, impression_gains):
        if not np.any(np.asarray(g) > 0):
            continue
        ndcg_count += 1
        for k in cutoffs:
            ndcg_sums[k] += ndcg_at_k(s, g, k)
    if ndcg_count == 0:
        raise UndefinedMetricError("NDCG undefined: every impression has all-zero gains")

    if grouped_auc:
        vals = []
        for s, y in zip(impression_scores, final_labels):
            y = np.asarray(y)
            if 0 < y.sum() < y.size:
                vals.append(auc(s, y))
        if not vals:
            raise UndefinedMetricError("grouped AUC undefined: no two-class impression")
        auc_value = float(np.mean(vals))
    else:
        auc_value = auc(np.concatenate(impression_scores), np.concatenate(final_labels))

    return MetricReport(
        auc=auc_value,
        ndcg_at={k: ndcg_sums[k] / ndcg_count for k in cutoffs},
        impressions=len(impression_scores),
    )
