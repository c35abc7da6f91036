"""Ranking metrics: AUC over the whole sample set and per-impression NDCG@k."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .data import require_distinct_ints, require_int
from .gradcore.tensor import Layout
from .sortops import check_lengths, finite_vector, ndcg_position_weights


class UndefinedMetricError(ValueError):
    """The metric has no value for this input (e.g. single-class AUC)."""


@dataclass
class MetricReport:
    auc: float
    ndcg_at: dict[int, float]
    impressions: int

    @property
    def by_name(self) -> dict[str, float]:
        """Every metric by the name that ``aggregate.json``, ``summary.txt`` and
        ``mtlds eval`` print: ``auc``, then ``ndcg@<k>`` in cutoff order."""
        return {"auc": self.auc, **{f"ndcg@{k}": v for k, v in self.ndcg_at.items()}}

    def as_dict(self) -> dict:
        return {
            "auc": self.auc,
            "ndcg": {str(k): v for k, v in sorted(self.ndcg_at.items())},
            "impressions": self.impressions,
        }


def auc(scores: Sequence[float] | np.ndarray, labels: Sequence[int] | np.ndarray) -> float:
    """Probability that a random positive outranks a random negative, ties 1/2.

    Rank-sum formulation with midranks, so it matches the O(n^2) pairwise
    count exactly.  The scores must pass ``sortops.finite_vector``.
    """
    s = finite_vector(scores, "auc: scores")
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
    _, inv, counts = np.unique(s, return_inverse=True, return_counts=True)
    # 1-based midrank of each tie group: its last rank minus half its extent
    ranks = (np.cumsum(counts) - 0.5 * (counts - 1))[inv]
    pos_rank_sum = ranks[y == 1].sum()
    return float((pos_rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def _dcg(g: np.ndarray, cutoffs: Sequence[int]) -> np.ndarray:
    """DCG@k of gains ``g`` in rank order, over the last axis, for each k of ``cutoffs``
    on a new first axis: each ``2^g - 1`` times its position's discount, summed to k."""
    weighted = (2.0 ** g - 1.0) * ndcg_position_weights(g.shape[-1])
    return np.stack([weighted[..., :k].sum(axis=-1) for k in cutoffs])


def ndcg_at_k(
    scores: Sequence[float] | np.ndarray,
    gains: Sequence[int] | np.ndarray,
    k: int,
) -> float:
    """NDCG@k with exponential gain 2^g - 1 and log2(position + 1) discount.

    Items are ranked by descending score (stable ties) and the ideal ordering
    is by descending gain.  Undefined when every gain is zero.  The scores
    and the gains must pass ``sortops.finite_vector``.
    """
    require_int("k", k, 1)
    s = finite_vector(scores, "ndcg_at_k: scores")
    g = finite_vector(gains, "ndcg_at_k: gains")
    if s.shape != g.shape:
        raise ValueError(f"{s.size} scores vs {g.size} gains")
    if np.any(g < 0):
        raise ValueError("gains must be non-negative")
    if not np.any(g > 0):
        raise UndefinedMetricError("NDCG undefined: all gains are zero")
    by_score = np.argsort(-s, kind="stable")
    ideal = np.sort(g)[::-1]
    return float(_dcg(g[by_score], (k,))[0] / _dcg(ideal, (k,))[0])


def evaluate_ranking(
    scores: Sequence[float] | np.ndarray,
    gains: Sequence[float] | np.ndarray,
    final_labels: Sequence[int] | np.ndarray,
    lengths: Sequence[int] | np.ndarray | Layout,
    cutoffs: Sequence[int],
) -> MetricReport:
    """Metrics over impressions laid out flat: ``scores``, ``gains`` and
    ``final_labels`` hold one entry per sample, one impression after another,
    and ``lengths`` the number of samples of each impression or their
    ``Layout``, which must pass ``sortops.check_lengths`` (a ValueError).
    The scores and the gains must pass ``sortops.finite_vector``.

    AUC of the final task is computed globally over all samples.  NDCG is per
    impression, skipping impressions whose gains are all zero, and averaged
    over the rest.  Each block of equal-length impressions is ranked at once;
    every per-impression value equals ``ndcg_at_k`` on that impression, and
    the values are added in impression order, so the means are the bits of a
    loop over ``ndcg_at_k``.
    """
    require_distinct_ints("cutoffs", cutoffs, 1)
    scores = finite_vector(scores, "evaluate_ranking: scores")
    gains = finite_vector(gains, "evaluate_ranking: gains")
    if np.size(lengths.lengths if isinstance(lengths, Layout) else lengths) == 0:
        raise ValueError("no impressions to evaluate")
    if scores.shape != gains.shape:
        raise ValueError(f"{scores.size} scores vs {gains.size} gains")
    lengths, blocks = check_lengths(lengths, scores.size, "evaluate_ranking")
    if np.any(gains < 0):
        raise ValueError("gains must be non-negative")

    ndcg = np.empty((len(cutoffs), lengths.size))
    defined = np.zeros(lengths.size, dtype=bool)
    for rows, cols in blocks:
        live = np.any(gains[cols] > 0, axis=1)
        rows, cols = rows[live], cols[live]
        defined[rows] = True
        S, G = scores[cols], gains[cols]
        by_score = np.take_along_axis(G, np.argsort(-S, axis=1, kind="stable"), axis=1)
        ideal = np.sort(G, axis=1)[:, ::-1]
        ndcg[:, rows] = _dcg(by_score, cutoffs) / _dcg(ideal, cutoffs)
    ndcg_count = int(defined.sum())
    if ndcg_count == 0:
        raise UndefinedMetricError("NDCG undefined: every impression has all-zero gains")
    # cumsum adds strictly left to right; a pairwise np.sum would change the last bit
    ndcg_sums = np.cumsum(ndcg[:, defined], axis=1)[:, -1]

    return MetricReport(
        auc=auc(scores, final_labels),
        ndcg_at={k: float(ndcg_sums[i]) / ndcg_count for i, k in enumerate(cutoffs)},
        impressions=lengths.size,
    )
