"""Nonparametric comparison of p models over N datasets.

Ranks use midranks for ties (standard Friedman-test practice), with rank 1
for the best model. Midranks come from numpy, not ``scipy.stats``: a run of
ties at sorted positions start..end-1 shares the rank (start + 1 + end) / 2,
and a row holding NaN ranks as all NaN. The Friedman chi-square statistic is

    chi2 = 12 N / (p (p+1)) * (sum_j Rbar_j^2 - p (p+1)^2 / 4)

and its F form is F = (N-1) chi2 / (N (p-1) - chi2), with degrees of
freedom (p-1) and (N-1)(p-1). The Nemenyi critical difference is
q_alpha * sqrt(p (p+1) / (6 N)); critical values are lookup constants,
never computed from distribution functions. The pairwise sign test counts
wins/ties/losses with significance threshold N/2 + 1.96 sqrt(N)/2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateStatistic, DimensionMismatch

HIGHER = "higher"
LOWER = "lower"

# Two-tailed Nemenyi critical values at alpha = 0.05 (studentized range
# statistic divided by sqrt(2)), for 2..10 compared models.
NEMENYI_Q_05 = {
    2: 1.960,
    3: 2.343,
    4: 2.569,
    5: 2.728,
    6: 2.850,
    7: 2.949,
    8: 3.031,
    9: 3.102,
    10: 3.164,
}


@dataclass(frozen=True)
class RankTable:
    """Per-dataset midrank table (1 = best) and its column averages."""

    ranks: np.ndarray
    average_ranks: np.ndarray


@dataclass(frozen=True)
class FriedmanReport:
    chi2: float
    ff: float
    df1: int
    df2: int
    critical_value: float | None
    reject_null: bool


@dataclass(frozen=True)
class WinTieLoss:
    wins: int
    ties: int
    losses: int
    threshold: float


def _check_better(better: str) -> str:
    if better not in (HIGHER, LOWER):
        raise ValueError(f"better must be {HIGHER!r} or {LOWER!r}, got {better!r}")
    return better


def midranks(row) -> np.ndarray:
    """Average ranks of a 1-D row (1 = smallest); all NaN if the row holds NaN."""
    row = np.asarray(row, dtype=float)
    if np.isnan(row).any():
        return np.full(row.size, np.nan)
    order = np.argsort(row, kind="stable")
    ordered = row[order]
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    ends = np.r_[starts[1:], row.size]
    ranks = np.empty(row.size)
    ranks[order] = np.repeat((starts + 1 + ends) / 2.0, ends - starts)
    return ranks


def rank_models(scores, better: str = HIGHER) -> RankTable:
    """Rank each dataset row; midranks on ties, lower rank = better model."""
    _check_better(better)
    s = np.asarray(scores, dtype=float)
    if s.ndim != 2:
        raise DimensionMismatch(f"scores must be 2-D, got shape {s.shape}")
    n_datasets, n_models = s.shape
    if n_datasets < 1 or n_models < 2:
        raise DimensionMismatch(
            f"need at least 1 dataset and 2 models, got {s.shape}"
        )
    signed = -s if better == HIGHER else s
    ranks = np.vstack([midranks(row) for row in signed])
    return RankTable(ranks=ranks, average_ranks=ranks.mean(axis=0))


def friedman_test(ranks: RankTable, critical_value: float | None = None) -> FriedmanReport:
    """Friedman chi-square and F statistics from a rank table.

    ``critical_value`` is the caller-supplied F-distribution critical value
    used for the reject decision; without it the null is never rejected.
    """
    n_datasets, n_models = ranks.ranks.shape
    if n_datasets < 2:
        raise DimensionMismatch("friedman test needs at least 2 datasets")
    p = n_models
    avg = ranks.average_ranks
    chi2 = 12.0 * n_datasets / (p * (p + 1)) * (np.sum(avg * avg) - p * (p + 1) ** 2 / 4.0)
    denom = n_datasets * (p - 1) - chi2
    if denom <= 0:
        raise DegenerateStatistic(
            f"F statistic denominator N(p-1) - chi2 = {denom:.6g} is not positive"
        )
    ff = (n_datasets - 1) * chi2 / denom
    return FriedmanReport(
        chi2=float(chi2),
        ff=float(ff),
        df1=p - 1,
        df2=(n_datasets - 1) * (p - 1),
        critical_value=critical_value,
        reject_null=bool(critical_value is not None and ff > critical_value),
    )


def nemenyi_cd(p: int, N: int, q_alpha: float) -> float:
    """Nemenyi post-hoc critical difference for p models over N datasets."""
    if p < 2 or N < 1:
        raise ValueError(f"need p >= 2 and N >= 1, got p={p}, N={N}")
    if not np.isfinite(q_alpha) or q_alpha <= 0:
        raise ValueError(f"q_alpha must be positive, got {q_alpha!r}")
    return float(q_alpha * np.sqrt(p * (p + 1) / (6.0 * N)))


def win_tie_loss(scores_a, scores_b, better: str = HIGHER) -> WinTieLoss:
    """Pairwise sign-test counts of model a against model b over datasets."""
    _check_better(better)
    a = np.asarray(scores_a, dtype=float)
    b = np.asarray(scores_b, dtype=float)
    if a.shape != b.shape or a.ndim != 1 or a.size < 1:
        raise DimensionMismatch(f"score vectors must match and be non-empty: {a.shape} vs {b.shape}")
    wins, losses = int(np.sum(a > b)), int(np.sum(a < b))
    if better == LOWER:
        wins, losses = losses, wins
    n = a.size
    return WinTieLoss(wins, n - wins - losses, losses, float(n / 2.0 + 1.96 * np.sqrt(n) / 2.0))
