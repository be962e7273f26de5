"""Evaluation metrics: classification accuracy and the four regression errors.

Pos Error averages |f(x_i) - y_i| over samples with f(x_i) <= y_i, Neg
Error over samples with f(x_i) > y_i, and both divide by the full sample
count n (not the subset size), which makes pos_error + neg_error equal the
mean absolute error. The MAE is computed as exactly that sum so the split
is additive bitwise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, EmptyInput


@dataclass(frozen=True)
class RegressionErrors:
    rmse: float
    mae: float
    pos_error: float
    neg_error: float


def classification_accuracy(pred, truth) -> float:
    """Fraction of matching labels, in percent."""
    p = np.asarray(pred)
    t = np.asarray(truth)
    if p.shape != t.shape or p.ndim != 1:
        raise DimensionMismatch(f"label shapes differ: {p.shape} vs {t.shape}")
    if p.size == 0:
        raise EmptyInput("cannot score zero samples")
    return float(np.mean(p == t) * 100.0)


def _vectors(pred, truth) -> tuple[np.ndarray, np.ndarray]:
    p = np.asarray(pred, dtype=float)
    t = np.asarray(truth, dtype=float)
    if p.shape != t.shape or p.ndim != 1:
        raise DimensionMismatch(f"prediction shapes differ: {p.shape} vs {t.shape}")
    if p.size == 0:
        raise EmptyInput("cannot score zero samples")
    return p, t


def rmse(pred, truth) -> float:
    """Root mean squared error: the score of a regression grid cell."""
    p, t = _vectors(pred, truth)
    with np.errstate(over="ignore"):  # an error beyond double range is inf
        diff = p - t
        return float(np.sqrt(np.mean(diff * diff)))


def regression_errors(pred, truth) -> RegressionErrors:
    p, t = _vectors(pred, truth)
    n = p.size
    with np.errstate(over="ignore"):  # an error beyond double range is inf
        diff = p - t
        under = diff <= 0.0  # f(x_i) <= y_i
        pos_error = float(np.sum(np.abs(diff[under])) / n)
        neg_error = float(np.sum(np.abs(diff[~under])) / n)
    return RegressionErrors(
        rmse=rmse(p, t),
        mae=pos_error + neg_error,
        pos_error=pos_error,
        neg_error=neg_error,
    )
