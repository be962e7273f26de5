"""Deterministic synthetic datasets used by the experiment scripts and tests.

``crossplane`` is a desk reconstruction of the classic cross-planes data:
two line segments crossing at the center of the unit square, one class per
segment, with small perpendicular noise and a gap around the intersection
so the classes stay separable. Twin-hyperplane methods are near-perfect on
it while a single linear hyperplane is near chance.
"""

from __future__ import annotations

import numpy as np

from .model_io import write_atomic


def crossplane(n: int = 130, seed: int = 7, noise: float = 0.01, gap: float = 0.08):
    """Two crossing line segments; returns (X, y) with y in {-1, +1}.

    Points sit evenly along each segment (skipping a window of half-width
    ``gap`` around the intersection) with small vertical noise.
    """
    rng = np.random.default_rng(seed)
    n_pos = n // 2
    n_neg = n - n_pos

    def line_points(count: int, rising: bool) -> np.ndarray:
        left = np.linspace(0.0, 0.5 - gap, (count + 1) // 2)
        right = np.linspace(0.5 + gap, 1.0, count - len(left))
        t = np.concatenate([left, right])
        base = t if rising else 1.0 - t
        return np.column_stack([t, base + rng.normal(0.0, noise, size=count)])

    x = np.vstack([line_points(n_pos, rising=True), line_points(n_neg, rising=False)])
    y = np.concatenate([np.ones(n_pos, dtype=np.int64), -np.ones(n_neg, dtype=np.int64)])
    return x, y


def blobs(n_per_class: int = 20, offset: float = 5.0, seed: int = 0):
    """Two well-separated 2-D Gaussian blobs at (+offset, +offset) and (-offset, -offset)."""
    rng = np.random.default_rng(seed)
    pos = rng.normal(0.0, 1.0, size=(n_per_class, 2)) + offset
    neg = rng.normal(0.0, 1.0, size=(n_per_class, 2)) - offset
    x = np.vstack([pos, neg])
    y = np.concatenate(
        [np.ones(n_per_class, dtype=np.int64), -np.ones(n_per_class, dtype=np.int64)]
    )
    return x, y


def sine(n: int = 50, seed: int = 3):
    """Noiseless y = sin(x) on n random points in [0, 2*pi]; X is (n, 1)."""
    rng = np.random.default_rng(seed)
    x = np.sort(rng.uniform(0.0, 2.0 * np.pi, size=n))
    return x.reshape(-1, 1), np.sin(x)


def _write_csv(path: str, x: np.ndarray, y: np.ndarray, target: str, cell) -> None:
    """Write rows of x with ``cell`` of each value of y as a last column named ``target``."""
    lines = [",".join([f"f{j}" for j in range(x.shape[1])] + [target])]
    lines += [",".join(repr(float(v)) for v in row) + f",{cell(value)}" for row, value in zip(x, y)]
    write_atomic(path, "\n".join(lines) + "\n")


def write_classification_csv(path: str, x: np.ndarray, y: np.ndarray) -> None:
    _write_csv(path, x, y, "label", int)


def write_regression_csv(path: str, x: np.ndarray, y: np.ndarray) -> None:
    _write_csv(path, x, y, "target", lambda target: repr(float(target)))
