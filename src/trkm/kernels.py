"""Kernel evaluation and Gram/cross-Gram matrix assembly.

Gaussian entries are computed from the per-pair squared distance
``sum((x_i - y_i)**2)`` directly; the usual ``|x|^2 + |y|^2 - 2 x.y``
expansion loses precision for near-identical points and would break the
unit-diagonal invariant. Every entry is reduced independently and in the
same order, so ``gram(s, a, b)`` equals ``gram(s, b, a).T`` bitwise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .arrays import as_matrix, as_vector
from .errors import DimensionMismatch

GAUSSIAN = "gaussian"
LINEAR = "linear"

# Cap on elements of the (rows x cols x features) difference block held in
# memory at once; keeps Gram assembly under ~128 MB without changing results.
_BLOCK_ELEMENTS = 16_000_000


@dataclass(frozen=True)
class KernelSpec:
    """Kernel family selector; ``sigma`` is the Gaussian bandwidth."""

    family: str
    sigma: float | None = None

    def __post_init__(self):
        if self.family not in (GAUSSIAN, LINEAR):
            raise ValueError(f"unknown kernel family {self.family!r}")
        if self.family == GAUSSIAN:
            if self.sigma is None or not np.isfinite(self.sigma) or self.sigma <= 0:
                raise ValueError("gaussian kernel requires sigma > 0")


def gaussian(sigma: float) -> KernelSpec:
    return KernelSpec(GAUSSIAN, float(sigma))


def linear() -> KernelSpec:
    return KernelSpec(LINEAR)


def kernel_eval(spec: KernelSpec, x, y) -> float:
    """Evaluate the kernel on a single pair of feature vectors."""
    xv = as_vector(x, "x")
    yv = as_vector(y, "y")
    if xv.shape != yv.shape:
        raise DimensionMismatch(f"vector lengths differ: {xv.shape[0]} vs {yv.shape[0]}")
    if spec.family == LINEAR:
        return float(np.sum(xv * yv))
    d = xv - yv
    return float(np.exp(-np.sum(d * d) / (2.0 * spec.sigma * spec.sigma)))


def gram(spec: KernelSpec, left, right) -> np.ndarray:
    """Assemble the (p x q) matrix of kernel values between two sample sets."""
    lm = as_matrix(left, "left")
    rm = as_matrix(right, "right")
    if lm.shape[1] != rm.shape[1]:
        raise DimensionMismatch(
            f"feature counts differ: left has {lm.shape[1]}, right has {rm.shape[1]}"
        )
    p, q = lm.shape[0], rm.shape[0]
    values = np.empty((p, q), dtype=float)
    block = max(1, _BLOCK_ELEMENTS // max(1, q * max(1, lm.shape[1])))
    for start in range(0, p, block):
        stop = min(start + block, p)
        if spec.family == LINEAR:
            values[start:stop] = np.sum(lm[start:stop, None, :] * rm[None, :, :], axis=2)
        else:
            d = lm[start:stop, None, :] - rm[None, :, :]
            values[start:stop] = np.exp(-np.sum(d * d, axis=2) / (2.0 * spec.sigma * spec.sigma))
    return values
