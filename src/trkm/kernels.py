"""Kernel evaluation and Gram/cross-Gram matrix assembly.

Each Gram entry sums its pair's features left to right: Gaussian entries by
``cdist(..., "sqeuclidean")``, which adds each ``(x_k - y_k)**2`` directly
(the ``|x|^2 + |y|^2 - 2 x.y`` expansion loses precision for near-identical
points and would break the unit diagonal), linear entries by one rank-one
update per feature. So ``gram(s, a, b)`` equals ``gram(s, b, a).T`` bitwise,
and each entry equals the plain left-to-right sum over one pair bitwise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist

from .arrays import as_matrix, positive_number
from .errors import DimensionMismatch

GAUSSIAN = "gaussian"
LINEAR = "linear"


@dataclass(frozen=True)
class KernelSpec:
    """Kernel family selector; ``sigma`` is the Gaussian bandwidth."""

    family: str
    sigma: float | None = None

    def __post_init__(self):
        if self.family not in (GAUSSIAN, LINEAR):
            raise ValueError(f"unknown kernel family {self.family!r}")
        if self.family == GAUSSIAN and not positive_number(self.sigma):
            raise ValueError("gaussian kernel requires sigma > 0")


def gaussian(sigma: float) -> KernelSpec:
    return KernelSpec(GAUSSIAN, float(sigma))


def linear() -> KernelSpec:
    return KernelSpec(LINEAR)


def gram(spec: KernelSpec, left, right) -> np.ndarray:
    """Assemble the (p x q) matrix of kernel values between two sample sets."""
    lm = as_matrix(left, "left")
    rm = as_matrix(right, "right")
    if lm.shape[1] != rm.shape[1]:
        raise DimensionMismatch(
            f"feature counts differ: left has {lm.shape[1]}, right has {rm.shape[1]}"
        )
    if spec.family == GAUSSIAN:
        # In the cdist buffer: d / -(2 s^2) equals -d / (2 s^2) bitwise. A bandwidth
        # whose 2 s^2 underflows gives inf or nan; the solver's finiteness check reports it.
        values = cdist(lm, rm, "sqeuclidean")
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            np.divide(values, -(2.0 * spec.sigma * spec.sigma), out=values)
        return np.exp(values, out=values)
    values = np.zeros((lm.shape[0], rm.shape[0]))
    # Huge features overflow to inf or nan here; the solver's finiteness check reports it.
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(lm.shape[1]):
            values += np.outer(lm[:, k], rm[:, k])
    return values
