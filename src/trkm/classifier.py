"""Twin restricted kernel machine for binary classification (TRKM-C).

Fitting solves two bordered linear systems, one per class. With
K_aa = kernel(A, A), K_ab = kernel(A, B) and e_i ones vectors:

    [ (1/g1) K_aa + eta1 I   e1 ] [h1]   [ e1 + (1/g1) K_ab e2 ]
    [ e1^T                   0  ] [b1] = [ n2                  ]

    [ (1/g2) K_bb + eta2 I   e2 ] [h2]     [ e2 + (1/g2) K_ba e1 ]
    [ e2^T                   0  ] [b2] = - [ n1                  ]

The bottom rows force the balance constraints sum(h1) = n2 and
sum(h2) = -n1. Weight vectors are never materialized for Gaussian
kernels; prediction is dual-form throughout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .arrays import as_matrix, positive_number
from .errors import EmptyClass
from .kernels import KernelSpec, gram
from .solver import BorderedSystem, SolveReport, solve_bordered


@dataclass(frozen=True)
class TrkmClassifierHyperparams:
    """Weight-norm (gamma) and hidden-feature (eta) regularizers of the two systems.

    TRKM-C and TRKM-R share this class; ``TrkmRegressorHyperparams`` is
    another name for it.
    """

    gamma1: float
    gamma2: float
    eta1: float
    eta2: float
    kernel: KernelSpec

    def __post_init__(self):
        for name in ("gamma1", "gamma2", "eta1", "eta2"):
            v = getattr(self, name)
            if not positive_number(v):
                raise ValueError(f"{name} must be strictly positive, got {v!r}")

    @classmethod
    def equal_penalty(cls, gamma: float, eta: float, kernel: KernelSpec):
        """Common convention: same penalties for both systems."""
        return cls(gamma, gamma, eta, eta, kernel)


@dataclass(frozen=True)
class TrkmClassifierModel:
    """Fitted dual variables plus the stored class matrices."""

    A: np.ndarray
    B: np.ndarray
    h1: np.ndarray
    b1: float
    h2: np.ndarray
    b2: float
    hyperparams: TrkmClassifierHyperparams
    fit_diag: tuple[SolveReport, SolveReport] | None = None


def fit_classifier(A, B, hp: TrkmClassifierHyperparams) -> TrkmClassifierModel:
    """Fit both class systems; aborts whole fit if either system is singular."""
    a = as_matrix(A, "A")
    b = as_matrix(B, "B")
    if a.shape[0] == 0:
        raise EmptyClass("class +1 has no samples")
    if b.shape[0] == 0:
        raise EmptyClass("class -1 has no samples")
    n1, n2 = a.shape[0], b.shape[0]
    k_aa = gram(hp.kernel, a, a)
    k_ab = gram(hp.kernel, a, b)
    k_bb = gram(hp.kernel, b, b)

    rhs1 = np.ones(n1) + (k_ab @ np.ones(n2)) / hp.gamma1
    rhs2 = -(np.ones(n2) + (k_ab.T @ np.ones(n1)) / hp.gamma2)
    sys1 = BorderedSystem(k_aa, hp.gamma1, hp.eta1, +1, rhs1, float(n2))
    sys2 = BorderedSystem(k_bb, hp.gamma2, hp.eta2, +1, rhs2, -float(n1))
    rep1 = solve_bordered(sys1, "class +1 system")
    rep2 = solve_bordered(sys2, "class -1 system")
    return TrkmClassifierModel(
        A=a,
        B=b,
        h1=rep1.solution[:n1],
        b1=float(rep1.solution[n1]),
        h2=rep2.solution[:n2],
        b2=float(rep2.solution[n2]),
        hyperparams=hp,
        fit_diag=(rep1, rep2),
    )


def decision_values(model: TrkmClassifierModel, X) -> tuple[np.ndarray, np.ndarray]:
    """Dual-form scores of both hyperplanes for each row of X."""
    x = as_matrix(X, "X")
    hp = model.hyperparams
    k_xa = gram(hp.kernel, x, model.A)
    k_xb = gram(hp.kernel, x, model.B)
    e1 = np.ones(model.A.shape[0])
    e2 = np.ones(model.B.shape[0])
    g1 = (k_xa @ model.h1 - k_xb @ e2) / hp.gamma1 + model.b1
    g2 = (k_xb @ model.h2 + k_xa @ e1) / hp.gamma2 + model.b2
    return g1, g2


def predict_labels(model: TrkmClassifierModel, X) -> np.ndarray:
    """Predict +/-1 labels; a zero combined score maps to +1."""
    g1, g2 = decision_values(model, X)
    return np.where(g1 + g2 >= 0.0, 1, -1).astype(np.int64)
