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
``systems`` and ``decision_terms`` state both systems and their score
terms once; the fit, the predictor and the grid search read only them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .arrays import as_matrix, positive_number
from .errors import EmptyClass
from .kernels import KernelSpec, gram
from .solver import BorderedFamily, DecisionTerm, SolveReport, solve_families


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


def systems(A, B, kernel: KernelSpec) -> tuple[BorderedFamily, BorderedFamily]:
    """The two class systems on class rows A and B, for every (gamma, eta).

    EmptyClass names a class with no rows, +1 first.
    """
    for label, rows in (("+1", A), ("-1", B)):
        if len(rows) == 0:
            raise EmptyClass(f"class {label} has no samples")
    k_aa, k_ab, k_bb = gram(kernel, A, A), gram(kernel, A, B), gram(kernel, B, B)
    e1, e2 = np.ones(len(A)), np.ones(len(B))
    return (BorderedFamily("class +1 system", k_aa, +1, e1, k_ab @ e2, float(len(B))),
            BorderedFamily("class -1 system", k_bb, +1, -e2, -(k_ab.T @ e1), -float(len(A))))


def decision_terms(A, B, kernel: KernelSpec, X) -> tuple[DecisionTerm, DecisionTerm]:
    """Terms of g1 = (K_xa h1 - K_xb e2)/g1 + b1 and g2 = (K_xb h2 + K_xa e1)/g2 + b2."""
    k_xa, k_xb = gram(kernel, X, A), gram(kernel, X, B)
    return (DecisionTerm(k_xa, -(k_xb @ np.ones(len(B)))),
            DecisionTerm(k_xb, k_xa @ np.ones(len(A))))


def fit_classifier(A, B, hp: TrkmClassifierHyperparams) -> TrkmClassifierModel:
    """Fit both class systems; aborts whole fit if either system is singular."""
    a = as_matrix(A, "A")
    b = as_matrix(B, "B")
    rep1, rep2 = solve_families(systems(a, b, hp.kernel),
                                [(hp.gamma1, hp.eta1), (hp.gamma2, hp.eta2)])
    return TrkmClassifierModel(A=a, B=b, h1=rep1.h, b1=rep1.b, h2=rep2.h, b2=rep2.b,
                               hyperparams=hp, fit_diag=(rep1, rep2))


def decision_values(model: TrkmClassifierModel, X) -> tuple[np.ndarray, np.ndarray]:
    """Dual-form scores of both hyperplanes for each row of X."""
    hp = model.hyperparams
    t1, t2 = decision_terms(model.A, model.B, hp.kernel, as_matrix(X, "X"))
    return t1.value(model.h1, hp.gamma1, model.b1), t2.value(model.h2, hp.gamma2, model.b2)


def decide(total) -> np.ndarray:
    """The +/-1 label of each summed decision value: its sign, a zero read as +1."""
    return np.where(total >= 0.0, 1, -1).astype(np.int64)


def predict_labels(model: TrkmClassifierModel, X) -> np.ndarray:
    """Predict +/-1 labels: ``decide`` of the combined score g1 + g2."""
    g1, g2 = decision_values(model, X)
    return decide(g1 + g2)
