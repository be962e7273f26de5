"""Single-machine restricted kernel machine classifier baseline.

Training solves one bordered system (equivalent to the published RKM
solution, with unknowns reordered to [h; b]):

    [ (1/g) K + eta I   e ] [h]   [ y ]
    [ e^T               0 ] [b] = [ 0 ]

The source formulation gives only the training system; the decision rule
used here, score(x) = (1/g) kernel(x, X) h + b, is reconstructed from the
least-squares SVM decision function that the RKM reformulates.
``systems`` and ``decision_terms`` state the system and its score term
once; the fit, the predictor and the grid search read only them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .arrays import as_matrix, as_vector, positive_number
from .classifier import decide
from .errors import DimensionMismatch, TooFewSamples
from .kernels import KernelSpec, gram
from .solver import BorderedFamily, DecisionTerm, SolveReport, solve_families


@dataclass(frozen=True)
class RkmModel:
    X: np.ndarray
    y: np.ndarray
    h: np.ndarray
    b: float
    gamma: float
    eta: float
    kernel: KernelSpec
    fit_diag: tuple[SolveReport] | None = None


def systems(X, y, kernel: KernelSpec) -> tuple[BorderedFamily]:
    """The one RKM system on the rows of X with labels y, for every (gamma, eta).

    TooFewSamples for fewer than 2 rows.
    """
    if len(X) < 2:
        raise TooFewSamples(f"need at least 2 samples, got {len(X)}")
    return (BorderedFamily("rkm system", gram(kernel, X, X), +1, y, np.zeros(len(X)), 0.0),)


def decision_terms(X, kernel: KernelSpec, Xq) -> tuple[DecisionTerm]:
    """The system's term of the score at the rows of Xq: K_q h/g + b."""
    return (DecisionTerm(gram(kernel, Xq, X), np.zeros(len(Xq))),)


def fit_rkm(X, y, gamma: float, eta: float, kernel: KernelSpec) -> RkmModel:
    x = as_matrix(X, "X")
    yv = as_vector(y, "y")
    n = x.shape[0]
    if yv.shape[0] != n:
        raise DimensionMismatch(f"X has {n} rows but y has length {yv.shape[0]}")
    if not np.all(np.isin(yv, (-1.0, 1.0))):
        raise ValueError("labels must be +1 or -1")
    if not (positive_number(gamma) and positive_number(eta)):
        raise ValueError("gamma and eta must be strictly positive")
    (rep,) = solve_families(systems(x, yv, kernel), [(gamma, eta)])
    return RkmModel(X=x, y=yv, h=rep.h, b=rep.b, gamma=gamma, eta=eta, kernel=kernel,
                    fit_diag=(rep,))


def rkm_scores(model: RkmModel, X) -> np.ndarray:
    (term,) = decision_terms(model.X, model.kernel, as_matrix(X, "X"))
    return term.value(model.h, model.gamma, model.b)


def predict_rkm(model: RkmModel, X) -> np.ndarray:
    """Predict +/-1 labels by TRKM-C's ``decide``; a zero score maps to +1."""
    return decide(rkm_scores(model, X))
