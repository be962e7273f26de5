"""Twin restricted kernel machine for regression (TRKM-R).

Both systems run over the full sample. With K = kernel(X, X) and e ones:

    [ (1/g1) K + eta1 I   -e ] [h1]   [ -Y + (1/g1) K e ]
    [ e^T                  0 ] [b1] = [ n               ]

    [ (1/g2) K + eta2 I    e ] [h2]   [ Y + (1/g2) K e ]
    [ e^T                  0 ] [b2] = [ n              ]

so sum(h1) = sum(h2) = n after every fit. With g1 = g2 and eta1 = eta2 the
two systems share their core, and a border sign only negates b, so
``solver.solve_families`` factors one +e matrix for both (``SharedFactor``);
unequal penalties take one factorization per system. The predictor averages the two
dual-form functions; there is no epsilon tube, the model is purely
least-squares-style. Targets are used unscaled here; any normalization is
the data layer's responsibility.
``systems`` and ``decision_terms`` state both systems and both functions'
terms once; the fit, the predictor and the grid search read only them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .arrays import as_matrix, as_vector
from .classifier import TrkmClassifierHyperparams
from .errors import DimensionMismatch, TooFewSamples
from .kernels import KernelSpec, gram
from .solver import BorderedFamily, DecisionTerm, SolveReport, solve_families


# Both TRKM fits take the same per-system penalties.
TrkmRegressorHyperparams = TrkmClassifierHyperparams


@dataclass(frozen=True)
class TrkmRegressorModel:
    X: np.ndarray
    Y: np.ndarray
    h1: np.ndarray
    b1: float
    h2: np.ndarray
    b2: float
    hyperparams: TrkmRegressorHyperparams
    fit_diag: tuple[SolveReport, SolveReport] | None = None


def systems(X, Y, kernel: KernelSpec) -> tuple[BorderedFamily, BorderedFamily]:
    """The lower- and upper-function systems on one K of the rows of X, for every (gamma, eta).

    TooFewSamples for fewer than 2 rows.
    """
    if len(X) < 2:
        raise TooFewSamples(f"need at least 2 samples, got {len(X)}")
    k = gram(kernel, X, X)
    ke = k @ np.ones(len(X))
    return (BorderedFamily("lower-function system", k, -1, -Y, ke, float(len(X))),
            BorderedFamily("upper-function system", k, +1, Y, ke, float(len(X))))


def decision_terms(X, kernel: KernelSpec, Xq) -> tuple[DecisionTerm, DecisionTerm]:
    """Terms of g1 = K_q (e - h1)/g1 + b1 and g2 = K_q (h2 - e)/g2 + b2 at the rows of Xq."""
    kq = gram(kernel, Xq, X)
    zeros = np.zeros(len(Xq))
    return DecisionTerm(kq, zeros, -1, 1.0), DecisionTerm(kq, zeros, +1, 1.0)


def fit_regressor(X, Y, hp: TrkmRegressorHyperparams) -> TrkmRegressorModel:
    x = as_matrix(X, "X")
    y = as_vector(Y, "Y")
    n = x.shape[0]
    if y.shape[0] != n:
        raise DimensionMismatch(f"X has {n} rows but Y has length {y.shape[0]}")
    rep1, rep2 = solve_families(systems(x, y, hp.kernel),
                                [(hp.gamma1, hp.eta1), (hp.gamma2, hp.eta2)])
    return TrkmRegressorModel(X=x, Y=y, h1=rep1.h, b1=rep1.b, h2=rep2.h, b2=rep2.b,
                              hyperparams=hp, fit_diag=(rep1, rep2))


def regression_components(model: TrkmRegressorModel, X) -> tuple[np.ndarray, np.ndarray]:
    """The two dual-form component functions g1, g2 at each row of X."""
    hp = model.hyperparams
    t1, t2 = decision_terms(model.X, hp.kernel, as_matrix(X, "X"))
    return t1.value(model.h1, hp.gamma1, model.b1), t2.value(model.h2, hp.gamma2, model.b2)


def decide(total) -> np.ndarray:
    """The prediction of the sum of the two component functions: their mean."""
    return total / 2.0


def predict_regression(model: TrkmRegressorModel, X) -> np.ndarray:
    """Elementwise mean of the two component functions."""
    g1, g2 = regression_components(model, X)
    return decide(g1 + g2)
