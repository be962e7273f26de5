"""Twin restricted kernel machine for regression (TRKM-R).

Both systems run over the full sample. With K = kernel(X, X) and e ones:

    [ (1/g1) K + eta1 I   -e ] [h1]   [ -Y + (1/g1) K e ]
    [ e^T                  0 ] [b1] = [ n               ]

    [ (1/g2) K + eta2 I    e ] [h2]   [ Y + (1/g2) K e ]
    [ e^T                  0 ] [b2] = [ n              ]

so sum(h1) = sum(h2) = n after every fit. With g1 = g2 and eta1 = eta2 the
two augmented matrices differ only in the sign of the border column, and
``fit_regressor`` factors one of them for both (``solver.SharedFactor``);
unequal penalties take one factorization per system. The predictor averages the two
dual-form functions; there is no epsilon tube, the model is purely
least-squares-style. Targets are used unscaled here; any normalization is
the data layer's responsibility.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .arrays import as_matrix, as_vector
from .classifier import TrkmClassifierHyperparams
from .errors import DimensionMismatch
from .kernels import gram
from .solver import BorderedSystem, SharedFactor, SolveReport, solve_bordered


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


def fit_regressor(X, Y, hp: TrkmRegressorHyperparams) -> TrkmRegressorModel:
    x = as_matrix(X, "X")
    y = as_vector(Y, "Y")
    n = x.shape[0]
    if n < 2:
        raise ValueError(f"need at least 2 samples, got {n}")
    if y.shape[0] != n:
        raise DimensionMismatch(f"X has {n} rows but Y has length {y.shape[0]}")
    k = gram(hp.kernel, x, x)
    e = np.ones(n)
    ke = k @ e

    sys1 = BorderedSystem(k, hp.gamma1, hp.eta1, -1, -y + ke / hp.gamma1, float(n))
    sys2 = BorderedSystem(k, hp.gamma2, hp.eta2, +1, y + ke / hp.gamma2, float(n))
    # With equal penalties the systems differ only in border sign: one LU serves both.
    shared = SharedFactor() if (hp.gamma1, hp.eta1) == (hp.gamma2, hp.eta2) else None
    rep1 = solve_bordered(sys1, "lower-function system", factor=shared)
    rep2 = solve_bordered(sys2, "upper-function system", factor=shared)
    return TrkmRegressorModel(
        X=x,
        Y=y,
        h1=rep1.solution[:n],
        b1=float(rep1.solution[n]),
        h2=rep2.solution[:n],
        b2=float(rep2.solution[n]),
        hyperparams=hp,
        fit_diag=(rep1, rep2),
    )


def regression_components(model: TrkmRegressorModel, X) -> tuple[np.ndarray, np.ndarray]:
    """The two dual-form component functions g1, g2 at each row of X."""
    x = as_matrix(X, "X")
    hp = model.hyperparams
    kq = gram(hp.kernel, x, model.X)
    e = np.ones(model.X.shape[0])
    g1 = (kq @ (e - model.h1)) / hp.gamma1 + model.b1
    g2 = (kq @ (model.h2 - e)) / hp.gamma2 + model.b2
    return g1, g2


def predict_regression(model: TrkmRegressorModel, X) -> np.ndarray:
    """Elementwise mean of the two component functions."""
    g1, g2 = regression_components(model, X)
    return (g1 + g2) / 2.0
