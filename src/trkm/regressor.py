"""Twin restricted kernel machine for regression (TRKM-R).

Both systems run over the full sample. With K = kernel(X, X) and e ones:

    [ (1/g1) K + eta1 I   -e ] [h1]   [ -Y + (1/g1) K e ]
    [ e^T                  0 ] [b1] = [ n               ]

    [ (1/g2) K + eta2 I    e ] [h2]   [ Y + (1/g2) K e ]
    [ e^T                  0 ] [b2] = [ n              ]

so sum(h1) = sum(h2) = n after every fit. With g1 = g2 and eta1 = eta2 the
two systems share their core, and a border sign only negates b, so
both solve on one +e factor, held by their one kernel block;
unequal penalties take one factorization per system. The predictor averages the two
dual-form functions; there is no epsilon tube, the model is purely
least-squares-style. Targets are used unscaled here; any normalization is
the data layer's responsibility.
``rows`` gives the stored rows and targets (X, Y); ``systems`` and
``decision_terms`` state both systems and both functions' terms on them
once; the fit, the predictor and the grid search read only them.
"""

from __future__ import annotations

import numpy as np

from .errors import TooFewSamples
from .kernels import KernelSpec, gram
from .solver import BorderedFamily, DecisionTerm, KernelBlock, solve_families


def rows(X, Y) -> tuple[np.ndarray, np.ndarray]:
    """The stored rows: all of (X, Y)."""
    return X, Y


def systems(rows, kernel: KernelSpec) -> tuple[BorderedFamily, BorderedFamily]:
    """The lower- and upper-function systems on one K of X, ``rows`` = (X, Y), for every
    (gamma, eta).

    TooFewSamples for fewer than 2 rows.
    """
    X, Y = rows
    if len(X) < 2:
        raise TooFewSamples(f"need at least 2 samples, got {len(X)}")
    k = KernelBlock.of(kernel, X)
    with np.errstate(over="ignore", invalid="ignore"):  # an inf or nan: NonFiniteSystem
        ke = k @ np.ones(len(X))
    return (BorderedFamily("lower-function system", k, -1, -Y, ke, float(len(X))),
            BorderedFamily("upper-function system", k, +1, Y, ke, float(len(X))))


def decision_terms(rows, kernel: KernelSpec, Xq) -> tuple[DecisionTerm, DecisionTerm]:
    """Terms of g1 = K_q (e - h1)/g1 + b1 and g2 = K_q (h2 - e)/g2 + b2 at the rows of Xq."""
    kq = gram(kernel, Xq, rows[0])
    zeros = np.zeros(len(Xq))
    return DecisionTerm(kq, zeros, -1, 1.0), DecisionTerm(kq, zeros, +1, 1.0)


def fit_regressor(X, Y, penalties, kernel: KernelSpec):
    """The fit hook: the stored rows and targets, and the solves of both systems at
    ``penalties``."""
    stored = rows(X, Y)
    return stored, solve_families(systems(stored, kernel), penalties)


def decide(total) -> np.ndarray:
    """The prediction of the sum of the two component functions: their mean."""
    return total / 2.0


def predict_regression(model, X) -> np.ndarray:
    """The predict hook: the elementwise mean of the two component functions."""
    return decide(model.total(X))
