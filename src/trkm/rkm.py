"""Single-machine restricted kernel machine classifier baseline.

Training solves one bordered system (equivalent to the published RKM
solution, with unknowns reordered to [h; b]):

    [ (1/g) K + eta I   e ] [h]   [ y ]
    [ e^T               0 ] [b] = [ 0 ]

The source formulation gives only the training system; the decision rule
used here, score(x) = (1/g) kernel(x, X) h + b, is reconstructed from the
least-squares SVM decision function that the RKM reformulates.
``rows`` gives the stored rows and labels (X, y); ``systems`` and
``decision_terms`` state the system and its score term on them once; the
fit, the predictor and the grid search read only them.
"""

from __future__ import annotations

import numpy as np

from .classifier import decide
from .errors import TooFewSamples
from .kernels import KernelSpec, bordered_gram, gram
from .solver import BorderedFamily, DecisionTerm, KernelBlock, solve_families


def rows(X, y) -> tuple[np.ndarray, np.ndarray]:
    """The stored rows: all of (X, y)."""
    return X, y


def systems(rows, kernel: KernelSpec) -> tuple[BorderedFamily]:
    """The one RKM system on the rows and labels ``rows`` = (X, y), for every (gamma, eta).

    TooFewSamples for fewer than 2 rows.
    """
    X, y = rows
    if len(X) < 2:
        raise TooFewSamples(f"need at least 2 samples, got {len(X)}")
    return (BorderedFamily("rkm system", KernelBlock(bordered_gram(kernel, X)), +1, y,
                           np.zeros(len(X)), 0.0),)


def decision_terms(rows, kernel: KernelSpec, Xq) -> tuple[DecisionTerm]:
    """The system's term of the score at the rows of Xq: K_q h/g + b."""
    return (DecisionTerm(gram(kernel, Xq, rows[0]), np.zeros(len(Xq))),)


def fit_rkm(X, y, penalties, kernel: KernelSpec):
    """The fit hook: the stored rows and labels, and the solve of the system at
    ``penalties``."""
    stored = rows(X, y)
    return stored, solve_families(systems(stored, kernel), penalties)


def predict_rkm(model, X) -> np.ndarray:
    """The predict hook: TRKM-C's ``decide`` of the score; a zero score maps to +1."""
    return decide(model.total(X))
