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
``rows`` splits the training rows into the class rows (A, B) once;
``systems`` and ``decision_terms`` state both systems and their score
terms on them once; the fit, the predictor and the grid search read only them.
"""

from __future__ import annotations

import numpy as np

from .errors import EmptyClass
from .kernels import KernelSpec, bordered_gram, gram
from .solver import BorderedFamily, DecisionTerm, KernelBlock, solve_families


def rows(X, y) -> tuple[np.ndarray, np.ndarray]:
    """The stored rows (A, B): the rows of X labelled +1 and those labelled -1."""
    return X[y == 1], X[y == -1]


def systems(rows, kernel: KernelSpec) -> tuple[BorderedFamily, BorderedFamily]:
    """The two class systems on class rows ``rows`` = (A, B), for every (gamma, eta).

    EmptyClass names a class with no rows, +1 first.
    """
    A, B = rows
    for label, class_rows in zip(("+1", "-1"), rows):
        if len(class_rows) == 0:
            raise EmptyClass(f"class {label} has no samples")
    k_ab = gram(kernel, A, B)  # dropped before the class blocks are assembled
    e1, e2 = np.ones(len(A)), np.ones(len(B))
    ab_e2, ba_e1 = k_ab @ e2, k_ab.T @ e1
    del k_ab
    return (BorderedFamily("class +1 system", KernelBlock(bordered_gram(kernel, A)), +1, e1,
                           ab_e2, float(len(B))),
            BorderedFamily("class -1 system", KernelBlock(bordered_gram(kernel, B)), +1, -e2,
                           -ba_e1, -float(len(A))))


def decision_terms(rows, kernel: KernelSpec, X) -> tuple[DecisionTerm, DecisionTerm]:
    """Terms of g1 = (K_xa h1 - K_xb e2)/g1 + b1 and g2 = (K_xb h2 + K_xa e1)/g2 + b2."""
    A, B = rows
    k_xa, k_xb = gram(kernel, X, A), gram(kernel, X, B)
    return (DecisionTerm(k_xa, -(k_xb @ np.ones(len(B)))),
            DecisionTerm(k_xb, k_xa @ np.ones(len(A))))


def fit_classifier(X, y, penalties, kernel: KernelSpec):
    """The fit hook: the stored class rows A and B, and the solves of both class systems
    at ``penalties``. A singular system aborts the whole fit."""
    stored = rows(X, y)
    return stored, solve_families(systems(stored, kernel), penalties)


def decide(total) -> np.ndarray:
    """The +/-1 label of each summed decision value: its sign, a zero read as +1."""
    return np.where(total >= 0.0, 1, -1).astype(np.int64)


def predict_labels(model, X) -> np.ndarray:
    """The predict hook: ``decide`` of the combined score g1 + g2."""
    return decide(model.total(X))
