"""The table of model kinds: how each is fitted, predicted, reported and saved.

Each supported (``--model-kind``, task) pair has one entry: TRKM-C
(``trkm``, classify), TRKM-R (``trkm``, regress) and the RKM baseline
(``rkm``, classify). Grid search, the CLI and model files all go through
this table, so no other module decides which model a kind and a task mean.

The entries call the model modules' functions through the module attributes
(``classifier.fit_classifier``) each time they run, never through function
objects captured at import, so a wrapper installed on those attributes sees
every fit and predict.

Every entry also states a cross-validation fold's systems as data, for every
grid cell at once (``grid_fold``); ``fold_predictions`` solves them with one
eigendecomposition per kernel block (TRKM-R's two systems share the fold's
K, so one) and predicts the fold's validation rows for all cells with matrix
products: labels for classification, values for regression.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import classifier, regressor, rkm
from .classifier import TrkmClassifierHyperparams, TrkmClassifierModel
from .data import CLASSIFY, REGRESS
from .kernels import KernelSpec, gaussian, gram
from .metrics import classification_accuracy, regression_errors
from .regressor import TrkmRegressorModel
from .rkm import RkmModel
from .solver import kernel_spectrum, solve_spectral

# Values of --model-kind and of a benchmark model's "kind".
TRKM = "trkm"
RKM = "rkm"

# Kinds stored in model files.
KIND_CLASSIFIER = "trkm_classifier"
KIND_REGRESSOR = "trkm_regressor"
KIND_RKM = "rkm"

# A decision value within this fraction of the size of the terms summed into
# it is a tie that rounding breaks: its cell is left to the fit.
TIE_RTOL = 1e-12

# A regression cell whose core has a spread d_max/d_min (its condition
# number) above this is left to the fit. Rounding in the spectral solve grows
# with the spread: at 1e12 (sigma=32, gamma=eta=1e-5 on a smooth 150-row
# problem) its RMSE missed the LU one by 2.1e-5 relative, and at 9.6e9 (a
# 104-row crossplane fold) it missed the exact RMSE by 2.5e-6 where LU missed
# by 1.7e-7. Below 1e9 the largest drift seen on the default grid, 5.7e-5 at
# an RMSE of 3.3e-6, is LU's own rounding: LU missed the exact RMSE by 4.6e-5
# there and the spectral solve by 5.8e-6. Labels only need signs, so
# classification is not held to it.
SPREAD_LIMIT = 1e9

# Encodings of saved body fields.
ARRAY = "array"
FLOAT = "float"


@dataclass(frozen=True)
class ModelType:
    """One supported (model kind, task) pair.

    ``penalties`` are the scalar hyperparameters saved ahead of the kernel.
    They and the kernel live on ``model.hyperparams`` (an instance of
    ``hyperparams_class``) or, when that is None, on the model itself.
    ``body`` lists the other saved fields in file order with their
    encodings; its first field holds the stored training rows. Each
    ``per_row`` pair names a vector field and the matrix field with one
    row per value of it; those matrix fields share one column count.
    """

    kind: str
    model_kind: str
    task: str
    model_class: type
    hyperparams_class: type | None
    penalties: tuple[str, ...]
    body: tuple[tuple[str, str], ...]
    per_row: tuple[tuple[str, str], ...]
    fit: Callable[[np.ndarray, np.ndarray, dict, KernelSpec], object]
    predict: Callable[[object, np.ndarray], np.ndarray]
    grid_fold: Callable[[np.ndarray, np.ndarray, np.ndarray, KernelSpec],
                        tuple[GridSystem, ...] | None] | None = None


@dataclass(frozen=True)
class GridSystem:
    """One bordered system of a fit on a fold's training rows, for every grid cell.

    A cell whose params give ``penalties(params) = (g, e)`` solves

        (kernel/g + e*I) h + border_sign*b*ones = rhs_fixed + rhs_scaled/g,   sum(h) = rhs_bottom

    and adds ``(cross @ h + offset)/g + b`` to the decision value of each
    validation row; ``cross`` is the kernel between the validation rows and
    the system's rows. A classifier labels a row +1 when its summed decision
    value is at least zero, and a regressor predicts half the sum, as
    ``predict`` does.
    """

    kernel: np.ndarray
    border_sign: int
    rhs_fixed: np.ndarray
    rhs_scaled: np.ndarray
    rhs_bottom: float
    cross: np.ndarray
    offset: np.ndarray
    penalties: Callable[[dict], tuple[float, float]]


def _first_penalties(params: dict) -> tuple[float, float]:
    return params["gamma"], params["eta"]


def _second_penalties(params: dict) -> tuple[float, float]:
    """The second TRKM system takes (gamma, eta) unless gamma2/eta2 set its own."""
    return params.get("gamma2", params["gamma"]), params.get("eta2", params["eta"])


def _twin_hyperparams(params: dict, kernel: KernelSpec) -> TrkmClassifierHyperparams:
    (gamma1, eta1), (gamma2, eta2) = _first_penalties(params), _second_penalties(params)
    return TrkmClassifierHyperparams(gamma1, gamma2, eta1, eta2, kernel)


def _twin_grid_fold(x, y, x_valid, kernel):
    """The class systems of ``classifier.fit_classifier`` and the terms of ``decision_values``."""
    a, b = x[y == 1], x[y == -1]
    if not (len(a) and len(b)):
        return None  # the fit names the empty class
    k_aa, k_ab, k_bb = gram(kernel, a, a), gram(kernel, a, b), gram(kernel, b, b)
    k_va, k_vb = gram(kernel, x_valid, a), gram(kernel, x_valid, b)
    e1, e2 = np.ones(len(a)), np.ones(len(b))
    return (
        GridSystem(k_aa, +1, e1, k_ab @ e2, float(len(b)), k_va, -(k_vb @ e2), _first_penalties),
        GridSystem(k_bb, +1, -e2, -(k_ab.T @ e1), -float(len(a)), k_vb, k_va @ e1,
                   _second_penalties),
    )


def _rkm_grid_fold(x, y, x_valid, kernel):
    """The system of ``rkm.fit_rkm`` and the score of ``rkm.rkm_scores``."""
    if len(x) < 2:
        return None  # the fit refuses it
    zeros = np.zeros(len(x))
    return (GridSystem(gram(kernel, x, x), +1, y, zeros, 0.0, gram(kernel, x_valid, x),
                       np.zeros(len(x_valid)), _first_penalties),)


def _regressor_grid_fold(x, y, x_valid, kernel):
    """The systems of ``regressor.fit_regressor``, both on K, and the terms of its predictor."""
    if len(x) < 2:
        return None  # the fit refuses it
    k, k_v = gram(kernel, x, x), gram(kernel, x_valid, x)
    e = np.ones(len(x))
    ke, k_ve = k @ e, k_v @ e
    return (
        GridSystem(k, -1, -y, ke, float(len(x)), -k_v, k_ve, _first_penalties),
        GridSystem(k, +1, y, ke, float(len(x)), k_v, -k_ve, _second_penalties),
    )


_TWIN_PENALTIES = ("gamma1", "gamma2", "eta1", "eta2")

MODEL_TYPES = (
    ModelType(
        kind=KIND_CLASSIFIER, model_kind=TRKM, task=CLASSIFY,
        model_class=TrkmClassifierModel, hyperparams_class=TrkmClassifierHyperparams,
        penalties=_TWIN_PENALTIES,
        body=(("A", ARRAY), ("B", ARRAY), ("h1", ARRAY), ("b1", FLOAT),
              ("h2", ARRAY), ("b2", FLOAT)),
        per_row=(("h1", "A"), ("h2", "B")),
        fit=lambda x, y, params, kernel: classifier.fit_classifier(
            x[y == 1], x[y == -1], _twin_hyperparams(params, kernel)
        ),
        predict=lambda model, x: classifier.predict_labels(model, x),
        grid_fold=_twin_grid_fold,
    ),
    ModelType(
        kind=KIND_REGRESSOR, model_kind=TRKM, task=REGRESS,
        model_class=TrkmRegressorModel, hyperparams_class=TrkmClassifierHyperparams,
        penalties=_TWIN_PENALTIES,
        body=(("X", ARRAY), ("Y", ARRAY), ("h1", ARRAY), ("b1", FLOAT),
              ("h2", ARRAY), ("b2", FLOAT)),
        per_row=(("Y", "X"), ("h1", "X"), ("h2", "X")),
        fit=lambda x, y, params, kernel: regressor.fit_regressor(
            x, y, _twin_hyperparams(params, kernel)
        ),
        predict=lambda model, x: regressor.predict_regression(model, x),
        grid_fold=_regressor_grid_fold,
    ),
    ModelType(
        kind=KIND_RKM, model_kind=RKM, task=CLASSIFY,
        model_class=RkmModel, hyperparams_class=None,
        penalties=("gamma", "eta"),
        body=(("X", ARRAY), ("y", ARRAY), ("h", ARRAY), ("b", FLOAT)),
        per_row=(("y", "X"), ("h", "X")),
        fit=lambda x, y, params, kernel: rkm.fit_rkm(
            x, y, params["gamma"], params["eta"], kernel
        ),
        predict=lambda model, x: rkm.predict_rkm(model, x),
        grid_fold=_rkm_grid_fold,
    ),
)

_BY_PAIR = {(t.model_kind, t.task): t for t in MODEL_TYPES}
_BY_KIND = {t.kind: t for t in MODEL_TYPES}
_BY_CLASS = {t.model_class: t for t in MODEL_TYPES}


def model_type(model_kind: str, task: str) -> ModelType:
    """The entry of a (model kind, task) pair; ValueError names an unsupported pair."""
    try:
        return _BY_PAIR[(model_kind, task)]
    except (KeyError, TypeError):
        supported = ", ".join(f"{k} with {t}" for k, t in _BY_PAIR)
        raise ValueError(
            f"model kind {model_kind!r} with task {task!r} is not supported "
            f"(supported: {supported})"
        ) from None


def of_kind(kind: str) -> ModelType:
    """The entry of a model-file kind string."""
    try:
        return _BY_KIND[kind]
    except (KeyError, TypeError):
        raise ValueError(f"unknown model kind {kind!r}") from None


def of_model(model) -> ModelType:
    """The entry of a fitted model."""
    try:
        return _BY_CLASS[type(model)]
    except KeyError:
        raise ValueError(f"not a trkm model: {type(model).__name__}") from None


def fit(model_kind: str, task: str, X, y, params: dict, kernel: KernelSpec | None = None):
    """Fit the model of a (model kind, task) pair.

    ``params`` holds ``gamma`` and ``eta`` (and, for TRKM, optionally
    ``gamma2``/``eta2``); the kernel is Gaussian with ``params["sigma"]``
    unless ``kernel`` is given. Classification labels are +/-1.
    """
    entry = model_type(model_kind, task)
    return entry.fit(X, y, params, gaussian(params["sigma"]) if kernel is None else kernel)


def predict(model, X) -> np.ndarray:
    """Labels (+/-1) of a classifier or values of a regressor at each row of X."""
    return of_model(model).predict(model, X)


def fold_predictions(model_kind: str, task: str, X, y, X_valid, sigma: float, cells: list[dict]):
    """Predictions at the rows of ``X_valid`` of every cell fitted on (X, y), without fitting.

    ``cells`` are grid params sharing the Gaussian bandwidth ``sigma``.
    Returns a (rows x cells) matrix, labels for classification and values for
    regression, and a mask of the cells whose solves met every gate of
    ``solve_spectral``; or None when the pair or this fold has no batched
    form. A cell outside the mask must be decided by ``fit``. Besides those
    gates, a classification cell with a tied decision value (``TIE_RTOL``)
    and a regression cell whose spread exceeds ``SPREAD_LIMIT`` fall outside.
    """
    entry = model_type(model_kind, task)
    systems = entry.grid_fold and entry.grid_fold(X, y, X_valid, gaussian(sigma))
    if not systems:
        return None
    decision, size, passed = 0.0, 0.0, np.ones(len(cells), dtype=bool)
    spectra = {}
    for system in systems:
        pairs = [system.penalties(params) for params in cells]
        index = {pair: j for j, pair in enumerate(dict.fromkeys(pairs))}
        column = np.array([index[pair] for pair in pairs])
        gammas, etas = np.array(list(index)).T
        rhs = system.rhs_fixed[:, None] + system.rhs_scaled[:, None] / gammas
        if id(system.kernel) not in spectra:
            spectra[id(system.kernel)] = kernel_spectrum(system.kernel)
        solved = solve_spectral(system.kernel, gammas, etas, system.border_sign, rhs,
                                system.rhs_bottom, spectra[id(system.kernel)])
        passed &= solved.passed[column]
        with np.errstate(all="ignore"):  # a column that failed may hold inf or nan
            term = (system.cross @ solved.h + system.offset[:, None]) / gammas + solved.b
            decision = decision + term[:, column]
            if task == REGRESS:
                passed &= solved.spread[column] <= SPREAD_LIMIT
            else:
                bound = (np.abs(system.cross) @ np.abs(solved.h)
                         + np.abs(system.offset)[:, None]) / gammas + solved.b_size
                size = size + bound[:, column]
    if task == REGRESS:
        return decision / 2.0, passed
    with np.errstate(invalid="ignore"):
        passed &= (np.abs(decision) > TIE_RTOL * size).all(axis=0)
    return np.where(decision >= 0.0, 1, -1), passed


def n_features(model) -> int:
    """Feature count of the rows the model was trained on."""
    return getattr(model, of_model(model).body[0][0]).shape[1]


def score(task: str, pred, truth) -> float:
    """Accuracy in percent (classify) or RMSE (regress)."""
    if task == CLASSIFY:
        return classification_accuracy(pred, truth)
    return regression_errors(pred, truth).rmse


def column_scores(task: str, pred: np.ndarray, truth: np.ndarray) -> list[float]:
    """``score`` of each column of a (rows x cells) prediction matrix.

    Each comes from one array expression that reduces each column in the
    order ``classification_accuracy`` or ``regression_errors`` reduces a
    vector, so the two agree bitwise.
    """
    if task == CLASSIFY:
        return (np.mean(pred == truth[:, None], axis=0) * 100.0).tolist()
    diff = np.ascontiguousarray(pred.T) - truth
    return np.sqrt(np.mean(diff * diff, axis=1)).tolist()
