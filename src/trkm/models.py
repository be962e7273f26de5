"""The table of model kinds: how each is fitted, predicted, reported and saved.

Each supported (``--model-kind``, task) pair has one entry: TRKM-C
(``trkm``, classify), TRKM-R (``trkm``, regress) and the RKM baseline
(``rkm``, classify). Grid search, the CLI and model files all go through
this table, so no other module decides which model a kind and a task mean.

The entries call the model modules' functions through the module attributes
(``classifier.fit_classifier``) each time they run, never through function
objects captured at import, so a wrapper installed on those attributes sees
every fit and predict.

The classification entries also state a cross-validation fold's systems as
data, for every grid cell at once (``grid_fold``); ``fold_predictions``
solves them with one eigendecomposition per kernel block and predicts the
fold's validation rows for all cells with matrix products.
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
from .solver import solve_spectral

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
    the system's rows. A row is labelled +1 when its summed decision value is
    at least zero, as ``predict`` labels it.
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
    """Labels at the rows of ``X_valid`` of every cell fitted on (X, y), without fitting.

    ``cells`` are grid params sharing the Gaussian bandwidth ``sigma``.
    Returns a (rows x cells) label matrix and a mask of the cells whose
    solves met every gate of ``solve_spectral``, or None when the pair or
    this fold has no batched form. A cell outside the mask must be decided
    by ``fit``.
    """
    entry = model_type(model_kind, task)
    systems = entry.grid_fold and entry.grid_fold(X, y, X_valid, gaussian(sigma))
    if not systems:
        return None
    decision, size, passed = 0.0, 0.0, np.ones(len(cells), dtype=bool)
    for system in systems:
        pairs = [system.penalties(params) for params in cells]
        index = {pair: j for j, pair in enumerate(dict.fromkeys(pairs))}
        column = np.array([index[pair] for pair in pairs])
        gammas, etas = np.array(list(index)).T
        rhs = system.rhs_fixed[:, None] + system.rhs_scaled[:, None] / gammas
        solved = solve_spectral(system.kernel, gammas, etas, system.border_sign, rhs,
                                system.rhs_bottom)
        with np.errstate(all="ignore"):  # a column that failed may hold inf or nan
            term = (system.cross @ solved.h + system.offset[:, None]) / gammas + solved.b
            bound = (np.abs(system.cross) @ np.abs(solved.h) + np.abs(system.offset)[:, None]
                     ) / gammas + solved.b_size
            decision = decision + term[:, column]
            size = size + bound[:, column]
        passed &= solved.passed[column]
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
