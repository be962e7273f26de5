"""The table of model kinds: how each is fitted, predicted, reported and saved.

Each supported (``--model-kind``, task) pair has one entry: TRKM-C
(``trkm``, classify), TRKM-R (``trkm``, regress) and the RKM baseline
(``rkm``, classify). Grid search, the CLI and model files all go through
this table, so no other module decides which model a kind and a task mean.

The entries call the model modules' functions through the module attributes
(``classifier.fit_classifier``) each time they run, never through function
objects captured at import, so a wrapper installed on those attributes sees
every fit and predict.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import classifier, regressor, rkm
from .classifier import TrkmClassifierHyperparams, TrkmClassifierModel
from .data import CLASSIFY, REGRESS
from .kernels import KernelSpec, gaussian
from .metrics import classification_accuracy, regression_errors
from .regressor import TrkmRegressorModel
from .rkm import RkmModel

# Values of --model-kind and of a benchmark model's "kind".
TRKM = "trkm"
RKM = "rkm"

# Kinds stored in model files.
KIND_CLASSIFIER = "trkm_classifier"
KIND_REGRESSOR = "trkm_regressor"
KIND_RKM = "rkm"

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
    row per value of it.
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


def _twin_hyperparams(params: dict, kernel: KernelSpec) -> TrkmClassifierHyperparams:
    """Both systems take (gamma, eta) unless gamma2/eta2 set the second's."""
    return TrkmClassifierHyperparams(
        gamma1=params["gamma"], gamma2=params.get("gamma2", params["gamma"]),
        eta1=params["eta"], eta2=params.get("eta2", params["eta"]),
        kernel=kernel,
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


def n_features(model) -> int:
    """Feature count of the rows the model was trained on."""
    return getattr(model, of_model(model).body[0][0]).shape[1]


def score(task: str, pred, truth) -> float:
    """Accuracy in percent (classify) or RMSE (regress)."""
    if task == CLASSIFY:
        return classification_accuracy(pred, truth)
    return regression_errors(pred, truth).rmse
