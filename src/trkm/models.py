"""The table of model kinds, and the one fitted-model record, fit and predict for all of them.

Each supported (``--model-kind``, task) pair has one entry: TRKM-C
(``trkm``, classify), TRKM-R (``trkm``, regress) and the RKM baseline
(``rkm``, classify). Grid search, the CLI and model files all go through
this table, so no other module decides which model a kind and a task mean.

Every kind is fitted into one ``Model`` record by ``fit`` and predicted from
it by ``predict``; the model modules hold only the math (``systems``,
``decision_terms``, ``decide``) and one fit and one predict hook each. The
hooks remain so that a wrapper installed on their module attributes
(perfbench's tracer) can count each kind's fits and predicts; the entries
call them through those attributes (``classifier.fit_classifier``) each
time they run, never through function objects captured at import.

``fold_predictions`` solves and predicts all grid cells of a fold at once
from the model module's own statement of its systems (``grid_fold``), and
refits any one cell from that statement directly, as the fit and predictor do.
Its cells come as one ``penalty_table``, which a grid search builds once and
passes to every (sigma, fold); each kernel block takes one ``spectral_shift``
at all of the table's columns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import classifier, regressor, rkm
from .arrays import as_matrix, as_vector, positive_number
from .data import CLASSIFY, REGRESS
from .errors import DimensionMismatch
from .kernels import KernelSpec, gaussian
from .metrics import classification_accuracy, rmse
from .solver import (
    BorderedFamily,
    DecisionTerm,
    SolveReport,
    solve_families,
    solve_spectral,
    spectral_shift,
)

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

    ``penalties`` are the scalar hyperparameters saved ahead of the kernel,
    in file order. ``body`` lists the other saved fields in file order with
    their encodings; its first fields hold the stored training rows. Each
    ``per_row`` pair names a vector field and the matrix field with one
    row per value of it; those matrix fields share one column count.
    ``suffixes`` tell the systems apart: system i has the penalties
    ``gamma{s}``, ``eta{s}`` and the solution ``h{s}``, ``b{s}``.
    ``fit(X, y, penalties, kernel)`` is the model module's fit hook: the
    stored rows and one solve report per system; ``predict`` is its predict
    hook. ``grid_fold`` gives the model module's statement of a fold's
    systems and their terms at its validation rows, and raises what the fit
    raises for those rows; ``terms`` gives a fitted model's terms at query
    rows from its fields; ``system_penalties`` picks each system's (gamma,
    eta) from grid params, and ``decide`` is the predictor's rule on the
    summed terms.
    """

    kind: str
    model_kind: str
    task: str
    penalties: tuple[str, ...]
    body: tuple[tuple[str, str], ...]
    per_row: tuple[tuple[str, str], ...]
    suffixes: tuple[str, ...]
    fit: Callable[..., tuple[tuple[np.ndarray, ...], tuple[SolveReport, ...]]]
    predict: Callable[[Model, np.ndarray], np.ndarray]
    grid_fold: Callable[..., tuple[tuple[BorderedFamily, ...], tuple[DecisionTerm, ...]]]
    terms: Callable[[dict, KernelSpec, np.ndarray], tuple[DecisionTerm, ...]]
    system_penalties: tuple[Callable[[dict], tuple[float, float]], ...]
    decide: Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class Model:
    """A fitted model of any kind.

    ``hyperparams`` and ``fields`` hold the penalties and the body fields by
    the names, and in the order, that its model file gives them; ``fit_diag``
    holds one solve report per system after a fit, and None after a load.
    """

    type: ModelType
    hyperparams: dict
    kernel: KernelSpec
    fields: dict
    fit_diag: tuple[SolveReport, ...] | None = None

    def total(self, X) -> np.ndarray:
        """The sum of the kind's decision terms at the rows of X, in system order, each
        term at its own system's gamma, h and b."""
        terms = self.type.terms(self.fields, self.kernel, as_matrix(X, "X"))
        values = [term.value(self.fields[f"h{s}"], self.hyperparams[f"gamma{s}"],
                             self.fields[f"b{s}"]) for term, s in zip(terms, self.type.suffixes)]
        return sum(values[1:], values[0])


def _first_penalties(params: dict) -> tuple[float, float]:
    return params["gamma"], params["eta"]


def _second_penalties(params: dict) -> tuple[float, float]:
    """The second TRKM system takes (gamma, eta) unless gamma2/eta2 set its own."""
    return params.get("gamma2", params["gamma"]), params.get("eta2", params["eta"])


def _twin_grid_fold(x, y, x_valid, kernel):
    a, b = x[y == 1], x[y == -1]
    return classifier.systems(a, b, kernel), classifier.decision_terms(a, b, kernel, x_valid)


def _full_sample_grid_fold(module):
    """``grid_fold`` of a model whose systems run over all of a fold's rows."""
    def grid_fold(x, y, x_valid, kernel):
        return module.systems(x, y, kernel), module.decision_terms(x, kernel, x_valid)
    return grid_fold


_TWIN_PENALTIES = ("gamma1", "gamma2", "eta1", "eta2")
_TWIN_SYSTEMS = (_first_penalties, _second_penalties)

MODEL_TYPES = (
    ModelType(
        kind=KIND_CLASSIFIER, model_kind=TRKM, task=CLASSIFY,
        penalties=_TWIN_PENALTIES,
        body=(("A", ARRAY), ("B", ARRAY), ("h1", ARRAY), ("b1", FLOAT),
              ("h2", ARRAY), ("b2", FLOAT)),
        per_row=(("h1", "A"), ("h2", "B")),
        suffixes=("1", "2"),
        fit=lambda x, y, penalties, kernel: classifier.fit_classifier(x, y, penalties, kernel),
        predict=lambda model, x: classifier.predict_labels(model, x),
        grid_fold=_twin_grid_fold,
        terms=lambda fields, kernel, x: classifier.decision_terms(fields["A"], fields["B"],
                                                                  kernel, x),
        system_penalties=_TWIN_SYSTEMS,
        decide=lambda total: classifier.decide(total),
    ),
    ModelType(
        kind=KIND_REGRESSOR, model_kind=TRKM, task=REGRESS,
        penalties=_TWIN_PENALTIES,
        body=(("X", ARRAY), ("Y", ARRAY), ("h1", ARRAY), ("b1", FLOAT),
              ("h2", ARRAY), ("b2", FLOAT)),
        per_row=(("Y", "X"), ("h1", "X"), ("h2", "X")),
        suffixes=("1", "2"),
        fit=lambda x, y, penalties, kernel: regressor.fit_regressor(x, y, penalties, kernel),
        predict=lambda model, x: regressor.predict_regression(model, x),
        grid_fold=_full_sample_grid_fold(regressor),
        terms=lambda fields, kernel, x: regressor.decision_terms(fields["X"], kernel, x),
        system_penalties=_TWIN_SYSTEMS,
        decide=lambda total: regressor.decide(total),
    ),
    ModelType(
        kind=KIND_RKM, model_kind=RKM, task=CLASSIFY,
        penalties=("gamma", "eta"),
        body=(("X", ARRAY), ("y", ARRAY), ("h", ARRAY), ("b", FLOAT)),
        per_row=(("y", "X"), ("h", "X")),
        suffixes=("",),
        fit=lambda x, y, penalties, kernel: rkm.fit_rkm(x, y, penalties, kernel),
        predict=lambda model, x: rkm.predict_rkm(model, x),
        grid_fold=_full_sample_grid_fold(rkm),
        terms=lambda fields, kernel, x: rkm.decision_terms(fields["X"], kernel, x),
        system_penalties=(_first_penalties,),
        decide=lambda total: rkm.decide(total),
    ),
)

_BY_PAIR = {(t.model_kind, t.task): t for t in MODEL_TYPES}
_BY_KIND = {t.kind: t for t in MODEL_TYPES}


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


def refuse_second_penalties(model_kind: str, task: str, given: list[str]) -> None:
    """ValueError for an unsupported pair, or naming ``given`` for a one-system pair."""
    if len(model_type(model_kind, task).system_penalties) < 2 and given:
        raise ValueError(f"{', '.join(given)}: {model_kind} with {task} states one system, "
                         "so it takes no second-system penalties")


def fit(model_kind: str, task: str, X, y, params: dict, kernel: KernelSpec | None = None) -> Model:
    """Fit the model of a (model kind, task) pair.

    ``params`` holds ``gamma`` and ``eta`` (and, for TRKM, optionally
    ``gamma2``/``eta2``); the kernel is Gaussian with ``params["sigma"]``
    unless ``kernel`` is given. Classification labels are +/-1. X must have
    one row per value of y (named ``Y`` for TRKM-R), and every system's
    penalties must be positive; a ValueError names the first that is not.
    """
    entry = model_type(model_kind, task)
    refuse_second_penalties(model_kind, task, [k for k in ("gamma2", "eta2") if k in params])
    kernel = gaussian(params["sigma"]) if kernel is None else kernel
    target = "Y" if task == REGRESS else "y"
    x, yv = as_matrix(X, "X"), as_vector(y, target)
    if len(yv) != len(x):
        raise DimensionMismatch(f"X has {len(x)} rows but {target} has length {len(yv)}")
    penalties = [system_penalties(params) for system_penalties in entry.system_penalties]
    named = {f"{key}{s}": value for s, pair in zip(entry.suffixes, penalties)
             for key, value in zip(("gamma", "eta"), pair)}
    hyperparams = {name: named[name] for name in entry.penalties}
    for name, value in hyperparams.items():
        if not positive_number(value):
            raise ValueError(f"{name} must be strictly positive, got {value!r}")
    rows, reports = entry.fit(x, yv, penalties, kernel)
    fields = dict(zip([name for name, _ in entry.body], rows))
    for s, rep in zip(entry.suffixes, reports):
        fields.update({f"h{s}": rep.h, f"b{s}": rep.b})
    return Model(entry, hyperparams, kernel, fields, reports)


def predict(model: Model, X) -> np.ndarray:
    """Labels (+/-1) of a classifier or values of a regressor at each row of X."""
    return model.type.predict(model, X)


@dataclass(frozen=True)
class PenaltyTable:
    """The distinct (gamma, eta) pairs of all systems over a list of grid cells as columns
    (``gammas``, ``etas``), and each system's column at each cell (``columns``)."""

    gammas: np.ndarray
    etas: np.ndarray
    columns: tuple[np.ndarray, ...]


def penalty_table(model_kind: str, task: str, cells: list[dict]) -> PenaltyTable:
    """The ``PenaltyTable`` of the systems of a (model kind, task) pair over ``cells``, its
    columns in order of first appearance. On a grid, every system's distinct pairs come out
    in the same order (gamma outer, eta inner), so the columns are each system's own."""
    pairs = [[penalties(params) for params in cells]
             for penalties in model_type(model_kind, task).system_penalties]
    index = {pair: j for j, pair in enumerate(dict.fromkeys(sum(pairs, [])))}
    gammas, etas = np.array(list(index)).T
    return PenaltyTable(gammas, etas, tuple(np.array([index[p] for p in own]) for own in pairs))


def fold_predictions(model_kind: str, task: str, X, y, X_valid, sigma: float,
                     table: PenaltyTable):
    """Predictions at the rows of ``X_valid`` of every cell fitted on (X, y), without fitting.

    ``table`` is the ``penalty_table`` of grid cells sharing the Gaussian
    bandwidth ``sigma``. Each kernel block takes one ``spectral_shift`` (one
    ``eigh``) at every column of the table, shared by the systems on
    it. Returns a (rows x cells) matrix, labels for classification and
    values for regression, a mask of the cells whose solves met every gate of
    ``solve_spectral``, and ``refit``. Rows the fit refuses raise its error
    (EmptyClass, TooFewSamples) from the model's statement. A cell outside
    the mask must be decided by ``refit(params)``, the direct solves of the same
    statement: bitwise ``predict(fit(...))``, or its SingularSystem; it
    computes no condition estimate, which nothing reads there. Besides those
    gates, a classification cell with a tied decision value (``TIE_RTOL``)
    and a regression cell whose spread exceeds ``SPREAD_LIMIT`` fall outside.
    """
    entry = model_type(model_kind, task)
    families, terms = entry.grid_fold(X, y, X_valid, gaussian(sigma))
    gammas = table.gammas
    decision, size, passed = 0.0, 0.0, np.ones(len(table.columns[0]), dtype=bool)
    blocks = {id(system.kernel): system.kernel for system in families}
    shifts = {block: spectral_shift(kernel, gammas, table.etas) for block, kernel in blocks.items()}
    for system, term, column in zip(families, terms, table.columns):
        shift = shifts[id(system.kernel)]
        solved = solve_spectral(system.kernel, system.border_sign, system.rhs_top(gammas),
                                system.rhs_bottom, shift)
        passed &= solved.passed[column]
        with np.errstate(all="ignore"):  # a column that failed may hold inf or nan
            decision = decision + term.value(solved.h, gammas, solved.b)[:, column]
            if task == REGRESS:
                passed &= shift.spread[column] <= SPREAD_LIMIT
            else:
                bound = (np.abs(term.cross) @ np.abs(term.weights(solved.h))
                         + np.abs(term.offset)[:, None]) / gammas + solved.b_size
                size = size + bound[:, column]
    if task == CLASSIFY:
        with np.errstate(invalid="ignore"):
            passed &= (np.abs(decision) > TIE_RTOL * size).all(axis=0)

    def refit(params: dict) -> np.ndarray:
        penalties = [system_penalties(params) for system_penalties in entry.system_penalties]
        values = [term.value(rep.h, gamma, rep.b) for term, rep, (gamma, _)
                  in zip(terms, solve_families(families, penalties, estimate=False), penalties)]
        return entry.decide(sum(values[1:], values[0]))

    return entry.decide(decision), passed, refit


def n_features(model: Model) -> int:
    """Feature count of the rows the model was trained on."""
    return model.fields[model.type.body[0][0]].shape[1]


def score(task: str, pred, truth) -> float:
    """Accuracy in percent (classify) or RMSE (regress)."""
    if task == CLASSIFY:
        return classification_accuracy(pred, truth)
    return rmse(pred, truth)


def column_scores(task: str, pred: np.ndarray, truth: np.ndarray) -> list[float]:
    """``score`` of each column of a (rows x cells) prediction matrix.

    Each comes from one array expression that reduces each column in the
    order ``classification_accuracy`` or ``rmse`` reduces a vector, so the
    two agree bitwise.
    """
    if task == CLASSIFY:
        return (np.mean(pred == truth[:, None], axis=0) * 100.0).tolist()
    diff = np.ascontiguousarray(pred.T) - truth
    return np.sqrt(np.mean(diff * diff, axis=1)).tolist()
