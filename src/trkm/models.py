"""The table of model kinds, and the one fitted-model record, fit and predict for all of them.

Each supported (``--model-kind``, task) pair has one entry: TRKM-C
(``trkm``, classify), TRKM-R (``trkm``, regress) and the RKM baseline
(``rkm``, classify). Grid search, the CLI and model files all go through
this table, so no other module decides which model a kind and a task mean.

The three model modules state their model with one signature: ``rows(X, y)``
gives the stored training rows in model-file order, ``systems(rows, kernel)``
the bordered systems on them, ``decision_terms(rows, kernel, Xq)`` each
system's term of the decision value at query rows, and ``decide(total)`` the
predictions from the summed terms. Every kind is fitted into one ``Model``
record by ``fit`` and predicted from it by ``predict``, through the module's
fit and predict hooks. The hooks remain so that a wrapper installed on their
module attributes (perfbench's tracer) can count each kind's fits and
predicts; the entries name them, and ``fit`` and ``predict`` look them up on
the module each time they run, never through function objects captured at
import.

``fold_predictions`` solves and predicts all grid cells of a fold at once
from the module's statement (``ModelType.statement``), and refits any one
cell from that statement directly, as the fit and predictor do. Its cells
come as one ``penalty_table``, which a grid search builds once and passes to
every (sigma, fold), and ``solver.solve_spectral`` solves every system of the
statement at all of the table's columns.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import ModuleType

import numpy as np

from . import classifier, regressor, rkm
from .arrays import as_matrix, as_vector, positive_number
from .data import CLASSIFY, REGRESS
from .errors import DimensionMismatch
from .kernels import KernelSpec, gaussian
from .metrics import classification_accuracy, rmse
from .solver import SolveReport, solve_families, solve_spectral

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

    ``module`` states the model (``rows``, ``systems``, ``decision_terms``,
    ``decide``) and holds the fit and predict hooks named ``fit_hook`` and
    ``predict_hook``. ``rows`` names the fields that hold the module's
    ``rows`` in the model file. ``suffixes`` tell the systems apart: system i
    has the penalties ``gamma{s}``, ``eta{s}`` and the solution ``h{s}``,
    ``b{s}``. Each ``per_row`` pair names a vector field and the matrix field
    with one row per value of it; those matrix fields share one column count.
    """

    kind: str
    model_kind: str
    task: str
    module: ModuleType
    rows: tuple[str, ...]
    per_row: tuple[tuple[str, str], ...]
    suffixes: tuple[str, ...]
    fit_hook: str
    predict_hook: str

    @property
    def penalties(self) -> tuple[str, ...]:
        """The scalar hyperparameters saved ahead of the kernel, in file order."""
        return tuple(f"{key}{s}" for key in ("gamma", "eta") for s in self.suffixes)

    @property
    def body(self) -> tuple[tuple[str, str], ...]:
        """The other saved fields in file order with their encodings: the stored rows, then
        each system's solution."""
        return (*[(name, ARRAY) for name in self.rows],
                *[field for s in self.suffixes for field in ((f"h{s}", ARRAY), (f"b{s}", FLOAT))])

    def system_penalties(self, params: dict) -> tuple[tuple[float, float], ...]:
        """Each system's (gamma, eta) from grid params; a second system takes gamma2/eta2
        when given."""
        first = params["gamma"], params["eta"]
        second = params.get("gamma2", first[0]), params.get("eta2", first[1])
        return (first, second)[:len(self.suffixes)]

    def statement(self, X, y, Xq, kernel: KernelSpec):
        """The module's systems on the stored rows of (X, y) and their terms at the rows of
        Xq; raises what the fit raises for those rows."""
        stored = self.module.rows(X, y)
        return self.module.systems(stored, kernel), self.module.decision_terms(stored, kernel, Xq)


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
        stored = tuple(self.fields[name] for name in self.type.rows)
        with np.errstate(over="ignore", invalid="ignore"):  # a far query row: an inf or nan
            terms = self.type.module.decision_terms(stored, self.kernel, as_matrix(X, "X"))
            values = [term.value(self.fields[f"h{s}"], self.hyperparams[f"gamma{s}"],
                                 self.fields[f"b{s}"])
                      for term, s in zip(terms, self.type.suffixes)]
            return sum(values[1:], values[0])


MODEL_TYPES = (
    ModelType(KIND_CLASSIFIER, TRKM, CLASSIFY, classifier, rows=("A", "B"),
              per_row=(("h1", "A"), ("h2", "B")), suffixes=("1", "2"),
              fit_hook="fit_classifier", predict_hook="predict_labels"),
    ModelType(KIND_REGRESSOR, TRKM, REGRESS, regressor, rows=("X", "Y"),
              per_row=(("Y", "X"), ("h1", "X"), ("h2", "X")), suffixes=("1", "2"),
              fit_hook="fit_regressor", predict_hook="predict_regression"),
    ModelType(KIND_RKM, RKM, CLASSIFY, rkm, rows=("X", "y"),
              per_row=(("y", "X"), ("h", "X")), suffixes=("",),
              fit_hook="fit_rkm", predict_hook="predict_rkm"),
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
    if len(model_type(model_kind, task).suffixes) < 2 and given:
        raise ValueError(f"{', '.join(given)}: {model_kind} with {task} states one system, "
                         "so it takes no second-system penalties")


def fit(model_kind: str, task: str, X, y, params: dict, kernel: KernelSpec | None = None) -> Model:
    """Fit the model of a (model kind, task) pair.

    ``params`` holds ``gamma`` and ``eta`` (and, for TRKM, optionally
    ``gamma2``/``eta2``); the kernel is Gaussian with ``params["sigma"]``
    unless ``kernel`` is given. X must have one row per value of y (named
    ``Y`` for TRKM-R), and every system's penalties must be positive; a
    ValueError names the first that is not. Classification labels must be +1
    or -1; a ValueError refuses any other.
    """
    entry = model_type(model_kind, task)
    refuse_second_penalties(model_kind, task, [k for k in ("gamma2", "eta2") if k in params])
    kernel = gaussian(params["sigma"]) if kernel is None else kernel
    target = "Y" if task == REGRESS else "y"
    x, yv = as_matrix(X, "X"), as_vector(y, target)
    if len(yv) != len(x):
        raise DimensionMismatch(f"X has {len(x)} rows but {target} has length {len(yv)}")
    penalties = entry.system_penalties(params)
    hyperparams = dict(zip(entry.penalties, [v for values in zip(*penalties) for v in values]))
    for name, value in hyperparams.items():
        if not positive_number(value):
            raise ValueError(f"{name} must be strictly positive, got {value!r}")
    if task == CLASSIFY and not np.isin(yv, (-1.0, 1.0)).all():
        raise ValueError("labels must be +1 or -1")
    rows, reports = getattr(entry.module, entry.fit_hook)(x, yv, penalties, kernel)
    fields = dict(zip(entry.rows, rows))
    for s, rep in zip(entry.suffixes, reports):
        fields.update({f"h{s}": rep.h, f"b{s}": rep.b})
    return Model(entry, hyperparams, kernel, fields, reports)


def predict(model: Model, X) -> np.ndarray:
    """Labels (+/-1) of a classifier or values of a regressor at each row of X."""
    return getattr(model.type.module, model.type.predict_hook)(model, X)


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
    entry = model_type(model_kind, task)
    pairs = [list(own) for own in zip(*[entry.system_penalties(params) for params in cells])]
    index = {pair: j for j, pair in enumerate(dict.fromkeys(sum(pairs, [])))}
    gammas, etas = np.array(list(index)).T
    return PenaltyTable(gammas, etas, tuple(np.array([index[p] for p in own]) for own in pairs))


def fold_predictions(model_kind: str, task: str, X, y, X_valid, sigma: float,
                     table: PenaltyTable):
    """Predictions at the rows of ``X_valid`` of every cell fitted on (X, y), without fitting.

    ``table`` is the ``penalty_table`` of grid cells sharing the Gaussian
    bandwidth ``sigma``. One ``solve_spectral`` call solves every system at
    every column of the table. Returns a (rows x cells) matrix, labels for
    classification and values for regression, a mask of the cells whose
    solves met every gate of ``solve_spectral``, and ``refit``. Rows the fit refuses raise its error
    (EmptyClass, TooFewSamples) from the model's statement. A cell outside
    the mask must be decided by ``refit(params)``, the direct solves of the same
    statement: bitwise ``predict(fit(...))``, or its SingularSystem. Besides those
    gates, a classification cell with a tied decision value (``TIE_RTOL``)
    and a regression cell whose spread exceeds ``SPREAD_LIMIT`` fall outside.
    """
    entry = model_type(model_kind, task)
    families, terms = entry.statement(X, y, X_valid, gaussian(sigma))
    gammas = table.gammas
    decision, size, passed = 0.0, 0.0, np.ones(len(table.columns[0]), dtype=bool)
    for solved, term, column in zip(solve_spectral(families, gammas, table.etas), terms,
                                    table.columns):
        passed &= solved.passed[column]
        with np.errstate(all="ignore"):  # a column that failed may hold inf or nan
            decision = decision + term.value(solved.h, gammas, solved.b)[:, column]
            if task == REGRESS:
                passed &= solved.spread[column] <= SPREAD_LIMIT
            else:
                bound = (np.abs(term.cross) @ np.abs(term.weights(solved.h))
                         + np.abs(term.offset)[:, None]) / gammas + solved.b_size
                size = size + bound[:, column]
    if task == CLASSIFY:
        with np.errstate(invalid="ignore"):
            passed &= (np.abs(decision) > TIE_RTOL * size).all(axis=0)

    def refit(params: dict) -> np.ndarray:
        penalties = entry.system_penalties(params)
        reports = solve_families(families, penalties)
        with np.errstate(over="ignore", invalid="ignore"):  # as in Model.total
            values = [term.value(rep.h, gamma, rep.b)
                      for term, rep, (gamma, _) in zip(terms, reports, penalties)]
            return entry.module.decide(sum(values[1:], values[0]))

    return entry.module.decide(decision), passed, refit


def n_features(model: Model) -> int:
    """Feature count of the rows the model was trained on."""
    return model.fields[model.type.rows[0]].shape[1]


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
    with np.errstate(over="ignore"):  # an error beyond double range is inf, as in rmse
        diff = np.ascontiguousarray(pred.T) - truth
        return np.sqrt(np.mean(diff * diff, axis=1)).tolist()
