"""Train/test splitting, k-fold cross-validation, and exhaustive grid search.

The protocol mirrors the usual benchmark setup: a random 70:30 split,
then five-fold cross-validation over the full penalty/bandwidth grid on
the training side. Grid cells are scored by mean fold accuracy
(classification, percent) or mean fold RMSE (regression). Cells whose fit
hits a singular or non-finite system are recorded as failures and scored as
worst (-inf accuracy / +inf RMSE) rather than aborting the sweep; best-cell
ties break to the first cell in iteration order (gamma outer, eta middle,
sigma inner, each ascending).

How a cell is solved: sigma is the innermost grid axis, so listing k of the L
sigma values is cells k, k+L, k+2L, ..., each listing with the same penalties,
and one ``models.penalty_table`` serves every system and listing. Per (listing,
fold), ``models.fold_predictions`` solves every cell of the listing at once from
the statement in the model's own module, the one its fit and predictor read,
in one ``solver.solve_spectral`` call, and ``models.column_scores`` scores them.
A cell it does not vouch for at a fold is refitted there directly from the same
statement, bitwise ``predict(fit(...))``, and that refit alone decides the
score or the error and message; a cell that failed is not refitted at later
folds. Both solves hold a cell to the same gates, ``solver.residual_bound``
and ``solver.balance_met``. A fold whose statement refuses its rows as the fit
would (an empty class) fails every cell still alive there with the statement's
message. A fold that trains on fewer than 2 rows, which no model can fit, is
TooFewSamples before any statement is built. Labels and errors therefore
read exactly as a per-cell search writes them; regression scores agree with
it to rounding, within the 1e-6 relative the benchmark checks. Scores go into
one (cells x folds) array; a cell's mean is its row of one ``mean(axis=1)``,
bitwise numpy's mean of that row alone, and a failed cell keeps the scores of
the folds before its failure.
"""

from __future__ import annotations

import numbers
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import models
from .arrays import positive_number
from .data import CLASSIFY, Dataset
from .errors import (
    DegenerateSplit,
    EmptyClass,
    NonFiniteSystem,
    SingularSystem,
    TooFewSamples,
    TrkmError,
)
from .models import TRKM

# Published benchmark search ranges: penalties 10^-5..10^5, bandwidth 2^-5..2^5.
PENALTY_GRID = tuple(10.0**k for k in range(-5, 6))
SIGMA_GRID = tuple(2.0**k for k in range(-5, 6))


@dataclass(frozen=True)
class SplitSpec:
    train_fraction: float = 0.7
    seed: int = 0
    stratified: bool = False

    def __post_init__(self):
        if not 0.0 < self.train_fraction < 1.0:
            raise ValueError(f"train_fraction must be in (0, 1), got {self.train_fraction}")


@dataclass(frozen=True)
class GridSpec:
    gamma_values: tuple[float, ...] = PENALTY_GRID
    eta_values: tuple[float, ...] = PENALTY_GRID
    sigma_values: tuple[float, ...] = SIGMA_GRID
    equal_penalties: bool = True
    folds: int = 5
    folds_from: str = field(default="--folds", compare=False)  # what gave ``folds``, for messages

    def __post_init__(self):
        for name in ("gamma_values", "eta_values", "sigma_values"):
            values = getattr(self, name)
            if not values or not all(map(positive_number, values)):
                raise ValueError(
                    f"{name}: expected a non-empty list of finite positive numbers, got {values!r}"
                )
        if not isinstance(self.folds, numbers.Integral) or self.folds < 2:
            raise ValueError(f"folds must be an integer >= 2, got {self.folds!r}")


@dataclass(frozen=True)
class GridCell:
    params: dict
    mean_score: float
    fold_scores: tuple[float, ...]
    error: str = ""


@dataclass(frozen=True)
class GridResult:
    best_params: dict
    best_cv_score: float
    table: tuple[GridCell, ...] = field(repr=False)
    task: str = CLASSIFY
    # when every cell failed: the first cell's error class, with a message naming its params,
    # or, when a fold that trains on one class stopped them all, naming that fold and the class
    failure: TrkmError | None = field(default=None, compare=False)

    def fit_params(self) -> dict:
        """``best_params``, unless every cell failed: then ``failure`` is raised."""
        if self.failure is not None:
            raise self.failure
        return self.best_params

    def retrain(self, model_kind: str, dataset: Dataset):
        """The best cell's model fitted on all of ``dataset``; a fit that fails raises its
        error class with a message naming the cell."""
        params = self.fit_params()
        try:
            return models.fit(model_kind, self.task, dataset.X, dataset.target, params)
        except TrkmError as exc:  # every fold vouched for the cell, the full set did not
            raise type(exc)(f"best cell {params} could not be retrained on all {dataset.n} "
                            f"training rows: {exc}") from exc


def _largest_remainder(counts: np.ndarray, total: int) -> np.ndarray:
    """Apportion ``total`` across groups proportionally to ``counts``."""
    quotas = total * counts / counts.sum()
    alloc = np.floor(quotas).astype(int)
    short = total - int(alloc.sum())
    alloc[np.argsort(alloc - quotas, kind="stable")[:short]] += 1  # the largest remainders
    return alloc


def split(dataset: Dataset, spec: SplitSpec) -> tuple[Dataset, Dataset]:
    """Deterministic random partition; stratified mode preserves class ratio."""
    n = dataset.n
    if n < 2:
        raise DegenerateSplit(f"cannot split {n} samples")
    n_train = int(np.floor(spec.train_fraction * n))
    if n_train == 0 or n_train == n:
        raise DegenerateSplit(
            f"fraction {spec.train_fraction} leaves an empty side for n={n}"
        )
    rng = np.random.default_rng(spec.seed)
    if not spec.stratified:
        perm = rng.permutation(n)
        train_idx = np.sort(perm[:n_train])
        test_idx = np.sort(perm[n_train:])
    else:
        if dataset.task != CLASSIFY:
            raise ValueError("stratified splitting requires class labels")
        classes = np.array([-1, 1])
        members = [np.flatnonzero(dataset.target == c) for c in classes]
        counts = np.array([len(m) for m in members])
        if (counts == 0).any():
            raise DegenerateSplit("a class has no samples")
        alloc = _largest_remainder(counts, n_train)
        if (alloc == 0).any() or (alloc == counts).any():
            raise DegenerateSplit(
                "stratified split would leave a class absent from train or test"
            )
        train_parts, test_parts = [], []
        for take, idx in zip(alloc, members):
            perm = idx[rng.permutation(len(idx))]
            train_parts.append(perm[:take])
            test_parts.append(perm[take:])
        train_idx = np.sort(np.concatenate(train_parts))
        test_idx = np.sort(np.concatenate(test_parts))
    return dataset.subset(train_idx), dataset.subset(test_idx)


def kfold_indices(n: int, k: int, seed: int = 0) -> list[tuple[np.ndarray, np.ndarray]]:
    """Shuffled k-fold partition of range(n); fold sizes differ by at most 1."""
    if k < 2:
        raise ValueError(f"folds must be >= 2, got {k}")
    if k > n:
        raise TooFewSamples(f"cannot make {k} folds from {n} samples: use fewer folds (--folds)")
    parts = np.array_split(np.random.default_rng(seed).permutation(n), k)
    return [(np.sort(np.concatenate(parts[:i] + parts[i + 1:])), np.sort(part))
            for i, part in enumerate(parts)]


def _grid_points(grid: GridSpec) -> list[dict]:
    gammas = sorted(grid.gamma_values)
    etas = sorted(grid.eta_values)
    sigmas = sorted(grid.sigma_values)
    if grid.equal_penalties:
        return [
            {"gamma": g, "eta": e, "sigma": s}
            for g in gammas for e in etas for s in sigmas
        ]
    return [
        {"gamma": g1, "gamma2": g2, "eta": e1, "eta2": e2, "sigma": s}
        for g1 in gammas for g2 in gammas
        for e1 in etas for e2 in etas
        for s in sigmas
    ]


def grid_search(
    train_set: Dataset,
    grid: GridSpec,
    task: str,
    model_kind: str = TRKM,
    seed: int = 0,
    threads: int = 1,
) -> GridResult:
    """Evaluate every grid cell by k-fold cross-validation on the training set.

    ``threads`` workers share the sigma listings; each runs its folds in order.
    """
    models.refuse_second_penalties(model_kind, task, [] if grid.equal_penalties else
                                   ["per-class penalties"])
    if task != train_set.task:
        raise ValueError(f"dataset task is {train_set.task!r}, grid search asked for {task!r}")
    folds = kfold_indices(train_set.n, grid.folds, seed)
    for f, (train_idx, _) in enumerate(folds):
        if len(train_idx) < 2:
            raise TooFewSamples(f"fold {f + 1} of {grid.folds} trains on {len(train_idx)} row, "
                                f"and a fit needs at least 2: use fewer folds ({grid.folds_from})")
    points = _grid_points(grid)
    worst = float("-inf") if task == CLASSIFY else float("inf")
    x, y = train_set.X, np.asarray(train_set.target, dtype=float)
    listings = len(grid.sigma_values)
    penalties = models.penalty_table(model_kind, task, points[::listings])
    scores = np.full((len(points), len(folds)), np.nan)  # each cell's score at each fold it reaches

    def listing(k: int) -> dict:
        """Fill listing ``k``'s rows of ``scores``; return its failed cells' (fold, error)."""
        cells, sigma, failed = np.arange(k, len(points), listings), points[k]["sigma"], {}
        for f, (train_idx, valid_idx) in enumerate(folds):
            try:
                predictions, passed, refit = models.fold_predictions(
                    model_kind, task, x[train_idx], y[train_idx], x[valid_idx], sigma, penalties)
            except EmptyClass as exc:  # every cell still alive stops at this fold
                failed.update({i: (f, exc) for i in cells.tolist() if i not in failed})
                break
            scores[cells[passed], f] = models.column_scores(task, predictions[:, passed],
                                                            y[valid_idx])
            for i in [i for i in cells[~passed].tolist() if i not in failed]:
                try:
                    scores[i, f] = models.score(task, refit(points[i]), y[valid_idx])
                except (SingularSystem, NonFiniteSystem) as exc:
                    failed[i] = (f, exc)
        return failed

    errors = {}
    with ThreadPoolExecutor(max_workers=threads) as pool:
        for part in (pool.map if threads > 1 else map)(listing, range(listings)):
            errors.update(part)
    table = tuple(GridCell(params, mean, tuple(row)) if i not in errors else
                  GridCell(params, worst, tuple(row[:errors[i][0]]), str(errors[i][1]))
                  for i, (params, mean, row)
                  in enumerate(zip(points, scores.mean(axis=1).tolist(), scores.tolist())))
    failure = None
    if len(errors) == len(points):  # no cell to retrain: the first one's error says why
        f, first = errors[0]
        if all(isinstance(exc, EmptyClass) for _, exc in errors.values()):  # all at fold f
            failure = EmptyClass(_one_class_fold(y, folds[f][0], f, grid))
        else:
            failure = type(first)(f"no grid cell could be fitted; the first, {points[0]}, "
                                  f"failed with: {first}")

    # the first best cell: max and min keep the first of equal scores
    best = (max if task == CLASSIFY else min)(table, key=lambda cell: cell.mean_score)
    return GridResult(best_params=best.params, best_cv_score=best.mean_score, table=table,
                      task=task, failure=failure)


def _one_class_fold(y: np.ndarray, train_idx: np.ndarray, f: int, grid: GridSpec) -> str:
    """Why fold ``f``, which trains on the rows ``train_idx`` of labels ``y``, trains on one
    class: every sample of the other class falls in its validation part. More folds make each
    validation part smaller, so they can part the samples of a class of 2 or more, and no
    number of folds parts a lone one."""
    label = next(c for c in (1.0, -1.0) if not (y[train_idx] == c).any())  # +1 first, as fit
    count, where = int((y == label).sum()), f"fold {f + 1} of {grid.folds} trains on one class"
    if count < 2:
        return (f"no grid cell could be fitted: {where}, as class {label:+g} has {count} "
                f"sample{'s' * (count != 1)}: each class needs 2 or more, whatever the folds")
    return (f"no grid cell could be fitted: {where}, as all {count} samples of class {label:+g} "
            f"validate there: use more folds ({grid.folds_from})")
