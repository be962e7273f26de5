"""Train/test splitting, k-fold cross-validation, and exhaustive grid search.

The protocol mirrors the usual benchmark setup: a random 70:30 split,
then five-fold cross-validation over the full penalty/bandwidth grid on
the training side. Grid cells are scored by mean fold accuracy
(classification, percent) or mean fold RMSE (regression). Cells whose fit
hits a singular system are recorded as failures and scored as worst
(-inf accuracy / +inf RMSE) rather than aborting the sweep; best-cell ties
break to the first cell in iteration order (gamma outer, eta middle,
sigma inner, each ascending).

How a cell is solved. The kernel depends only on sigma, so the unit of work
is one (sigma, fold): ``models.fold_predictions`` eigendecomposes each of the
fold's kernel blocks once (K_AA and K_BB for TRKM-C; the fold's K for RKM,
and for TRKM-R, whose two systems share it) and solves every (gamma, eta)
cell of that sigma from the shifted spectrum, then predicts the validation
rows of all cells with matrix products (see ``solver.solve_spectral``) and
scores them (``models.column_scores``: one array expression for all cells).
Each solve is held to the gates of the LU path: the residual of the formed
system within 1e-8 * max(1, |rhs|_inf), the balance row within 1e-6, and a
finite, positive shifted spectrum. A cell that misses a gate at a fold is
refitted there by ``_fit_score``, the LU fit, and that fit alone decides its
score or its error and message. So is a classification cell with a
validation row whose decision value is a tie that rounding breaks
(``models.TIE_RTOL``), and a regression cell whose core's spread
d_max/d_min exceeds ``models.SPREAD_LIMIT``. Labels and errors therefore read
exactly as a per-cell search writes them; regression scores agree with it to
rounding, within the 1e-6 relative the benchmark checks.
"""

from __future__ import annotations

import numbers
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import models
from .arrays import positive_number
from .data import CLASSIFY, REGRESS, Dataset
from .errors import DegenerateSplit, EmptyClass, SingularSystem, TooFewSamples
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


def _largest_remainder(counts: np.ndarray, total: int) -> np.ndarray:
    """Apportion ``total`` across groups proportionally to ``counts``."""
    quotas = total * counts / counts.sum()
    alloc = np.floor(quotas).astype(int)
    remainder = quotas - alloc
    short = total - int(alloc.sum())
    order = np.argsort(-remainder, kind="stable")
    for g in order[:short]:
        alloc[g] += 1
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
        raise TooFewSamples(f"cannot make {k} folds from {n} samples")
    perm = np.random.default_rng(seed).permutation(n)
    base, extra = divmod(n, k)
    folds = []
    start = 0
    for i in range(k):
        size = base + (1 if i < extra else 0)
        valid = np.sort(perm[start:start + size])
        train = np.sort(np.concatenate([perm[:start], perm[start + size:]]))
        folds.append((train, valid))
        start += size
    return folds


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


def _fit_score(x_train, y_train, x_valid, y_valid, params, task, model_kind):
    model = models.fit(model_kind, task, x_train, y_train, params)
    return models.score(task, models.predict(model, x_valid), y_valid)


def grid_search(
    train_set: Dataset,
    grid: GridSpec,
    task: str,
    model_kind: str = TRKM,
    seed: int = 0,
    threads: int = 1,
) -> GridResult:
    """Evaluate every grid cell by k-fold cross-validation on the training set.

    ``threads`` workers share the (sigma, fold) units; the fits that decide
    the cells the units do not vouch for run afterwards, in table order.
    """
    models.model_type(model_kind, task)  # ValueError for an unsupported pair
    if task != train_set.task:
        raise ValueError(f"dataset task is {train_set.task!r}, grid search asked for {task!r}")
    folds = kfold_indices(train_set.n, grid.folds, seed)
    points = _grid_points(grid)
    worst = float("-inf") if task == CLASSIFY else float("inf")
    x, y = train_set.X, np.asarray(train_set.target, dtype=float)
    columns: dict[float, list[int]] = {}
    for i, params in enumerate(points):
        columns.setdefault(params["sigma"], []).append(i)
    units = [(sigma, f) for sigma in columns for f in range(len(folds))]

    def batch(unit) -> dict:
        """Scores at one fold of the cells of one sigma that passed every gate."""
        sigma, f = unit
        train_idx, valid_idx = folds[f]
        found = models.fold_predictions(
            model_kind, task, x[train_idx], y[train_idx], x[valid_idx], sigma,
            [points[i] for i in columns[sigma]],
        )
        if found is None:
            return {}
        predictions, passed = found
        scores = models.column_scores(task, predictions[:, passed], y[valid_idx])
        return {(i, f): score
                for i, score in zip(np.asarray(columns[sigma])[passed].tolist(), scores)}

    fast = {}
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            for scores in pool.map(batch, units):
                fast.update(scores)
    else:
        for unit in units:
            fast.update(batch(unit))

    def eval_cell(i: int, params: dict) -> GridCell:
        scores = []
        for f, (train_idx, valid_idx) in enumerate(folds):
            score = fast.get((i, f))
            if score is None:
                try:
                    score = _fit_score(
                        x[train_idx], y[train_idx], x[valid_idx], y[valid_idx],
                        params, task, model_kind,
                    )
                except (SingularSystem, EmptyClass) as exc:
                    return GridCell(
                        params=params, mean_score=worst,
                        fold_scores=tuple(scores), error=str(exc),
                    )
            scores.append(score)
        return GridCell(
            params=params,
            mean_score=float(np.mean(scores)),
            fold_scores=tuple(scores),
        )

    table = tuple(eval_cell(i, params) for i, params in enumerate(points))

    best = table[0]
    for cell in table[1:]:
        if (task == CLASSIFY and cell.mean_score > best.mean_score) or (
            task == REGRESS and cell.mean_score < best.mean_score
        ):
            best = cell
    return GridResult(
        best_params=best.params,
        best_cv_score=best.mean_score,
        table=table,
        task=task,
    )
