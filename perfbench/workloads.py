"""Seeded inputs, command lists and output checks of the three workloads.

Every workload is a list of ``trkm`` command lines run in-process through
``trkm.cli.main``. The benchmark makes the input CSVs from its own seed; the
program only ever sees the files. A *pass* is the workload's commands run
once: its fitting commands (``gridsearch`` or ``train``) make up
``train_cal`` and its ``predict`` commands ``predict_cal``.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

FOLDS = 5
# A grid pass searches three bandwidth columns of the default grid, each with
# the default 11 x 11 (gamma, eta) penalty grid and 5 folds, and each as its
# own ``gridsearch`` command, so a run can time every column several times.
# The columns are 1/16 and 1/2, where fold accuracies react to small changes
# in the kernel (the extremes 1/32 and 32 did not react to a 1% bandwidth
# error), and 32, where the kernel block is closest to singular.
PASS_SIGMAS = ("0.0625", "0.5", "32.0")
COLUMN_CELLS = 11 * 11

# Regression outputs may drift by reordered floating-point sums in a faster
# implementation; classification labels and accuracies may not drift at all.
RTOL = 1e-6
ATOL = 1e-6


def _write_csv(path, header, x, labels):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row, label in zip(x, labels):
            fh.write(",".join(repr(float(v)) for v in row) + f",{label}\n")


def _labels(rng, n, positives):
    """A random order of exactly ``positives`` True and n - positives False.

    Class sizes are fixed, not drawn: TRKM-C factors one system per class,
    so its work grows with the cube of each class size, and a size drawn
    per seed would make the work itself differ between seeds.
    """
    return rng.permutation(n) < positives


def _haberman_like(rng, n):
    """Integer age/year/nodes features, 26.5% positives, heavy overlap."""
    died = _labels(rng, n, round(0.265 * n))
    age = np.round(rng.normal(52.0, 10.5, n) + 1.5 * died).clip(30, 83)
    year = rng.integers(58, 70, n).astype(float)
    nodes = np.round(rng.exponential(np.where(died, 7.0, 2.5))).clip(0, 52)
    return np.column_stack([age, year, nodes]), np.where(died, "2", "1")


def _smooth(rng, n, m):
    """A smooth nonlinear target over [0, 1]^m plus Gaussian noise."""
    x = rng.random((n, m))
    y = np.sin(2.0 * np.pi * x[:, 0]) + x[:, 1] ** 2 - 0.5 * x[:, 2]
    if m > 3:
        y = y + 0.3 * np.cos(np.pi * x[:, 3:].sum(axis=1))
    return x, y + rng.normal(0.0, 0.1, n)


def _two_gaussians(rng, n, m):
    """Two overlapping unit-variance classes of equal size, centres 1.2 apart."""
    pos = _labels(rng, n, n // 2)
    x = rng.normal(0.0, 1.0, (n, m)) + np.where(pos, 0.6, -0.6)[:, None]
    return x, np.where(pos, "pos", "neg")


@dataclass(frozen=True)
class Step:
    """One command of a pass and what its output is checked against."""

    role: str  # "train" (gridsearch or train) or "predict"
    argv: list
    output: str  # file name the command writes, inside the input directory
    task: str = ""  # predict steps: the model's task, its truth file and name
    test: str = ""
    model: str = ""


class GridWorkload:
    """5-fold searches over three sigma columns, then predict on the test split.

    ``commands(d, threads)`` returns the pass's ``Step`` list: one
    ``gridsearch`` per column of ``PASS_SIGMAS``, then a ``predict`` with
    each column's best model.
    """

    def __init__(self, name, task, n_train, n_test):
        self.name, self.task = name, task
        self.n_train, self.n_test = n_train, n_test
        self.truth_flag = "--label-col" if task == "classify" else "--target-col"
        self.truth_col = "label" if task == "classify" else "target"

    def write_inputs(self, seed, d):
        rng = np.random.default_rng([seed, 0 if self.task == "classify" else 1])
        for part, n in (("train", self.n_train), ("test", self.n_test)):
            if self.task == "classify":
                x, y = _haberman_like(rng, n)
                header = ["age", "year", "nodes", "label"]
            else:
                x, y = _smooth(rng, n, 3)
                header = ["f0", "f1", "f2", "target"]
                y = [repr(float(v)) for v in y]
            _write_csv(os.path.join(d, f"{part}.csv"), header, x, y)
        return {"train": [self.n_train, x.shape[1]], "test": [self.n_test, x.shape[1]]}

    def commands(self, d, threads):
        test = os.path.join(d, "test.csv")
        searches, predicts = [], []
        for k, sigma in enumerate(PASS_SIGMAS):
            grid, model, pred = f"grid{k}.json", f"model{k}.json", f"pred{k}.csv"
            searches.append(Step("train", [
                "gridsearch", "--task", self.task, "--threads", str(threads),
                "--data", os.path.join(d, "train.csv"), self.truth_flag, self.truth_col,
                "--sigma-grid", sigma, "--grid-out", os.path.join(d, grid),
                "--model-out", os.path.join(d, model),
            ], grid))
            predicts.append(Step("predict", [
                "predict", "--model", os.path.join(d, model),
                "--data", test, self.truth_flag, self.truth_col,
                "--output", os.path.join(d, pred),
            ], pred, self.task, test, f"sigma{sigma}"))
        return searches + predicts


class TrainPredictWorkload:
    """Fixed-parameter train and predict of TRKM-C, RKM and TRKM-R at n=2000."""

    name = "train_predict"
    n, m = 2000, 8
    models = (
        ("trkm_c", "classify", "trkm"),
        ("rkm", "classify", "rkm"),
        ("trkm_r", "regress", "trkm"),
    )

    def write_inputs(self, seed, d):
        rng = np.random.default_rng([seed, 2])
        header_c = [f"f{j}" for j in range(self.m)] + ["label"]
        header_r = [f"f{j}" for j in range(self.m)] + ["target"]
        for part in ("train", "test"):
            x, y = _two_gaussians(rng, self.n, self.m)
            _write_csv(os.path.join(d, f"c_{part}.csv"), header_c, x, y)
            x, y = _smooth(rng, self.n, self.m)
            _write_csv(os.path.join(d, f"r_{part}.csv"), header_r, x, [repr(float(v)) for v in y])
        return {"train": [self.n, self.m], "test": [self.n, self.m]}

    def commands(self, d, threads):
        train, predict = [], []
        for model, task, kind in self.models:
            prefix = "c" if task == "classify" else "r"
            flag, col = ("--label-col", "label") if task == "classify" else ("--target-col", "target")
            path = os.path.join(d, f"{model}.json")
            test = os.path.join(d, f"{prefix}_test.csv")
            train.append(Step("train", [
                "train", "--task", task, "--model-kind", kind,
                "--data", os.path.join(d, f"{prefix}_train.csv"), flag, col,
                "--gamma", "1", "--eta", "0.1", "--sigma", "1", "--model-out", path,
            ], f"{model}.json"))
            predict.append(Step("predict", [
                "predict", "--model", path, "--data", test, flag, col,
                "--output", os.path.join(d, f"pred_{model}.csv"),
            ], f"pred_{model}.csv", task, test, model))
        return train + predict


WORKLOADS = {
    w.name: w
    for w in (
        GridWorkload("grid_classify", "classify", 214, 92),
        GridWorkload("grid_regress", "regress", 150, 64),
        TrainPredictWorkload(),
    )
}


# ---------------------------------------------------------------------------
# reading and checking outputs


def _read_truth(path):
    with open(path, encoding="utf-8") as fh:
        return [line.rstrip("\n").rsplit(",", 1)[1] for line in fh.readlines()[1:]]


def read_predictions(path):
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != "prediction":
        raise ValueError(f"{os.path.basename(path)}: missing prediction header")
    return lines[1:]


def _same(a, b, exact):
    if exact:
        return a == b
    if len(a) != len(b):
        return False
    return bool(np.allclose(np.asarray(a, float), np.asarray(b, float), rtol=RTOL, atol=ATOL))


def cell_key(params):
    return f"{params['gamma']!r},{params['eta']!r},{params['sigma']!r}"


def read_grid(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def check_grid(grid, task, n_cells):
    """Invariants of a grid table that hold for any input; returns problems."""
    problems = []
    cells = grid["cells"]
    if len(cells) != n_cells:
        return [f"grid has {len(cells)} cells, expected {n_cells}"]
    higher = task == "classify"
    best = None
    for cell in cells:
        scores = cell["fold_scores"]
        if cell["error"]:
            if len(scores) >= FOLDS or np.isfinite(cell["mean_score"]):
                problems.append(f"cell {cell_key(cell['params'])}: error cell scored")
        elif len(scores) != FOLDS or not np.isclose(
            cell["mean_score"], np.mean(scores), rtol=1e-12, atol=0.0
        ):
            problems.append(f"cell {cell_key(cell['params'])}: bad fold scores")
        if best is None or (
            cell["mean_score"] > best["mean_score"] if higher
            else cell["mean_score"] < best["mean_score"]
        ):
            best = cell
    if best["params"] != grid["best_params"] or best["mean_score"] != grid["best_cv_score"]:
        problems.append("best_params is not the first best cell of the table")
    return problems


def compare_grid(grid, ref_cells, task):
    """Compare each cell's error status and fold scores with the reference."""
    exact = task == "classify"
    problems = []
    for cell in grid["cells"]:
        key = cell_key(cell["params"])
        ref = ref_cells.get(key)
        if ref is None:
            problems.append(f"cell {key} missing from the reference")
        elif bool(cell["error"]) != ref["error"]:
            problems.append(f"cell {key}: error status {bool(cell['error'])}, reference {ref['error']}")
        elif not _same(cell["fold_scores"], ref["fold_scores"], exact):
            problems.append(f"cell {key}: fold scores differ from the reference")
    return problems


def check_predictions(pred_path, test_path, task, stdout):
    """Count, label set and printed score of one predict command.

    Returns (problems, predictions, score): accuracy in percent for a
    classifier, RMSE for a regressor, recomputed from the written file.
    """
    truth = _read_truth(test_path)
    pred = read_predictions(pred_path)
    if len(pred) != len(truth):
        return [f"{len(pred)} predictions for {len(truth)} rows"], pred, None
    if task == "classify":
        if not set(pred) <= set(truth):
            return [f"unknown labels {sorted(set(pred) - set(truth))}"], pred, None
        score = 100.0 * float(np.mean([p == t for p, t in zip(pred, truth)]))
        printed = f"accuracy: {score:.4f}%"
    else:
        p = np.array([float(v) for v in pred])
        score = float(np.sqrt(np.mean((p - np.array([float(t) for t in truth])) ** 2)))
        printed = f"rmse: {score:.8g}"
    problems = [] if printed in stdout else [f"printed score does not match {printed!r}"]
    return problems, pred, score


def compare_predictions(pred, ref_pred, task):
    if _same(pred, ref_pred, task == "classify"):
        return []
    return ["predictions differ from the reference"]
