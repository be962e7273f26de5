"""Command-line interface: train, predict, gridsearch, benchmark, stats.

Exit codes: 0 success, 2 usage errors, 3 data errors (unreadable or
malformed files, mismatched columns, an input too large for memory), 4
numerical failures (singular systems, degenerate statistics). All result
files are written atomically (temp file + rename) and contain no timestamps,
so a rerun with the same seed produces byte-identical output, at any BLAS
thread count (``_one_blas_thread``).
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import sys
from typing import NamedTuple

import numpy as np

from . import model_io, models
from .arrays import positive_number
from .data import (
    CLASSIFY,
    REGRESS,
    Dataset,
    apply_normalization,
    load_csv,
    map_labels,
    normalize_minmax,
    parse_feature_table,
    parse_targets,
)
from .errors import EmptyClass, FeatureCountMismatch, ParseError, TooFewSamples, TrkmError
from .kernels import GAUSSIAN, LINEAR, KernelSpec, gaussian, linear
from .metrics import classification_accuracy, regression_errors
from .model_io import write_atomic
from .models import RKM, TRKM
from .selection import (
    PENALTY_GRID,
    SIGMA_GRID,
    GridSpec,
    SplitSpec,
    grid_search,
    split,
)
from .stats import (
    HIGHER,
    LOWER,
    NEMENYI_Q_05,
    friedman_test,
    nemenyi_cd,
    rank_models,
    win_tie_loss,
)


# ---------------------------------------------------------------------------
# atomic output helpers

def _write_json(path: str, obj) -> None:
    write_atomic(path, json.dumps(obj, indent=2) + "\n")


def _out_path(args, name: str) -> str:
    return os.path.join(args.output_dir, name)


# ---------------------------------------------------------------------------
# shared pieces

def _kernel_from_args(kernel: str, sigma: float | None) -> KernelSpec:
    if kernel == LINEAR:
        if sigma is not None:
            raise ValueError("--sigma: the linear kernel has no bandwidth")
        return linear()
    if sigma is None:
        raise ValueError("--sigma is required for the gaussian kernel")
    return gaussian(sigma)


# The label or target column's load_csv argument (and benchmark-config key).
_COLUMN_KEY = {CLASSIFY: "label_column", REGRESS: "target_column"}


def _load_dataset(args) -> Dataset:
    """The training CSV, min-max normalized unless --no-normalize."""
    flag, column = (("--label-col", args.label_col) if args.task == CLASSIFY
                    else ("--target-col", args.target_col))
    if column is None:
        raise ValueError(f"{flag} is required for --task {args.task}")
    dataset = load_csv(args.data, **{_COLUMN_KEY[args.task]: _column(column)},
                       delimiter=args.delimiter, header=not args.no_header)
    return dataset if args.no_normalize else normalize_minmax(dataset, args.data)


def _column(ref: str):
    """A string of ASCII digits is a 0-based column index; any other string, ``-1`` too,
    is a header name."""
    return int(ref) if ref.isascii() and ref.isdigit() else ref


def _save(model, dataset: Dataset, path: str) -> None:
    """Save a model fitted on ``dataset``."""
    saved = model_io.SavedModel(model, dataset.normalization, dataset.label_mapping)
    model_io.save_model(saved, path)


# ---------------------------------------------------------------------------
# train

def cmd_train(args) -> int:
    second = {key: v for key, v in (("gamma2", args.gamma2), ("eta2", args.eta2)) if v is not None}
    models.refuse_second_penalties(args.model_kind, args.task, [f"--{key}" for key in second])
    kernel = _kernel_from_args(args.kernel, args.sigma)
    dataset = _load_dataset(args)
    params = {"gamma": args.gamma, "eta": args.eta, **second}
    try:
        model = models.fit(args.model_kind, dataset.task, dataset.X, dataset.target, params, kernel)
    except TooFewSamples as exc:
        raise TooFewSamples(f"{args.data}: {exc}") from exc
    _save(model, dataset, args.model_out)
    print(f"task: {dataset.task}  model: {model.type.kind}")
    print(f"data: {args.data} (n={dataset.n}, features={dataset.n_features})")
    for rep in model.fit_diag:
        print(f"{rep.name}: residual {rep.residual_norm:.3e}, pivot ratio "
              f"{rep.pivot_ratio:.3e}, balance sum(h) = {rep.h.sum():.9g} "
              f"(expected {rep.balance_target:g})")
    print(f"model written to {args.model_out}")
    return 0


# ---------------------------------------------------------------------------
# predict

def cmd_predict(args) -> int:
    saved = model_io.load_model(args.model)
    truth_col = args.label_col if args.label_col is not None else args.target_col
    if args.label_col is not None and saved.task != CLASSIFY:
        raise ParseError("--label-col given but the model is a regressor")
    if args.target_col is not None and saved.task != REGRESS:
        raise ParseError("--target-col given but the model is a classifier")

    column = None if truth_col is None else _column(truth_col)
    x, raw_truth, names = parse_feature_table(args.data, column, args.delimiter, not args.no_header)
    trained_m = models.n_features(saved.model)
    if x.shape[1] != trained_m:
        raise FeatureCountMismatch(f"{args.data}: data has {x.shape[1]} feature columns, "
                                   f"model {args.model} expects {trained_m}")
    if truth_col is None:
        truth = None
    elif saved.task == REGRESS:
        truth = parse_targets(args.data, raw_truth)
    elif saved.label_mapping is None:
        truth, _ = map_labels(raw_truth)
    else:
        lookup = dict(saved.label_mapping)
        unknown = sorted({t for t in raw_truth if t not in lookup})
        if unknown:
            raise ParseError(f"{args.data}: truth labels {unknown} in column {truth_col!r} "
                             f"unknown to model {args.model}, which knows {list(lookup)}")
        truth = np.array([lookup[t] for t in raw_truth], dtype=np.int64)
    if saved.normalization is not None:
        dataset = Dataset(X=x, target=np.zeros(x.shape[0]), task=saved.task, feature_names=names)
        x = apply_normalization(dataset, saved.normalization, args.data).X

    pred = models.predict(saved.model, x)

    lines = ["prediction"]
    values = pred.tolist()  # Python ints (labels) or floats (regression values)
    if saved.task == CLASSIFY and saved.label_mapping is not None:
        inverse = {code: raw for raw, code in saved.label_mapping}
        lines += [inverse[v] for v in values]
    else:
        lines += map(repr if saved.task == REGRESS else str, values)
    write_atomic(args.output, "\n".join(lines) + "\n")
    print(f"{len(pred)} predictions written to {args.output}")

    if truth is not None and saved.task == CLASSIFY:
        print(f"accuracy: {classification_accuracy(pred, truth):.4f}%")
    elif truth is not None:
        for name, value in vars(regression_errors(pred, truth)).items():
            print(f"{name}: {value:.8g}")
    return 0


# ---------------------------------------------------------------------------
# gridsearch

def cmd_gridsearch(args) -> int:
    models.refuse_second_penalties(args.model_kind, args.task,
                                   ["--per-class-penalties"] if args.per_class_penalties else [])
    dataset = _load_dataset(args)
    grid = GridSpec(args.gamma_grid, args.eta_grid, args.sigma_grid,
                    equal_penalties=not args.per_class_penalties, folds=args.folds)
    result = grid_search(dataset, grid, dataset.task, model_kind=args.model_kind, seed=args.seed,
                         threads=args.threads)
    blob = {
        "task": result.task,
        "model_kind": args.model_kind,
        "seed": args.seed,
        "folds": grid.folds,
        "best_params": result.best_params,
        "best_cv_score": result.best_cv_score,
        "cells": [vars(cell) for cell in result.table],
    }
    _write_json(args.grid_out, blob)
    print(f"evaluated {len(result.table)} grid cells "
          f"({grid.folds}-fold cross-validation)")
    print(f"grid table written to {args.grid_out}")
    try:
        params = result.fit_params()  # raises when every cell failed: there is no best cell
    except EmptyClass as exc:  # every cell stopped at a fold that trains on one class
        raise EmptyClass(f"{args.data}: {exc}") from exc
    print(f"best params: {params}  cv score: {result.best_cv_score:.6g}")
    _save(result.retrain(args.model_kind, dataset), dataset, args.model_out)
    print(f"best model retrained on the full training data: {args.model_out}")
    return 0


# ---------------------------------------------------------------------------
# stats reporting shared by `stats` and `benchmark`

def _read_scores(path: str):
    """A dataset-by-model score CSV: (model names, dataset names, score matrix)."""
    matrix, dataset_names, model_names = parse_feature_table(path, 0)
    if len(model_names) < 2:
        raise ParseError(f"{path}: need a header plus rows of dataset,score,score,...")
    return model_names, dataset_names, matrix


def _write_stats_report(args, model_names, dataset_names, matrix, better, failures=None) -> None:
    """Write and echo the stats report; ``failures`` lists a benchmark's unscored datasets."""
    ranks = rank_models(matrix, better)
    report = {"better": better, "models": list(model_names), "datasets": list(dataset_names),
              "scores": matrix.tolist(), "average_ranks": ranks.average_ranks.tolist()}
    n_datasets, p = matrix.shape
    lines = [f"{p} models compared over {n_datasets} datasets "
             f"({'higher' if better == HIGHER else 'lower'} scores are better)",
             "", "average ranks (1 = best):"]
    lines += [f"  {name:<24s} {rank:.4f}" for name, rank in zip(model_names, ranks.average_ranks)]

    if n_datasets >= 2:
        fr = friedman_test(ranks, args.critical_value)
        report["friedman"] = vars(fr)
        lines += ["", f"friedman: chi2 = {fr.chi2:.4f}, F = {fr.ff:.4f} (df {fr.df1}, {fr.df2})"]
        if args.critical_value is not None:
            verdict = "rejected" if fr.reject_null else "not rejected"
            lines.append(f"null hypothesis {verdict} at critical value {args.critical_value:g}")

    q = args.q_alpha if args.q_alpha is not None else NEMENYI_Q_05.get(p)
    if q is not None:
        cd = nemenyi_cd(p, n_datasets, q)
        report["nemenyi"] = {"q_alpha": q, "critical_difference": cd}
        lines.append(f"nemenyi critical difference (q = {q:g}): {cd:.4f}")

    wtl_rows = []
    lines += ["", "pairwise win-tie-loss (row model vs column model):",
              " " * 26 + "".join(f"{name:>18s}" for name in model_names[:-1])]
    for i in range(1, p):
        cells = []
        for j in range(i):
            w = win_tie_loss(matrix[:, i], matrix[:, j], better)
            wtl_rows.append({"row": model_names[i], "column": model_names[j], **vars(w)})
            cells.append(f"[{w.wins:d},{w.ties:d},{w.losses:d}]")
        lines.append(f"  {model_names[i]:<24s}" + "".join(f"{c:>18s}" for c in cells))
    # every pair's sign-test threshold is the last one's: it depends on the dataset count alone
    lines.append(f"significance threshold: more than {w.threshold:.2f} wins")
    report.update(win_tie_loss=wtl_rows, win_threshold=w.threshold)
    if failures is not None:
        report["failures"] = failures
    if failures:
        lines.append("failed datasets:")
        lines += [f"  {f['dataset']}: {f['error']}" for f in failures]
    text = "\n".join(lines) + "\n"
    write_atomic(_out_path(args, "stats_report.txt"), text)
    _write_json(_out_path(args, "stats_report.json"), report)
    sys.stdout.write(text)


def cmd_stats(args) -> int:
    _write_stats_report(args, *_read_scores(args.scores_file), args.better)
    print(f"reports written to {_out_path(args, 'stats_report.txt')} and .json")
    return 0


# ---------------------------------------------------------------------------
# benchmark

# What a checked config value or flag must be: its test, and the words a message uses.
_OBJECT = (lambda v: isinstance(v, dict), "an object")
_LIST = (lambda v: isinstance(v, list) and len(v) > 0, "a non-empty list")
_TASK = (lambda v: v in (CLASSIFY, REGRESS), f"{CLASSIFY!r} or {REGRESS!r}")
_BOOL = (lambda v: isinstance(v, bool), "true or false")
_STRING = (lambda v: isinstance(v, str), "a string")
# a name is a scores.csv cell, so it holds none of the characters that split or quote one
_NAME = (lambda v: _STRING[0](v) and not set(v) & set(',"\r\n'),
         "a string without commas, quotes or line breaks")
_CHAR = (lambda v: isinstance(v, str) and len(v) == 1, "one character")
_POSITIVE = (positive_number, "a finite positive number")
_FRACTION = (lambda v: positive_number(v) and v < 1, "a number in (0, 1)")
_SEED = (lambda v: type(v) is int and v >= 0, "a non-negative integer")
_SEEDS = (lambda v: _LIST[0](v) and all(map(_SEED[0], v)),
          "a non-empty list of non-negative integers")
_THREADS = (lambda v: type(v) is int and v >= 1, "an integer of at least 1")
_FOLDS = (lambda v: type(v) is int and v >= 2, "an integer of at least 2")
_GRID = (lambda v: isinstance(v, (list, tuple)) and len(v) > 0 and all(map(positive_number, v)),
         "a non-empty list of finite positive numbers")
_COLUMN = (lambda v: isinstance(v, str) or (type(v) is int and v >= 0),
           "a column name or non-negative index")
_KIND = (lambda v: True, "a model kind")  # models.model_type checks it against the task

# Each config object's keys, in the order they are checked: (key, rule, default). A
# _REQUIRED key may not be missing, a missing _ABSENT one stays missing, and the caller
# gives a None default: --seed, or one worked out from values read before.
_REQUIRED, _ABSENT = object(), object()
_TOP_KEYS = (("task", _TASK, CLASSIFY), ("seed", _SEED, None), ("normalize", _BOOL, True),
             ("split", _OBJECT, {}), ("datasets", _LIST, []), ("models", _LIST, []))
_SPLIT_KEYS = (("seeds", _SEEDS, None), ("train_fraction", _FRACTION, 0.7),
               ("stratified", _BOOL, None))
_DATASET_KEYS = {task: (("path", _STRING, _REQUIRED), (column, _COLUMN, _REQUIRED),
                        ("name", _NAME, None), ("delimiter", _CHAR, ","), ("header", _BOOL, True))
                 for task, column in _COLUMN_KEY.items()}
_MODEL_KEYS = (("name", _NAME, _REQUIRED), ("kind", _KIND, TRKM), ("fixed", _OBJECT, _ABSENT),
               ("grid", _OBJECT, {}))
_FIXED_KEYS = (("gamma", _POSITIVE, _REQUIRED), ("eta", _POSITIVE, _REQUIRED),
               ("sigma", _POSITIVE, _REQUIRED), ("gamma2", _POSITIVE, _ABSENT),
               ("eta2", _POSITIVE, _ABSENT))
_GRID_KEYS = (("gamma", _GRID, PENALTY_GRID), ("eta", _GRID, PENALTY_GRID),
              ("sigma", _GRID, SIGMA_GRID), ("equal_penalties", _BOOL, True), ("folds", _FOLDS, 5))


def _check(value, rule, where: str):
    """``value`` if it passes ``rule``, else a ValueError naming ``where``."""
    if not rule[0](value):
        raise ValueError(f"{where}: expected {rule[1]}, got {value!r}")
    return value


def _read(obj: dict, where: str, table, **defaults) -> dict:
    """The values of the config object ``obj`` at ``where``, by ``table``, and ``defaults``
    for its None defaults; a ValueError names an unknown, missing or broken key."""
    prefix, keys = f"{where}." if where else "", [key for key, _, _ in table]
    for key in obj:
        if key not in keys:
            raise ValueError(f"{prefix}{key}: unknown key (expected one of {', '.join(keys)})")
    values = {}
    for key, rule, default in table:
        value = obj.get(key, defaults.get(key, default))
        if value is _REQUIRED:
            raise ValueError(f"{where}: missing key {key!r}")
        if value is not _ABSENT:
            values[key] = _check(value, rule, prefix + key)
    return values


def _load_config(path: str) -> dict:
    try:
        with open(path, encoding="utf-8-sig") as fh:  # drops a byte-order mark
            cfg = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # not UTF-8, not JSON, or too deep
        raise ParseError(f"{path}: invalid JSON ({exc})") from exc
    return _check(cfg, _OBJECT, f"{path}: top level")


class _Plan(NamedTuple):
    """A checked benchmark config."""

    task: str
    splits: tuple[SplitSpec, ...]  # one per seed
    normalize: bool
    datasets: tuple[tuple[str, dict], ...]  # (name, load_csv arguments)
    models: tuple[tuple[str, str, dict | None, GridSpec | None], ...]  # (name, kind, fixed, grid)


def _checked_config(cfg: dict, default_seed: int) -> _Plan:
    """Every value of a benchmark config, checked before any fit; ValueError names the key."""
    top = _read(cfg, "", _TOP_KEYS, seed=default_seed)
    task, column = top["task"], _COLUMN_KEY[top["task"]]
    split_cfg = _read(top["split"], "split", _SPLIT_KEYS, seeds=[top["seed"]],
                      stratified=task == CLASSIFY)
    splits = tuple(SplitSpec(split_cfg["train_fraction"], seed, split_cfg["stratified"])
                   for seed in split_cfg["seeds"])
    datasets = []
    for i, ds_cfg in enumerate(top["datasets"]):
        where = f"datasets[{i}]"
        load_args = _read(_check(ds_cfg, _OBJECT, where), where, _DATASET_KEYS[task],
                          name=ds_cfg.get("path"))
        load_args[column] = _column(str(load_args[column]))
        datasets.append((load_args.pop("name"), load_args))

    if len(top["models"]) < 2:
        raise ValueError(f"models: need at least two models to compare, got {len(top['models'])}")
    plans = []
    for i, m_cfg in enumerate(top["models"]):
        where = f"models[{i}]"
        if "fixed" in _check(m_cfg, _OBJECT, where) and "grid" in m_cfg:
            raise ValueError(f"{where}.fixed, {where}.grid: give one of them, not both")
        entry = _read(m_cfg, where, _MODEL_KEYS)
        name, kind = entry["name"], entry["kind"]
        if name in [plan[0] for plan in plans]:
            raise ValueError(f"{where}.name: {name!r} also names an earlier model")
        try:
            models.model_type(kind, task)
        except ValueError as exc:
            raise ValueError(f"{where}.kind: {exc}") from None
        if "fixed" in entry:
            fixed, grid = _read(entry["fixed"], f"{where}.fixed", _FIXED_KEYS), None
            second = [f"{where}.fixed.{key}" for key in fixed if key.endswith("2")]
        else:
            values = _read(entry["grid"], f"{where}.grid", _GRID_KEYS)
            fixed, grid = None, GridSpec(*(tuple(values[key]) for key in ("gamma", "eta", "sigma")),
                                         values["equal_penalties"], values["folds"],
                                         folds_from=f"{where}.grid.folds")
            second = [] if grid.equal_penalties else [f"{where}.grid.equal_penalties"]
        models.refuse_second_penalties(kind, task, second)
        plans.append((name, kind, fixed, grid))
    return _Plan(task, splits, top["normalize"], tuple(datasets), tuple(plans))


def _benchmark_dataset(load_args: dict, plan: _Plan, threads: int) -> list[float]:
    """Each planned model's mean test score on one dataset, in plan order."""
    dataset = load_csv(**load_args)
    scores = [[] for _ in plan.models]
    for spec in plan.splits:
        train, test = split(dataset, spec)
        if plan.normalize:
            train = normalize_minmax(train, load_args["path"])
            test = apply_normalization(test, train.normalization, load_args["path"])
        for model_scores, (_, kind, params, grid) in zip(scores, plan.models):
            if grid is None:
                model = models.fit(kind, plan.task, train.X, train.target, params)
            else:
                model = grid_search(train, grid, plan.task, model_kind=kind, seed=spec.seed,
                                    threads=threads).retrain(kind, train)
            model_scores.append(models.score(plan.task, models.predict(model, test.X), test.target))
    return [float(np.mean(s)) for s in scores]


def cmd_benchmark(args) -> int:
    if args.scores_file is not None:
        model_names, dataset_names, matrix = _read_scores(args.scores_file)
        better, failures = args.better, []
    else:
        plan = _checked_config(_load_config(args.config), args.seed)
        better = HIGHER if plan.task == CLASSIFY else LOWER
        model_names = [name for name, *_ in plan.models]
        dataset_names, rows, failures = [], [], []
        for name, load_args in plan.datasets:
            try:
                rows.append(_benchmark_dataset(load_args, plan, args.threads))
            except TrkmError as exc:
                if exc.exit_code == 2:  # a usage error ends the run
                    raise
                failures.append({"dataset": name, "error": str(exc)})
                print(f"warning: dataset {name} failed: {exc}", file=sys.stderr)
                continue
            dataset_names.append(name)
        if not rows:
            raise ParseError("datasets: every dataset failed; nothing to rank")
        matrix = np.array(rows, dtype=float)

    scores_lines = ["dataset," + ",".join(model_names)]
    scores_lines += [name + "," + ",".join(repr(float(v)) for v in row)
                     for name, row in zip(dataset_names, matrix)]
    write_atomic(_out_path(args, "scores.csv"), "\n".join(scores_lines) + "\n")
    _write_stats_report(args, model_names, dataset_names, matrix, better, failures)
    print(f"score matrix written to {_out_path(args, 'scores.csv')}")
    return 0


# ---------------------------------------------------------------------------
# parser

def _flag_type(rule, convert=str):
    """An argparse type that converts a flag's text and checks it by a config ``rule``."""
    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            value = None
        if not rule[0](value):
            raise argparse.ArgumentTypeError(f"expected {rule[1]}, got {text!r}")
        return value
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="trkm", description="Twin restricted kernel machines: "
                                     "training, prediction, grid search, benchmarking, and "
                                     "comparison statistics.")
    seed, threads = _flag_type(_SEED, int), _flag_type(_THREADS, int)
    positive = _flag_type(_POSITIVE, float)
    parser.add_argument("--seed", type=seed, default=0, help="global random seed")
    parser.add_argument("--threads", type=threads, default=1,
                        help="worker threads for grid evaluation")
    parser.add_argument("--output-dir", default=".", help="directory for result files")
    sub = parser.add_subparsers(dest="command", required=True)

    # accept the global flags after the subcommand too; SUPPRESS keeps the
    # subparser from clobbering the top-level defaults when a flag is absent
    global_opts = argparse.ArgumentParser(add_help=False)
    global_opts.add_argument("--seed", type=seed, default=argparse.SUPPRESS)
    global_opts.add_argument("--threads", type=threads, default=argparse.SUPPRESS)
    global_opts.add_argument("--output-dir", default=argparse.SUPPRESS)

    common_data = argparse.ArgumentParser(add_help=False)
    common_data.add_argument("--data", required=True, help="CSV file")
    common_data.add_argument("--label-col", help="label column (classification)")
    common_data.add_argument("--target-col", help="target column (regression)")
    common_data.add_argument("--delimiter", type=_flag_type(_CHAR), default=",")
    common_data.add_argument("--no-header", action="store_true")

    model_opts = argparse.ArgumentParser(add_help=False)
    model_opts.add_argument("--task", required=True, choices=(CLASSIFY, REGRESS))
    model_opts.add_argument("--model-kind", choices=(TRKM, RKM), default=TRKM)
    model_opts.add_argument("--no-normalize", action="store_true",
                            help="skip min-max feature normalization")
    model_opts.add_argument("--model-out", default=None)

    stats_opts = argparse.ArgumentParser(add_help=False)
    stats_opts.add_argument("--better", choices=(HIGHER, LOWER), default=HIGHER,
                            help="score direction of a --scores-file")
    stats_opts.add_argument("--q-alpha", type=positive, default=None)
    stats_opts.add_argument("--critical-value", type=positive, default=None)

    p_train = sub.add_parser("train", parents=[global_opts, common_data, model_opts],
                             help="fit one model with fixed hyperparameters")
    p_train.add_argument("--gamma", type=positive, required=True,
                         help="weight-norm regularizer (gamma1; also gamma2 unless --gamma2)")
    p_train.add_argument("--eta", type=positive, required=True,
                         help="hidden-feature regularizer (eta1; also eta2 unless --eta2)")
    p_train.add_argument("--gamma2", type=positive, help="second-system gamma override")
    p_train.add_argument("--eta2", type=positive, help="second-system eta override")
    p_train.add_argument("--kernel", choices=(GAUSSIAN, LINEAR), default=GAUSSIAN)
    p_train.add_argument("--sigma", type=positive, help="gaussian bandwidth")
    p_train.set_defaults(func=cmd_train)

    p_pred = sub.add_parser("predict", parents=[global_opts, common_data],
                            help="predict with a saved model")
    p_pred.add_argument("--model", required=True)
    p_pred.add_argument("--output", default=None)
    p_pred.set_defaults(func=cmd_predict)

    p_grid = sub.add_parser("gridsearch", parents=[global_opts, common_data, model_opts],
                            help="cross-validated grid search, then retrain the best cell")
    grid_list = _flag_type((_GRID[0], "a comma-separated list of finite positive numbers"),
                           lambda text: tuple(float(t) for t in text.split(",") if t.strip()))
    p_grid.add_argument("--gamma-grid", type=grid_list, default=PENALTY_GRID)
    p_grid.add_argument("--eta-grid", type=grid_list, default=PENALTY_GRID)
    p_grid.add_argument("--sigma-grid", type=grid_list, default=SIGMA_GRID)
    p_grid.add_argument("--folds", type=_flag_type(_FOLDS, int), default=5)
    p_grid.add_argument("--per-class-penalties", action="store_true",
                        help="search gamma/eta per class instead of tying them")
    p_grid.add_argument("--grid-out", default=None)
    p_grid.set_defaults(func=cmd_gridsearch)

    p_bench = sub.add_parser("benchmark", parents=[global_opts, stats_opts],
                             help="train/score many models over many datasets, then rank")
    group = p_bench.add_mutually_exclusive_group(required=True)
    group.add_argument("--config", help="JSON benchmark configuration")
    group.add_argument("--scores-file",
                       help="precomputed dataset-by-model score CSV (skips training)")
    p_bench.set_defaults(func=cmd_benchmark)

    p_stats = sub.add_parser("stats", parents=[global_opts, stats_opts],
                             help="rank/Friedman/Nemenyi/sign-test on a score CSV")
    p_stats.add_argument("--scores-file", required=True)
    p_stats.set_defaults(func=cmd_stats)

    return parser


def _apply_default_paths(args) -> None:
    for key, name in (("model_out", "model.json"), ("grid_out", "grid_results.json"),
                      ("output", "predictions.csv")):
        if hasattr(args, key) and getattr(args, key) is None:
            setattr(args, key, _out_path(args, name))


def _one_blas_thread() -> None:
    """Set numpy's and SciPy's OpenBLAS, each through the extension module that links it, to
    one thread, as the count changes a solve's rounding; a missing module or setter is skipped."""
    for module, name in (("numpy._core._multiarray_umath", "scipy_openblas_set_num_threads64_"),
                         ("scipy.linalg._flapack", "scipy_openblas_set_num_threads")):
        if module in sys.modules:
            setter = getattr(ctypes.CDLL(sys.modules[module].__file__), name, None)
            if setter is not None:
                setter.argtypes, setter.restype = [ctypes.c_int], None  # void (int)
                setter(1)


def main(argv=None) -> int:
    _one_blas_thread()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    _apply_default_paths(args)
    try:
        return args.func(args)
    except (TrkmError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return getattr(exc, "exit_code", 2)
    except MemoryError as exc:  # the last resort: no command checks its size beforehand
        source = next(filter(None, (getattr(args, key, None)
                                    for key in ("data", "config", "scores_file"))))
        print(f"error: {source}: not enough memory: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
