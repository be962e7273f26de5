"""Command-line interface: train, predict, gridsearch, benchmark, stats.

Exit codes: 0 success, 2 usage errors, 3 data errors (unreadable or
malformed files, mismatched columns), 4 numerical failures (singular
systems, degenerate statistics). All result files are written atomically
(temp file + rename) and contain no timestamps, so a rerun with the same
seed produces byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

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
)
from .errors import (
    DATA_ERRORS,
    NUMERIC_ERRORS,
    FeatureCountMismatch,
    ParseError,
)
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
        return linear()
    if sigma is None:
        raise ParseError("--sigma is required for the gaussian kernel")
    return gaussian(sigma)


# The label or target column's load_csv argument (and benchmark-config key).
_COLUMN_KEY = {CLASSIFY: "label_column", REGRESS: "target_column"}


def _load_dataset(args) -> Dataset:
    """The training CSV, min-max normalized unless --no-normalize."""
    flag, column = (
        ("--label-col", args.label_col) if args.task == CLASSIFY
        else ("--target-col", args.target_col)
    )
    if column is None:
        raise ParseError(f"{flag} is required for --task {args.task}")
    dataset = load_csv(
        args.data, **{_COLUMN_KEY[args.task]: _column(column)},
        delimiter=args.delimiter, header=not args.no_header,
    )
    return dataset if args.no_normalize else normalize_minmax(dataset)


def _column(ref: str):
    """Column flags accept a 0-based index or a header name."""
    try:
        return int(ref)
    except ValueError:
        return ref


def _save(model, dataset: Dataset, path: str) -> str:
    """Save a model fitted on ``dataset``; returns its model-file kind."""
    kind = models.of_model(model).kind
    model_io.save_model(
        model_io.SavedModel(
            model=model, kind=kind, task=dataset.task,
            normalization=dataset.normalization, label_mapping=dataset.label_mapping,
        ),
        path,
    )
    return kind


def _fit_report(model) -> str:
    return "\n".join(
        f"{rep.name}: residual {rep.residual_norm:.3e}, "
        f"condition estimate {rep.condition_estimate:.3e}, "
        f"balance sum(h) = {rep.solution[:-1].sum():.9g} (expected {rep.balance_target:g})"
        for rep in model.fit_diag
    )


# ---------------------------------------------------------------------------
# train

def cmd_train(args) -> int:
    dataset = _load_dataset(args)
    kernel = _kernel_from_args(args.kernel, args.sigma)
    params = {"gamma": args.gamma, "eta": args.eta}
    if args.gamma2 is not None:
        params["gamma2"] = args.gamma2
    if args.eta2 is not None:
        params["eta2"] = args.eta2
    model = models.fit(args.model_kind, dataset.task, dataset.X, dataset.target, params, kernel)
    kind = _save(model, dataset, args.model_out)
    print(f"task: {dataset.task}  model: {kind}")
    print(f"data: {args.data} (n={dataset.n}, features={dataset.n_features})")
    print(_fit_report(model))
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

    x, raw_truth, _ = parse_feature_table(
        args.data, None if truth_col is None else _column(truth_col),
        args.delimiter, not args.no_header,
    )
    trained_m = models.n_features(saved.model)
    if x.shape[1] != trained_m:
        raise FeatureCountMismatch(
            f"data has {x.shape[1]} feature columns, model expects {trained_m}"
        )
    if saved.normalization is not None:
        dataset = Dataset(X=x, target=np.zeros(x.shape[0]), task=saved.task)
        x = apply_normalization(dataset, saved.normalization).X

    pred = models.predict(saved.model, x)

    lines = ["prediction"]
    if saved.task == CLASSIFY and saved.label_mapping is not None:
        inverse = {code: raw for raw, code in saved.label_mapping}
        lines += [inverse[int(v)] for v in pred]
    else:
        lines += [repr(float(v)) if saved.task == REGRESS else str(int(v)) for v in pred]
    write_atomic(args.output, "\n".join(lines) + "\n")
    print(f"{len(pred)} predictions written to {args.output}")

    if truth_col is not None:
        if saved.task == CLASSIFY:
            if saved.label_mapping is not None:
                lookup = dict(saved.label_mapping)
                unknown = sorted({t for t in raw_truth if t not in lookup})
                if unknown:
                    raise ParseError(f"truth labels {unknown} unknown to the model")
                truth = np.array([lookup[t] for t in raw_truth], dtype=np.int64)
            else:
                truth, _ = map_labels(raw_truth)
            acc = classification_accuracy(pred, truth)
            print(f"accuracy: {acc:.4f}%")
        else:
            truth = np.array([float(t) for t in raw_truth])
            err = regression_errors(pred, truth)
            print(f"rmse: {err.rmse:.8g}")
            print(f"mae: {err.mae:.8g}")
            print(f"pos_error: {err.pos_error:.8g}")
            print(f"neg_error: {err.neg_error:.8g}")
    return 0


# ---------------------------------------------------------------------------
# gridsearch

def _float_list(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(t) for t in text.split(",") if t.strip())
    except ValueError:
        raise ParseError(f"bad grid list {text!r}") from None


def cmd_gridsearch(args) -> int:
    dataset = _load_dataset(args)
    grid = GridSpec(
        gamma_values=_float_list(args.gamma_grid),
        eta_values=_float_list(args.eta_grid),
        sigma_values=_float_list(args.sigma_grid),
        equal_penalties=not args.per_class_penalties,
        folds=args.folds,
    )
    result = grid_search(
        dataset, grid, dataset.task,
        model_kind=args.model_kind, seed=args.seed, threads=args.threads,
    )
    blob = {
        "task": result.task,
        "model_kind": args.model_kind,
        "seed": args.seed,
        "folds": grid.folds,
        "best_params": result.best_params,
        "best_cv_score": result.best_cv_score,
        "cells": [
            {
                "params": cell.params,
                "mean_score": cell.mean_score,
                "fold_scores": list(cell.fold_scores),
                "error": cell.error,
            }
            for cell in result.table
        ],
    }
    _write_json(args.grid_out, blob)
    print(f"evaluated {len(result.table)} grid cells "
          f"({grid.folds}-fold cross-validation)")
    print(f"best params: {result.best_params}  cv score: {result.best_cv_score:.6g}")
    print(f"grid table written to {args.grid_out}")

    model = models.fit(
        args.model_kind, dataset.task, dataset.X, dataset.target, result.best_params
    )
    _save(model, dataset, args.model_out)
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


def _stats_report(model_names, dataset_names, matrix, better, q_alpha, critical_value):
    ranks = rank_models(matrix, better)
    report = {
        "better": better,
        "models": list(model_names),
        "datasets": list(dataset_names),
        "scores": [[float(v) for v in row] for row in matrix],
        "average_ranks": [float(v) for v in ranks.average_ranks],
    }
    lines = []
    n_datasets, p = matrix.shape
    lines.append(f"{p} models compared over {n_datasets} datasets "
                 f"({'higher' if better == HIGHER else 'lower'} scores are better)")
    lines.append("")
    lines.append("average ranks (1 = best):")
    for name, rank in zip(model_names, ranks.average_ranks):
        lines.append(f"  {name:<24s} {rank:.4f}")

    if n_datasets >= 2:
        fr = friedman_test(ranks, critical_value)
        report["friedman"] = {
            "chi2": fr.chi2, "ff": fr.ff, "df1": fr.df1, "df2": fr.df2,
            "critical_value": fr.critical_value, "reject_null": fr.reject_null,
        }
        lines.append("")
        lines.append(f"friedman: chi2 = {fr.chi2:.4f}, F = {fr.ff:.4f} "
                     f"(df {fr.df1}, {fr.df2})")
        if critical_value is not None:
            verdict = "rejected" if fr.reject_null else "not rejected"
            lines.append(f"null hypothesis {verdict} at critical value {critical_value:g}")

    q = q_alpha if q_alpha is not None else NEMENYI_Q_05.get(p)
    if q is not None:
        cd = nemenyi_cd(p, n_datasets, q)
        report["nemenyi"] = {"q_alpha": q, "critical_difference": cd}
        lines.append(f"nemenyi critical difference (q = {q:g}): {cd:.4f}")

    wtl_rows = []
    lines.append("")
    lines.append("pairwise win-tie-loss (row model vs column model):")
    header = " " * 26 + "".join(f"{name:>18s}" for name in model_names[:-1])
    lines.append(header)
    for i in range(1, p):
        cells = []
        for j in range(i):
            w = win_tie_loss(matrix[:, i], matrix[:, j], better)
            wtl_rows.append({
                "row": model_names[i], "column": model_names[j],
                "wins": w.wins, "ties": w.ties, "losses": w.losses,
                "threshold": w.threshold,
            })
            cells.append(f"[{w.wins:d},{w.ties:d},{w.losses:d}]")
        lines.append(f"  {model_names[i]:<24s}" + "".join(f"{c:>18s}" for c in cells))
    threshold = n_datasets / 2.0 + 1.96 * np.sqrt(n_datasets) / 2.0
    lines.append(f"significance threshold: more than {threshold:.2f} wins")
    report["win_tie_loss"] = wtl_rows
    report["win_threshold"] = threshold
    return "\n".join(lines) + "\n", report


def cmd_stats(args) -> int:
    model_names, dataset_names, matrix = _read_scores(args.scores_file)
    text, report = _stats_report(
        model_names, dataset_names, matrix,
        args.better, args.q_alpha, args.critical_value,
    )
    write_atomic(_out_path(args, "stats_report.txt"), text)
    _write_json(_out_path(args, "stats_report.json"), report)
    sys.stdout.write(text)
    print(f"reports written to {_out_path(args, 'stats_report.txt')} and .json")
    return 0


# ---------------------------------------------------------------------------
# benchmark

def _expect(value, kind: type, where: str):
    """``value`` if it is a ``kind`` (dict or list), else a ValueError naming ``where``."""
    if not isinstance(value, kind):
        wanted = "an object" if kind is dict else "a list"
        raise ValueError(f"{where}: expected {wanted}, got {type(value).__name__}")
    return value


def _load_config(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON ({exc})") from exc
    return _expect(cfg, dict, f"{path}: top level")


def _checked_models(cfg: dict, task: str) -> list:
    """Validate a benchmark config before any fitting; ValueError names the bad key.

    Returns (name, kind, fixed params or None, grid or None) per model.
    """
    if task not in _COLUMN_KEY:
        raise ValueError(f"task: expected {CLASSIFY!r} or {REGRESS!r}, got {task!r}")
    _expect(cfg.get("split", {}), dict, "split")
    datasets = _expect(cfg.get("datasets", []), list, "datasets")
    if not datasets:
        raise ValueError("datasets: need at least one dataset")
    for i, ds_cfg in enumerate(datasets):
        for key in ("path", _COLUMN_KEY[task]):
            if key not in _expect(ds_cfg, dict, f"datasets[{i}]"):
                raise ValueError(f"datasets[{i}]: missing key {key!r}")
    entries = _expect(cfg.get("models", []), list, "models")
    if len(entries) < 2:
        raise ValueError(f"models: need at least two models to compare, got {len(entries)}")
    plans = []
    for i, m_cfg in enumerate(entries):
        where = f"models[{i}]"
        if "name" not in _expect(m_cfg, dict, where):
            raise ValueError(f"{where}: missing key 'name'")
        kind = m_cfg.get("kind", TRKM)
        try:
            models.model_type(kind, task)
        except ValueError as exc:
            raise ValueError(f"{where}.kind: {exc}") from None
        if "fixed" in m_cfg:
            fixed = _expect(m_cfg["fixed"], dict, f"{where}.fixed")
            for key in ("gamma", "eta", "sigma"):
                if key not in fixed:
                    raise ValueError(f"{where}.fixed: missing key {key!r}")
            for key in ("gamma", "eta", "sigma", "gamma2", "eta2"):
                if key in fixed and not positive_number(fixed[key]):
                    raise ValueError(
                        f"{where}.fixed.{key}: expected a finite positive number, "
                        f"got {fixed[key]!r}"
                    )
            plans.append((m_cfg["name"], kind, dict(fixed), None))
            continue
        g_cfg = _expect(m_cfg.get("grid", {}), dict, f"{where}.grid")
        values = [
            tuple(_expect(g_cfg.get(key, list(default)), list, f"{where}.grid.{key}"))
            for key, default in (("gamma", PENALTY_GRID), ("eta", PENALTY_GRID),
                                 ("sigma", SIGMA_GRID))
        ]
        try:
            grid = GridSpec(
                *values, equal_penalties=g_cfg.get("equal_penalties", True),
                folds=g_cfg.get("folds", 5),
            )
        except ValueError as exc:
            raise ValueError(f"{where}.grid: {exc}") from None
        plans.append((m_cfg["name"], kind, None, grid))
    return plans


def _benchmark_dataset(ds_cfg: dict, cfg: dict, task: str, plans: list, args) -> dict:
    """Score every configured model on one dataset; returns per-model scores."""
    column_key = _COLUMN_KEY[task]
    dataset = load_csv(
        ds_cfg["path"], **{column_key: _column(str(ds_cfg[column_key]))},
        delimiter=ds_cfg.get("delimiter", ","), header=ds_cfg.get("header", True),
    )
    split_cfg = cfg.get("split", {})
    seeds = split_cfg.get("seeds", [cfg.get("seed", args.seed)])
    fraction = split_cfg.get("train_fraction", 0.7)
    stratified = split_cfg.get("stratified", task == CLASSIFY)
    normalize = cfg.get("normalize", True)

    per_model: dict[str, list[float]] = {name: [] for name, *_ in plans}
    for seed in seeds:
        train, test = split(
            dataset, SplitSpec(train_fraction=fraction, seed=seed, stratified=stratified)
        )
        if normalize:
            train = normalize_minmax(train)
            test = apply_normalization(test, train.normalization)
        for name, kind, params, grid in plans:
            if grid is not None:
                params = grid_search(
                    train, grid, task, model_kind=kind,
                    seed=seed, threads=args.threads,
                ).best_params
            model = models.fit(kind, task, train.X, train.target, params)
            per_model[name].append(models.score(task, models.predict(model, test.X), test.target))
    return {name: float(np.mean(vals)) for name, vals in per_model.items()}


def cmd_benchmark(args) -> int:
    if args.scores_file is not None:
        model_names, dataset_names, matrix = _read_scores(args.scores_file)
        better = args.better
        failures = []
    else:
        cfg = _load_config(args.config)
        task = cfg.get("task", CLASSIFY)
        plans = _checked_models(cfg, task)
        better = HIGHER if task == CLASSIFY else LOWER
        model_names = [name for name, *_ in plans]
        dataset_names, rows, failures = [], [], []
        for ds_cfg in cfg["datasets"]:
            name = ds_cfg.get("name", ds_cfg["path"])
            try:
                scores = _benchmark_dataset(ds_cfg, cfg, task, plans, args)
            except (*DATA_ERRORS, *NUMERIC_ERRORS) as exc:
                failures.append({"dataset": name, "error": str(exc)})
                print(f"warning: dataset {name} failed: {exc}", file=sys.stderr)
                continue
            dataset_names.append(name)
            rows.append([scores[m] for m in model_names])
        if not rows:
            raise ParseError("every dataset failed; nothing to rank")
        matrix = np.array(rows, dtype=float)

    scores_lines = ["dataset," + ",".join(model_names)]
    for name, row in zip(dataset_names, matrix):
        scores_lines.append(name + "," + ",".join(repr(float(v)) for v in row))
    write_atomic(_out_path(args, "scores.csv"), "\n".join(scores_lines) + "\n")

    text, report = _stats_report(
        model_names, dataset_names, matrix, better, args.q_alpha, args.critical_value
    )
    report["failures"] = failures
    if failures:
        text += "failed datasets:\n" + "".join(
            f"  {f['dataset']}: {f['error']}\n" for f in failures
        )
    write_atomic(_out_path(args, "stats_report.txt"), text)
    _write_json(_out_path(args, "stats_report.json"), report)
    sys.stdout.write(text)
    print(f"score matrix written to {_out_path(args, 'scores.csv')}")
    return 0


# ---------------------------------------------------------------------------
# parser

def _thread_count(text: str) -> int:
    try:
        n = int(text)
    except ValueError:
        n = 0
    if n < 1:
        raise argparse.ArgumentTypeError(f"expected an integer of at least 1, got {text!r}")
    return n


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trkm",
        description="Twin restricted kernel machines: training, prediction, "
                    "grid search, benchmarking, and comparison statistics.",
    )
    parser.add_argument("--seed", type=int, default=0, help="global random seed")
    parser.add_argument("--threads", type=_thread_count, default=1,
                        help="worker threads for grid evaluation")
    parser.add_argument("--output-dir", default=".", help="directory for result files")
    sub = parser.add_subparsers(dest="command", required=True)

    # accept the global flags after the subcommand too; SUPPRESS keeps the
    # subparser from clobbering the top-level defaults when a flag is absent
    global_opts = argparse.ArgumentParser(add_help=False)
    global_opts.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    global_opts.add_argument("--threads", type=_thread_count, default=argparse.SUPPRESS)
    global_opts.add_argument("--output-dir", default=argparse.SUPPRESS)

    common_data = argparse.ArgumentParser(add_help=False)
    common_data.add_argument("--data", required=True, help="CSV file")
    common_data.add_argument("--label-col", help="label column (classification)")
    common_data.add_argument("--target-col", help="target column (regression)")
    common_data.add_argument("--delimiter", default=",")
    common_data.add_argument("--no-header", action="store_true")

    p_train = sub.add_parser("train", parents=[global_opts, common_data],
                             help="fit one model with fixed hyperparameters")
    p_train.add_argument("--task", required=True, choices=(CLASSIFY, REGRESS))
    p_train.add_argument("--model-kind", choices=(TRKM, RKM), default=TRKM)
    p_train.add_argument("--gamma", type=float, required=True,
                         help="weight-norm regularizer (gamma1; also gamma2 unless --gamma2)")
    p_train.add_argument("--eta", type=float, required=True,
                         help="hidden-feature regularizer (eta1; also eta2 unless --eta2)")
    p_train.add_argument("--gamma2", type=float, help="second-system gamma override")
    p_train.add_argument("--eta2", type=float, help="second-system eta override")
    p_train.add_argument("--kernel", choices=(GAUSSIAN, LINEAR), default=GAUSSIAN)
    p_train.add_argument("--sigma", type=float, help="gaussian bandwidth")
    p_train.add_argument("--no-normalize", action="store_true",
                         help="skip min-max feature normalization")
    p_train.add_argument("--model-out", default=None)
    p_train.set_defaults(func=cmd_train)

    p_pred = sub.add_parser("predict", parents=[global_opts],
                            help="predict with a saved model")
    p_pred.add_argument("--model", required=True)
    p_pred.add_argument("--data", required=True)
    p_pred.add_argument("--label-col", help="truth labels for accuracy reporting")
    p_pred.add_argument("--target-col", help="truth targets for error reporting")
    p_pred.add_argument("--delimiter", default=",")
    p_pred.add_argument("--no-header", action="store_true")
    p_pred.add_argument("--output", default=None)
    p_pred.set_defaults(func=cmd_predict)

    p_grid = sub.add_parser("gridsearch", parents=[global_opts, common_data],
                            help="cross-validated grid search, then retrain the best cell")
    p_grid.add_argument("--task", required=True, choices=(CLASSIFY, REGRESS))
    p_grid.add_argument("--model-kind", choices=(TRKM, RKM), default=TRKM)
    p_grid.add_argument("--gamma-grid", default=",".join(repr(v) for v in PENALTY_GRID))
    p_grid.add_argument("--eta-grid", default=",".join(repr(v) for v in PENALTY_GRID))
    p_grid.add_argument("--sigma-grid", default=",".join(repr(v) for v in SIGMA_GRID))
    p_grid.add_argument("--folds", type=int, default=5)
    p_grid.add_argument("--per-class-penalties", action="store_true",
                        help="search gamma/eta per class instead of tying them")
    p_grid.add_argument("--no-normalize", action="store_true")
    p_grid.add_argument("--grid-out", default=None)
    p_grid.add_argument("--model-out", default=None)
    p_grid.set_defaults(func=cmd_gridsearch)

    p_bench = sub.add_parser("benchmark", parents=[global_opts],
                             help="train/score many models over many datasets, then rank")
    group = p_bench.add_mutually_exclusive_group(required=True)
    group.add_argument("--config", help="JSON benchmark configuration")
    group.add_argument("--scores-file",
                       help="precomputed dataset-by-model score CSV (skips training)")
    p_bench.add_argument("--better", choices=(HIGHER, LOWER), default=HIGHER,
                         help="score direction for --scores-file mode")
    p_bench.add_argument("--q-alpha", type=float, default=None)
    p_bench.add_argument("--critical-value", type=float, default=None)
    p_bench.set_defaults(func=cmd_benchmark)

    p_stats = sub.add_parser("stats", parents=[global_opts],
                             help="rank/Friedman/Nemenyi/sign-test on a score CSV")
    p_stats.add_argument("--scores-file", required=True)
    p_stats.add_argument("--better", choices=(HIGHER, LOWER), default=HIGHER)
    p_stats.add_argument("--q-alpha", type=float, default=None)
    p_stats.add_argument("--critical-value", type=float, default=None)
    p_stats.set_defaults(func=cmd_stats)

    return parser


def _apply_default_paths(args) -> None:
    if getattr(args, "model_out", None) is None and hasattr(args, "model_out"):
        args.model_out = _out_path(args, "model.json")
    if getattr(args, "grid_out", None) is None and hasattr(args, "grid_out"):
        args.grid_out = _out_path(args, "grid_results.json")
    if getattr(args, "output", None) is None and hasattr(args, "output"):
        args.output = _out_path(args, "predictions.csv")


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    _apply_default_paths(args)
    try:
        return args.func(args)
    except NUMERIC_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except DATA_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
