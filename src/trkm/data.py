"""Dataset ingestion and min-max normalization.

CSV files are read once by the csv module and converted a column at a time:
one ``map(float, ...)`` per feature column. Only a file with a ragged row or
a bad cell is walked row by row, to raise the error of the first one with its
exact line and column; a file that is not UTF-8 is a ParseError naming it. A
column given by index counts from 0. Classification labels are kept as raw
text tokens and mapped to -1/+1 by ascending byte order of their UTF-8
encoding (the smaller token becomes -1); the mapping is recorded on the
dataset and travels with saved models. Features are normalized to [0, 1] per
feature, fitted on training data only; constant features map to 0.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    DimensionMismatch,
    EmptyClass,
    MissingColumn,
    MoreThanTwoClasses,
    NonNumericFeature,
    ParseError,
)

CLASSIFY = "classify"
REGRESS = "regress"


@dataclass(frozen=True)
class Dataset:
    """Immutable sample matrix with labels (+/-1) or continuous targets."""

    X: np.ndarray
    target: np.ndarray
    task: str
    feature_names: tuple[str, ...] | None = None
    normalization: tuple[tuple[float, float], ...] | None = None
    label_mapping: tuple[tuple[str, int], ...] | None = None

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def n_features(self) -> int:
        return self.X.shape[1]

    def subset(self, indices) -> "Dataset":
        idx = np.asarray(indices, dtype=int)
        return replace(self, X=self.X[idx], target=self.target[idx])


def map_labels(raw_labels) -> tuple[np.ndarray, tuple[tuple[str, int], ...]]:
    """Map two distinct raw label tokens to -1/+1 by ascending byte order."""
    tokens = [str(v) for v in raw_labels]
    distinct = _by_bytes(set(tokens))
    if len(distinct) > 2:
        raise MoreThanTwoClasses(
            f"expected two distinct labels, found {len(distinct)}: {distinct}"
        )
    if len(distinct) < 2:
        raise EmptyClass(f"expected two distinct labels, found {distinct}")
    mapping = ((distinct[0], -1), (distinct[1], +1))
    lookup = dict(mapping)
    return np.array([lookup[t] for t in tokens], dtype=np.int64), mapping


def _by_bytes(tokens) -> list[str]:
    return sorted(tokens, key=lambda s: s.encode("utf-8"))


def _read_rows(path: str, delimiter: str) -> list[list[str]]:
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:  # drops a byte-order mark
            return [row for row in csv.reader(fh, delimiter=delimiter)]
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc.reason})") from exc


def _resolve_column(column, names: list[str] | None, arity: int, path: str) -> int:
    if isinstance(column, str):
        if names is None:
            raise MissingColumn(
                f"{path}: column {column!r} referenced by name but header=False"
            )
        if column not in names:
            raise MissingColumn(f"{path}: no column named {column!r} in header {names}")
        return names.index(column)
    idx = int(column)
    if not 0 <= idx < arity:
        raise MissingColumn(f"{path}: column index {column} out of range for {arity} columns")
    return idx


def parse_feature_table(path: str, column, delimiter: str = ",", header: bool = True):
    """Parse a CSV into (X, raw target tokens, feature names).

    ``column`` selects the label/target column by name (requires a header
    row) or 0-based index; all remaining columns must be numeric features.
    With ``column=None`` every column is a feature and the token list is
    empty.
    """
    rows = _read_rows(path, delimiter)
    rows = [r for r in rows if r]  # tolerate trailing blank lines
    names: list[str] | None = None
    first_data_line = 1
    if header:
        if not rows:
            raise ParseError(f"{path}: empty file")
        names = [c.strip() for c in rows[0]]
        rows = rows[1:]
        first_data_line = 2
    if not rows:
        raise ParseError(f"{path}: no data rows")
    arity = len(rows[0] if names is None else names)  # a header's width binds every row
    col_idx = None if column is None else _resolve_column(column, names, arity, path)

    # One map(float, ...) per feature column; a bad row or cell is found by walking the rows.
    if {*map(len, rows)} != {arity}:
        _raise_first_bad_cell(path, rows, arity, col_idx, first_data_line)
    columns = list(zip(*rows))
    try:
        features = [list(map(float, cells)) for j, cells in enumerate(columns) if j != col_idx]
    except ValueError:
        _raise_first_bad_cell(path, rows, arity, col_idx, first_data_line)
    if not features:
        raise ParseError(f"{path}: no feature columns")
    raw_targets = [] if col_idx is None else list(map(str.strip, columns[col_idx]))

    x = np.ascontiguousarray(np.array(features, dtype=float).T)
    if not np.isfinite(x).all():
        bad = np.argwhere(~np.isfinite(x))[0]
        raise ParseError(
            f"{path}: non-finite feature at data row {bad[0] + 1}, feature {bad[1] + 1}"
        )
    feature_names = None
    if names is not None:
        feature_names = tuple(c for j, c in enumerate(names) if j != col_idx)
    return x, raw_targets, feature_names


def _raise_first_bad_cell(path: str, rows, arity: int, col_idx, first_data_line: int):
    """Raise the error of the first ragged row or non-numeric feature cell, in file order."""
    for i, row in enumerate(rows):
        line = first_data_line + i
        if len(row) != arity:
            raise ParseError(f"{path}: line {line} has {len(row)} columns, expected {arity}")
        for j, cell in enumerate(row):
            if j == col_idx:
                continue
            try:
                float(cell)
            except ValueError:
                raise NonNumericFeature(
                    f"{path}: line {line}, column {j + 1}: {cell!r} is not numeric"
                ) from None
    raise AssertionError("no bad row or cell to report")


def load_csv(
    path: str,
    label_column=None,
    target_column=None,
    delimiter: str = ",",
    header: bool = True,
) -> Dataset:
    """Load a delimited text file into a raw (unnormalized) Dataset.

    Exactly one of ``label_column`` (classification) or ``target_column``
    (regression) must be given, as a column name (requires a header row)
    or a 0-based index.
    """
    if (label_column is None) == (target_column is None):
        raise ValueError("give exactly one of label_column or target_column")
    column = label_column if label_column is not None else target_column
    x, raw_targets, feature_names = parse_feature_table(path, column, delimiter, header)

    if label_column is not None:
        try:
            target, mapping = map_labels(raw_targets)
        except (EmptyClass, MoreThanTwoClasses) as exc:  # name the file, the column, 5 labels
            distinct = _by_bytes(set(raw_targets))
            shown = ", ".join(map(repr, distinct[:5])) + (", ..." if len(distinct) > 5 else "")
            raise type(exc)(f"{path}: label column {label_column!r}: expected two distinct "
                            f"labels, found {len(distinct)}: [{shown}]") from None
        return Dataset(
            X=x, target=target, task=CLASSIFY,
            feature_names=feature_names, label_mapping=mapping,
        )
    target = parse_targets(path, raw_targets)
    return Dataset(X=x, target=target, task=REGRESS, feature_names=feature_names)


def parse_targets(path: str, tokens) -> np.ndarray:
    """Regression targets from their raw tokens; ParseError names the file and the bad value."""
    try:
        target = np.array(list(map(float, tokens)), dtype=float)
    except ValueError:
        target = None
    if target is None or not np.isfinite(target).all():
        bad = next(t for t in tokens if not _is_finite_number(t))
        raise ParseError(f"{path}: target value {bad!r} is not a finite number")
    return target


def _is_finite_number(token: str) -> bool:
    try:
        return bool(np.isfinite(float(token)))
    except ValueError:
        return False


def load_feature_matrix(path: str, delimiter: str = ",", header: bool = True):
    """Load a feature-only CSV (no label/target column); returns (X, names)."""
    x, _, names = parse_feature_table(path, None, delimiter, header)
    return x, names


def normalize_minmax(dataset: Dataset, path: str = "data") -> Dataset:
    """Map each feature affinely onto [0, 1]; constant features map to 0. A feature whose
    max - min overflows is a ParseError naming ``path`` and the feature."""
    x = dataset.X
    mins = x.min(axis=0)
    maxs = x.max(axis=0)
    norm = tuple((float(lo), float(hi)) for lo, hi in zip(mins, maxs))
    return replace(dataset, X=_apply(dataset, norm, path), normalization=norm)


def apply_normalization(
    dataset: Dataset, normalization: tuple[tuple[float, float], ...], path: str = "data"
) -> Dataset:
    """Re-apply a recorded per-feature (min, max) transform, e.g. to test data."""
    if len(normalization) != dataset.n_features:
        raise DimensionMismatch(
            f"normalization has {len(normalization)} features, data has {dataset.n_features}"
        )
    return replace(dataset, X=_apply(dataset, normalization, path),
                   normalization=tuple(normalization))


def _apply(dataset: Dataset, normalization, path: str) -> np.ndarray:
    """The scaled features. A value that overflows, as a column's max does (inf/inf) when its
    max - min overflows, is a ParseError naming ``path`` and the feature."""
    x = dataset.X
    out = np.empty_like(x, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        for j, (lo, hi) in enumerate(normalization):
            span = hi - lo
            if span <= 0:
                out[:, j] = 0.0
            else:
                out[:, j] = (x[:, j] - lo) / span
    if not np.isfinite(out).all():
        i, j = np.argwhere(~np.isfinite(out))[0]
        feature = repr(dataset.feature_names[j]) if dataset.feature_names else j + 1
        raise ParseError(f"{path}: feature {feature}: value {float(x[i, j])!r} overflows when "
                         f"scaled to the training range {list(normalization[j])}")
    return out
