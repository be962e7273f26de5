"""Independent references the tests compare the library against.

- ``solve_full_pivot`` and ``augmented``: brute-force oracles sharing no code
  with the library's solve path, Gaussian elimination with complete pivoting
  over an augmented matrix built here from its blocks, in plain Python loops;
  ``system_matrix`` and ``residual`` apply them to a ``BorderedSystem``.
- ``kernel_residual``: the residual a solve reports, written out from the
  system's kernel as ``trkm.solver.residual`` must evaluate it, bitwise where
  the kernel block's K h is K's rows' (every residual that refines or fails);
  ``gemv_drift`` and ``residual_drift`` bound how far a K h taken otherwise
  (a passing residual's ``dsymv`` on a formed block), and the residual from
  it, may round from the gemv's.
- ``separate_array_solve``: a solve of order ``LDL_MIN_ORDER`` or more as it was
  made before kernel blocks held their own factors: a formed copy of the whole
  augmented matrix, ``sytrf``/``sytrs`` on the copy, the pivot ratio of its D,
  and refinement with the residual on the whole contiguous kernel.
- ``bordered_gates`` and ``spectral_gates``: the residual and balance gates as
  ``solve_bordered`` and ``solve_spectral`` each wrote them before the rule was
  stated once in ``trkm.solver.residual_bound`` and ``balance_met``, with the
  balance bound since widened by the rounding of the sum, ``balance_tolerance``.
- ``kernel_eval``: the kernel of one pair of vectors, summed left to right,
  which every entry of ``trkm.kernels.gram`` must equal bitwise.
- ``classifier_slacks`` and ``regressor_slacks``: the fitted error vectors of
  the TRKM systems in kernel form, for the stationarity (eta_i * h_i = xi_i)
  and Fenchel-Young checks.
- ``fit_score``: one grid cell at one fold the plain way, an ordinary fit
  and predict, the per-cell search the batched grid search must agree with.
- ``parse_feature_table``: the CSV parser converting one cell at a time, in
  file order, which ``trkm.data.parse_feature_table`` (one column at a time)
  must match in its result or its exception type and message.
- ``checked_config``: the benchmark-config checker as a chain of ``_known`` and
  ``_field`` calls, one per key, whose ``_Plan`` or ``ValueError`` message
  ``trkm.cli._checked_config`` (one table per config object) must give.
"""

import numpy as np

from trkm import models
from trkm.arrays import positive_number
from trkm.cli import _COLUMN_KEY, _Plan, _column
from trkm.data import CLASSIFY, REGRESS, _read_rows, _resolve_column
from trkm.errors import DimensionMismatch, NonNumericFeature, ParseError
from trkm.kernels import LINEAR, gram
from trkm.models import TRKM
from trkm.selection import PENALTY_GRID, SIGMA_GRID, GridSpec, SplitSpec
from trkm.solver import (BALANCE_RTOL, RESIDUAL_RTOL, _block_pivots, _sytrf, _sytrf_lwork,
                         _sytrs)


def solve_full_pivot(a, b):
    """Solve a dense square system by Gaussian elimination, full pivoting."""
    a = [list(map(float, row)) for row in np.asarray(a, dtype=float)]
    b = list(map(float, np.asarray(b, dtype=float)))
    n = len(a)
    col_of = list(range(n))  # column permutation bookkeeping
    for step in range(n):
        # locate the largest remaining entry in the active submatrix
        best, bi, bj = 0.0, step, step
        for i in range(step, n):
            for j in range(step, n):
                if abs(a[i][j]) > best:
                    best, bi, bj = abs(a[i][j]), i, j
        if best == 0.0:
            raise ZeroDivisionError("oracle: matrix is singular")
        a[step], a[bi] = a[bi], a[step]
        b[step], b[bi] = b[bi], b[step]
        for row in a:
            row[step], row[bj] = row[bj], row[step]
        col_of[step], col_of[bj] = col_of[bj], col_of[step]
        for i in range(step + 1, n):
            factor = a[i][step] / a[step][step]
            if factor == 0.0:
                continue
            for j in range(step, n):
                a[i][j] -= factor * a[step][j]
            b[i] -= factor * b[step]
    z = [0.0] * n
    for i in range(n - 1, -1, -1):
        acc = b[i]
        for j in range(i + 1, n):
            acc -= a[i][j] * z[j]
        z[i] = acc / a[i][i]
    x = [0.0] * n
    for pos, col in enumerate(col_of):
        x[col] = z[pos]
    return np.array(x)


def augmented(core, border, sign, rhs_top, rhs_bottom):
    """Assemble the bordered augmented matrix/rhs directly from its blocks."""
    core = np.asarray(core, dtype=float)
    border = np.asarray(border, dtype=float)
    n = core.shape[0]
    a = np.zeros((n + 1, n + 1))
    a[:n, :n] = core
    a[:n, n] = sign * border
    a[n, :n] = border
    b = np.concatenate([np.asarray(rhs_top, dtype=float), [float(rhs_bottom)]])
    return a, b


def system_matrix(system):
    """The augmented matrix/rhs of a ``BorderedSystem``: core K/gamma + eta*I, ones border."""
    n = len(system.rhs_top)
    core = np.asarray(system.kernel, dtype=float) / system.gamma + system.eta * np.eye(n)
    return augmented(core, np.ones(n), system.border_sign, system.rhs_top, system.rhs_bottom)


def residual(system, x):
    """Max-abs residual ``|A x - b|_inf`` of a ``BorderedSystem`` at ``x``."""
    a, b = system_matrix(system)
    x = np.asarray(x, dtype=float)
    if x.shape != b.shape:
        raise DimensionMismatch(f"x has length {x.shape[0]}, expected {b.shape[0]}")
    return float(np.max(np.abs(a @ x - b)))


def kernel_residual(system, x):
    """Max-abs residual of a ``BorderedSystem`` at ``x`` = [h; b], on its kernel: the rows
    (K h)/gamma + eta*h + sign*b - rhs_top, then the balance row sum(h) - rhs_bottom."""
    kernel = np.asarray(system.kernel, dtype=float)
    h, b = np.asarray(x[:-1], dtype=float), system.border_sign * x[-1]
    top = (kernel @ h) / system.gamma + system.eta * h + b - system.rhs_top
    return float(max(np.max(np.abs(top), initial=0.0), abs(h.sum() - system.rhs_bottom)))


def gemv_drift(kernel, h):
    """How far each entry of two evaluations of K h may differ, whatever their summation order:
    each is an n-term dot product within gamma_n (|K| |h|) of the exact one (Higham, Accuracy
    and Stability of Numerical Algorithms, section 3.1), gamma_n = n u / (1 - n u) <= n eps for
    the unit roundoff u = eps / 2, so two are within 2 n eps (|K| |h|)."""
    kernel, h = np.abs(np.asarray(kernel, dtype=float)), np.abs(np.asarray(h, dtype=float))
    return 2 * len(h) * np.finfo(float).eps * (kernel @ h)


def residual_drift(system, x):
    """How far two evaluations of a system's max-abs residual at x = [h; b] may differ when
    their K h round as two dot products do: each row (K h)/gamma + eta*h + b - rhs_top is its
    ``gemv_drift``/gamma plus at most 5 roundings, each within eps of the terms' magnitude
    |K||h|/gamma + eta*|h| + |b| + |rhs_top|, in each evaluation."""
    kernel, h = np.asarray(system.kernel, dtype=float), np.asarray(x[:-1], dtype=float)
    terms = ((np.abs(kernel) @ np.abs(h)) / system.gamma + system.eta * np.abs(h)
             + abs(x[-1]) + np.abs(system.rhs_top))
    return float(np.max(gemv_drift(kernel, h) / system.gamma + 10 * np.finfo(float).eps * terms))


def separate_array_solve(system):
    """(solution, residual_norm, pivot_ratio) of a ``BorderedSystem`` whose kernel still
    holds K, by the separate-array algorithm (see the module docstring)."""
    kernel = np.array(system.kernel, dtype=float)  # a contiguous copy
    gamma, eta, n = system.gamma, system.eta, len(kernel)
    a = np.empty((n + 1, n + 1))
    np.divide(kernel, gamma, out=a[:n, :n])
    a.reshape(-1)[: n * (n + 2) : n + 2] += eta
    a[:n, n] = a[n, :n] = 1.0
    a[n, n] = 0.0
    ldu, piv, _ = _sytrf(a.T, lwork=int(_sytrf_lwork(n + 1)[0]), overwrite_a=1)
    pivots = _block_pivots(ldu, piv)
    rhs_top, rhs_bottom = np.asarray(system.rhs_top, dtype=float), float(system.rhs_bottom)
    tol = RESIDUAL_RTOL * max(1.0, abs(rhs_bottom), float(np.max(np.abs(rhs_top))))

    def res(x):
        return np.concatenate([(kernel @ x[:n]) / gamma + eta * x[:n] + x[n] - rhs_top,
                               [x[:n].sum() - rhs_bottom]])

    x = _sytrs(ldu, piv, np.concatenate([rhs_top, [rhs_bottom]]))[0]
    r = res(x)
    for _ in range(5):
        if float(np.max(np.abs(r))) <= tol:
            break
        x = x - _sytrs(ldu, piv, r)[0]
        r = res(x)
    x[n] *= system.border_sign
    return x, float(np.max(np.abs(r))), float(pivots.max()) / float(pivots.min())


def balance_tolerance(h, rhs_bottom: float) -> float:
    """The balance bound of a solution h: BALANCE_RTOL * max(1, |rhs_bottom|) plus the rounding
    of sum(h), n*eps*|h_1| + ... + n*eps*|h_n| added left to right."""
    rounding = 0.0
    for value in h:
        rounding += len(h) * float(np.finfo(float).eps) * abs(float(value))
    return BALANCE_RTOL * max(1.0, abs(rhs_bottom)) + rounding


def bordered_gates(rhs_top, rhs_bottom: float, res_norm: float, h, total: float):
    """``solve_bordered``'s refinement tolerance, and whether its residual check and its
    balance check raise, for a solution h of max-abs residual ``res_norm`` and sum ``total``."""
    b = np.concatenate([rhs_top, [rhs_bottom]])
    tol = RESIDUAL_RTOL * max(1.0, float(np.max(np.abs(b))))
    return tol, res_norm > tol, abs(total - rhs_bottom) > balance_tolerance(h, rhs_bottom)


def spectral_gates(rhs, rhs_bottom: float, residual, h, balance, ok):
    """``solve_spectral``'s residual ``bound`` and ``passed`` of each column of ``rhs``, whose
    solutions are the columns of ``h``."""
    bound = RESIDUAL_RTOL * np.maximum(max(1.0, abs(rhs_bottom)), np.abs(rhs).max(axis=0))
    tol = np.array([balance_tolerance(column, rhs_bottom) for column in h.T])
    passed = (residual <= bound) & (np.abs(balance - rhs_bottom) <= tol) & ok
    return bound, passed


def kernel_eval(spec, x, y):
    """The kernel of one pair of vectors, summed plainly left to right."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape:
        raise DimensionMismatch(f"vector lengths differ: {x.shape[0]} vs {y.shape[0]}")
    total = 0.0
    for a, b in zip(x.tolist(), y.tolist()):
        total += a * b if spec.family == LINEAR else (a - b) * (a - b)
    if spec.family == LINEAR:
        return total
    return float(np.exp(-total / (2.0 * spec.sigma * spec.sigma)))


def classifier_slacks(model):
    """TRKM-C error vectors xi1 = e1 - phi(A) w1 - e1 b1, xi2 = -e2 - phi(B) w2 - e2 b2.

    The weight vectors are expanded through the kernel, so nothing is
    materialized.
    """
    f, hp = model.fields, model.hyperparams
    a, b = f["A"], f["B"]
    k_aa = gram(model.kernel, a, a)
    k_ab = gram(model.kernel, a, b)
    k_bb = gram(model.kernel, b, b)
    e1 = np.ones(a.shape[0])
    e2 = np.ones(b.shape[0])
    phi_a_w1 = (k_aa @ f["h1"] - k_ab @ e2) / hp["gamma1"]
    phi_b_w2 = (k_bb @ f["h2"] + k_ab.T @ e1) / hp["gamma2"]
    return e1 - phi_a_w1 - e1 * f["b1"], -e2 - phi_b_w2 - e2 * f["b2"]


def regressor_slacks(model):
    """TRKM-R error vectors of the lower and upper functions, in kernel form."""
    f, hp = model.fields, model.hyperparams
    x, y = f["X"], f["Y"]
    k = gram(model.kernel, x, x)
    e = np.ones(x.shape[0])
    phi_w1 = (k @ (e - f["h1"])) / hp["gamma1"]
    phi_w2 = (k @ (f["h2"] - e)) / hp["gamma2"]
    return phi_w1 + e * f["b1"] - y, y - phi_w2 - e * f["b2"]


def fit_score(x_train, y_train, x_valid, y_valid, params, task, model_kind):
    model = models.fit(model_kind, task, x_train, y_train, params)
    return models.score(task, models.predict(model, x_valid), y_valid)


def parse_feature_table(path, column, delimiter=",", header=True):
    """(X, raw target tokens, feature names) of a CSV, one ``float`` call per cell."""
    rows = [r for r in _read_rows(path, delimiter) if r]
    names = None
    first_data_line = 1
    if header:
        if not rows:
            raise ParseError(f"{path}: empty file")
        names = [c.strip() for c in rows[0]]
        rows = rows[1:]
        first_data_line = 2
    if not rows:
        raise ParseError(f"{path}: no data rows")
    arity = len(rows[0] if names is None else names)
    col_idx = None if column is None else _resolve_column(column, names, arity, path)
    features, raw_targets = [], []
    for i, row in enumerate(rows):
        line = first_data_line + i
        if len(row) != arity:
            raise ParseError(f"{path}: line {line} has {len(row)} columns, expected {arity}")
        feat_row = []
        for j, cell in enumerate(row):
            if j == col_idx:
                raw_targets.append(cell.strip())
                continue
            try:
                feat_row.append(float(cell))
            except ValueError:
                raise NonNumericFeature(
                    f"{path}: line {line}, column {j + 1}: {cell!r} is not numeric"
                ) from None
        features.append(feat_row)
    x = np.array(features, dtype=float)
    if x.ndim != 2 or x.shape[1] == 0:
        raise ParseError(f"{path}: no feature columns")
    if not np.isfinite(x).all():
        bad = np.argwhere(~np.isfinite(x))[0]
        raise ParseError(
            f"{path}: non-finite feature at data row {bad[0] + 1}, feature {bad[1] + 1}"
        )
    feature_names = None
    if names is not None:
        feature_names = tuple(c for j, c in enumerate(names) if j != col_idx)
    return x, raw_targets, feature_names


# What a checked config value must be: its test, and the words a message uses.
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
_SEED = (lambda v: type(v) is int and v >= 0, "a non-negative integer")
_SEEDS = (lambda v: _LIST[0](v) and all(map(_SEED[0], v)),
          "a non-empty list of non-negative integers")
_COLUMN = (lambda v: isinstance(v, str) or (type(v) is int and v >= 0),
           "a column name or non-negative index")


def _check(value, rule, where: str):
    """``value`` if it passes ``rule``, else a ValueError naming ``where``."""
    if not rule[0](value):
        raise ValueError(f"{where}: expected {rule[1]}, got {value!r}")
    return value


def _field(obj: dict, where: str, key: str, rule, default=None):
    """``obj[key]``, or ``default`` when it is absent, checked by ``rule``; None: required."""
    if key not in obj and default is None:
        raise ValueError(f"{where}: missing key {key!r}")
    return _check(obj.get(key, default), rule, f"{where}.{key}" if where else key)


def _known(obj: dict, where: str, *keys: str) -> dict:
    """``obj`` if it holds only ``keys``, else a ValueError naming its first other key."""
    for key in obj:
        if key not in keys:
            raise ValueError(f"{f'{where}.{key}' if where else key}: unknown key "
                             f"(expected one of {', '.join(keys)})")
    return obj


def checked_config(cfg: dict, default_seed: int) -> _Plan:
    """Every value of a benchmark config, checked before any fit; ValueError names the key."""
    _known(cfg, "", "task", "seed", "normalize", "split", "datasets", "models")
    task = _field(cfg, "", "task", _TASK, CLASSIFY)
    split_cfg = _known(_field(cfg, "", "split", _OBJECT, {}), "split",
                       "seeds", "train_fraction", "stratified")
    seed = _field(cfg, "", "seed", _SEED, default_seed)
    seeds = _field(split_cfg, "split", "seeds", _SEEDS, [seed])
    fraction = _field(split_cfg, "split", "train_fraction", _POSITIVE, 0.7)
    stratified = _field(split_cfg, "split", "stratified", _BOOL, task == CLASSIFY)
    try:
        splits = tuple(SplitSpec(fraction, s, stratified) for s in seeds)
    except ValueError as exc:
        raise ValueError(f"split: {exc}") from None
    normalize = _field(cfg, "", "normalize", _BOOL, True)

    datasets = []
    for i, ds_cfg in enumerate(_field(cfg, "", "datasets", _LIST, [])):
        where = f"datasets[{i}]"
        _known(_check(ds_cfg, _OBJECT, where), where,
               "path", _COLUMN_KEY[task], "name", "delimiter", "header")
        path = _field(ds_cfg, where, "path", _STRING)
        column = _field(ds_cfg, where, _COLUMN_KEY[task], _COLUMN)
        datasets.append((_field(ds_cfg, where, "name", _NAME, path), {
            "path": path, _COLUMN_KEY[task]: _column(str(column)),
            "delimiter": _field(ds_cfg, where, "delimiter", _CHAR, ","),
            "header": _field(ds_cfg, where, "header", _BOOL, True),
        }))

    entries = _field(cfg, "", "models", _LIST, [])
    if len(entries) < 2:
        raise ValueError(f"models: need at least two models to compare, got {len(entries)}")
    plans = []
    for i, m_cfg in enumerate(entries):
        where = f"models[{i}]"
        _known(_check(m_cfg, _OBJECT, where), where, "name", "kind", "fixed", "grid")
        if "fixed" in m_cfg and "grid" in m_cfg:
            raise ValueError(f"{where}.fixed, {where}.grid: give one of them, not both")
        name = _field(m_cfg, where, "name", _NAME)
        if name in [plan[0] for plan in plans]:
            raise ValueError(f"{where}.name: {name!r} also names an earlier model")
        kind = m_cfg.get("kind", TRKM)
        try:
            models.model_type(kind, task)
        except ValueError as exc:
            raise ValueError(f"{where}.kind: {exc}") from None
        if "fixed" in m_cfg:
            fixed = _known(_field(m_cfg, where, "fixed", _OBJECT), f"{where}.fixed",
                           "gamma", "eta", "sigma", "gamma2", "eta2")
            second = [k for k in ("gamma2", "eta2") if k in fixed]
            models.refuse_second_penalties(kind, task, [f"{where}.fixed.{k}" for k in second])
            keys = ("gamma", "eta", "sigma", *second)
            params = {key: _field(fixed, f"{where}.fixed", key, _POSITIVE) for key in keys}
            plans.append((name, kind, params, None))
            continue
        g_cfg = _known(_field(m_cfg, where, "grid", _OBJECT, {}), f"{where}.grid",
                       "gamma", "eta", "sigma", "equal_penalties", "folds")
        values = [
            tuple(_field(g_cfg, f"{where}.grid", key, _LIST, list(default)))
            for key, default in (("gamma", PENALTY_GRID), ("eta", PENALTY_GRID),
                                 ("sigma", SIGMA_GRID))
        ]
        equal = _field(g_cfg, f"{where}.grid", "equal_penalties", _BOOL, True)
        models.refuse_second_penalties(kind, task,
                                       [] if equal else [f"{where}.grid.equal_penalties"])
        try:
            grid = GridSpec(*values, equal_penalties=equal, folds=g_cfg.get("folds", 5))
        except ValueError as exc:
            raise ValueError(f"{where}.grid: {exc}") from None
        plans.append((name, kind, None, grid))
    return _Plan(task, splits, normalize, tuple(datasets), tuple(plans))
