import dataclasses
import json
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import trkm.models as models
import trkm.selection as sel
from trkm.data import CLASSIFY, REGRESS, Dataset
from trkm.errors import (
    DegenerateSplit,
    EmptyClass,
    NonFiniteSystem,
    SingularSystem,
    TooFewSamples,
)
from trkm.models import RKM, TRKM
from trkm.selection import (
    GridSpec,
    PENALTY_GRID,
    SIGMA_GRID,
    SplitSpec,
    grid_search,
    kfold_indices,
    split,
)
from trkm.synthetic import blobs, sine

import oracles
from conftest import DATA_DIR


def class_dataset(n_pos, n_neg, seed=0, m=2):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n_pos + n_neg, m))
    y = np.concatenate([np.ones(n_pos, dtype=np.int64), -np.ones(n_neg, dtype=np.int64)])
    return Dataset(X=x, target=y, task=CLASSIFY)


def test_split_sizes_follow_floor():
    ds = class_dataset(6, 4)
    for seed in range(5):
        train, test = split(ds, SplitSpec(0.7, seed=seed))
        assert (train.n, test.n) == (7, 3)


def test_split_is_deterministic_and_exact_partition():
    ds = class_dataset(12, 8)
    a1, b1 = split(ds, SplitSpec(0.7, seed=9))
    a2, b2 = split(ds, SplitSpec(0.7, seed=9))
    assert np.array_equal(a1.X, a2.X) and np.array_equal(b1.X, b2.X)
    joined = np.vstack([a1.X, b1.X])
    assert joined.shape[0] == ds.n
    assert {tuple(r) for r in joined} == {tuple(r) for r in ds.X}


def test_stratified_split_preserves_class_ratio():
    ds = class_dataset(6, 4)
    train, _ = split(ds, SplitSpec(0.5, seed=0, stratified=True))
    assert (train.target == 1).sum() == 3
    assert (train.target == -1).sum() == 2


def test_stratified_split_keeps_total_train_size():
    ds = class_dataset(6, 4)
    train, test = split(ds, SplitSpec(0.7, seed=3, stratified=True))
    assert train.n == 7 and test.n == 3
    assert (train.target == 1).sum() == 4  # 0.7 * 6 = 4.2 -> 4
    assert (train.target == -1).sum() == 3  # largest remainder takes the extra


def test_degenerate_splits_raise():
    ds = class_dataset(2, 1)
    with pytest.raises(DegenerateSplit):
        split(ds, SplitSpec(0.1, seed=0))
    with pytest.raises(DegenerateSplit):
        split(class_dataset(9, 1), SplitSpec(0.5, seed=0, stratified=True))


def test_kfold_even_sizes():
    folds = kfold_indices(10, 5, seed=1)
    assert len(folds) == 5
    assert all(len(valid) == 2 for _, valid in folds)


def test_kfold_remainder_spread():
    folds = kfold_indices(7, 5, seed=1)
    sizes = sorted(len(valid) for _, valid in folds)
    assert sizes == [1, 1, 1, 2, 2]


def test_kfold_validation_sets_partition_everything():
    folds = kfold_indices(23, 4, seed=5)
    joined = np.concatenate([valid for _, valid in folds])
    assert sorted(joined.tolist()) == list(range(23))


@settings(max_examples=60, deadline=None)
@given(n=st.integers(5, 60), k=st.integers(2, 5), seed=st.integers(0, 99))
def test_kfold_no_leakage(n, k, seed):
    for train_idx, valid_idx in kfold_indices(n, k, seed):
        assert not set(train_idx) & set(valid_idx)
        assert len(train_idx) + len(valid_idx) == n


def test_kfold_too_few_samples():
    with pytest.raises(TooFewSamples):
        kfold_indices(3, 5, seed=0)


def test_grid_spec_validation():
    with pytest.raises(ValueError):
        GridSpec(gamma_values=(), eta_values=(1.0,), sigma_values=(1.0,))
    with pytest.raises(ValueError):
        GridSpec(folds=1)
    for name, bad in [("gamma_values", "x"), ("eta_values", -1.0),
                      ("sigma_values", float("nan")), ("gamma_values", True)]:
        with pytest.raises(ValueError, match=f"^{name}: .*{bad!r}"):
            GridSpec(**{name: (1.0, bad)})
    for folds in (2.0, "5", True):
        with pytest.raises(ValueError, match="folds"):
            GridSpec(folds=folds)


def test_default_grids_match_protocol_ranges():
    assert len(PENALTY_GRID) == 11
    assert PENALTY_GRID[0] == 1e-5 and PENALTY_GRID[-1] == 1e5
    assert len(SIGMA_GRID) == 11
    assert SIGMA_GRID[0] == 2.0**-5 and SIGMA_GRID[-1] == 2.0**5


def small_dataset():
    x, y = blobs(10, 5.0, seed=4)
    return Dataset(X=x, target=y, task=CLASSIFY)


def test_single_cell_grid_returns_that_cell():
    grid = GridSpec(gamma_values=(1.0,), eta_values=(0.1,), sigma_values=(2.0,), folds=2)
    result = grid_search(small_dataset(), grid, CLASSIFY, seed=0)
    assert result.best_params == {"gamma": 1.0, "eta": 0.1, "sigma": 2.0}
    assert len(result.table) == 1


def test_grid_coverage_counts_product_of_cardinalities():
    grid = GridSpec(
        gamma_values=(0.1, 1.0, 10.0),
        eta_values=(0.1, 1.0),
        sigma_values=(0.5, 1.0),
        folds=2,
    )
    result = grid_search(small_dataset(), grid, CLASSIFY, seed=0)
    assert len(result.table) == 3 * 2 * 2
    seen = {tuple(sorted(c.params.items())) for c in result.table}
    assert len(seen) == len(result.table)  # every cell appears exactly once


def test_full_protocol_grid_has_1331_cells():
    points = GridSpec()  # defaults are the protocol ranges
    assert len(points.gamma_values) * len(points.eta_values) * len(points.sigma_values) == 1331


def test_iteration_order_is_ascending_nested():
    grid = GridSpec(
        gamma_values=(10.0, 0.1), eta_values=(1.0,), sigma_values=(2.0, 0.5), folds=2
    )
    result = grid_search(small_dataset(), grid, CLASSIFY, seed=0)
    order = [(c.params["gamma"], c.params["sigma"]) for c in result.table]
    assert order == [(0.1, 0.5), (0.1, 2.0), (10.0, 0.5), (10.0, 2.0)]


def test_better_cell_wins():
    # mislabeled blob data scores poorly against a clean copy of itself
    x, y = blobs(10, 5.0, seed=4)
    ds = Dataset(X=x, target=y, task=CLASSIFY)
    grid = GridSpec(
        gamma_values=(1.0,), eta_values=(1.0,), sigma_values=(1e-5, 1.0), folds=2
    )
    result = grid_search(ds, grid, CLASSIFY, seed=0)
    # sigma=1e-5 makes every kernel value vanish off-diagonal: near-chance CV
    by_sigma = {c.params["sigma"]: c.mean_score for c in result.table}
    assert by_sigma[1.0] > by_sigma[1e-5]
    assert result.best_params["sigma"] == 1.0
    assert result.best_cv_score == max(c.mean_score for c in result.table)


def test_reproducibility_full_result():
    grid = GridSpec(gamma_values=(0.1, 1.0), eta_values=(1.0,), sigma_values=(1.0,), folds=3)
    r1 = grid_search(small_dataset(), grid, CLASSIFY, seed=11)
    r2 = grid_search(small_dataset(), grid, CLASSIFY, seed=11)
    assert r1 == r2


def test_threaded_evaluation_matches_serial():
    # More workers than cores and a short switch interval: the sigma columns'
    # workers fill disjoint rows of one score array, and no score may be lost.
    grid = GridSpec(gamma_values=(1e-5, 0.1, 1.0), eta_values=(1e-5, 0.1, 1.0),
                    sigma_values=(0.25, 0.5, 1.0, 2.0, 4.0, 8.0), folds=3)
    for model_kind in (TRKM, RKM):
        serial = grid_search(small_dataset(), grid, CLASSIFY, model_kind, seed=2, threads=1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threaded = grid_search(small_dataset(), grid, CLASSIFY, model_kind, seed=2, threads=8)
        finally:
            sys.setswitchinterval(interval)
        assert serial == threaded
        assert not any(np.isnan(c.fold_scores).any() for c in threaded.table)


def per_cell_table(ds, grid, task, model_kind, seed):
    """(params, fold scores, error) of each cell, every cell fitted at every fold."""
    folds = kfold_indices(ds.n, grid.folds, seed)
    x, y = ds.X, np.asarray(ds.target, dtype=float)
    table = []
    for params in sel._grid_points(grid):
        scores, error = [], ""
        for train_idx, valid_idx in folds:
            try:
                scores.append(oracles.fit_score(x[train_idx], y[train_idx], x[valid_idx],
                                                y[valid_idx], params, task, model_kind))
            except (SingularSystem, EmptyClass, NonFiniteSystem) as exc:
                error = str(exc)
                break
        table.append((params, tuple(scores), error))
    return table


def cells_of(result):
    return [(c.params, c.fold_scores, c.error) for c in result.table]


# Batched regression scores agree with the LU fits to rounding, not bitwise.
# This is the benchmark's own tolerance; 400 random examples of the shape the
# Hypothesis test draws drifted by at most 2.7e-7.
REGRESSION_RTOL = 1e-6


def assert_agrees_with_lu(cells, table, rtol):
    """Same cells, errors and messages; each fold score within ``rtol`` of the LU one."""
    assert [(p, len(s), e) for p, s, e in cells] == [(p, len(s), e) for p, s, e in table]
    for (params, scores, _), (_, lu, _) in zip(cells, table):
        assert np.allclose(scores, lu, rtol=rtol, atol=0.0), params


@settings(max_examples=150, deadline=None)
@given(
    kind_task=st.sampled_from([(TRKM, CLASSIFY), (RKM, CLASSIFY), (TRKM, REGRESS)]),
    n=st.integers(6, 24),
    m=st.integers(1, 3),
    folds=st.integers(2, 3),
    data_seed=st.integers(0, 2**16),
    gammas=st.lists(st.sampled_from(PENALTY_GRID), min_size=1, max_size=3, unique=True),
    etas=st.lists(st.sampled_from(PENALTY_GRID), min_size=1, max_size=3, unique=True),
    sigmas=st.lists(st.sampled_from(SIGMA_GRID), min_size=1, max_size=2, unique=True),
)
def test_batched_grid_equals_per_cell_fits(kind_task, n, m, folds, data_seed, gammas, etas,
                                           sigmas):
    model_kind, task = kind_task
    rng = np.random.default_rng(data_seed)
    if task == CLASSIFY:
        y = rng.choice(np.array([-1, 1], dtype=np.int64), size=n)
        y[:2] = (1, -1)
        ds = Dataset(X=rng.normal(size=(n, m)), target=y, task=CLASSIFY)
    else:
        x = rng.normal(size=(n, m))
        ds = Dataset(X=x, target=np.sin(x).sum(axis=1) + 0.1 * rng.normal(size=n), task=REGRESS)
    grid = GridSpec(gamma_values=tuple(gammas), eta_values=tuple(etas),
                    sigma_values=tuple(sigmas), folds=folds)
    result = grid_search(ds, grid, task, model_kind=model_kind, seed=data_seed)
    table = per_cell_table(ds, grid, task, model_kind, data_seed)
    if task == CLASSIFY:
        assert cells_of(result) == table
    else:
        assert_agrees_with_lu(cells_of(result), table, REGRESSION_RTOL)


@pytest.mark.parametrize("kind_task", [(TRKM, CLASSIFY), (RKM, CLASSIFY), (TRKM, REGRESS)])
@pytest.mark.parametrize("grid", [
    GridSpec(gamma_values=(1e-2, 1.0), eta_values=(1e-2, 1.0), sigma_values=(1e-300, 1.0),
             folds=3),
    GridSpec(gamma_values=(1e-320, 1.0), eta_values=(1e-2, 1.0), sigma_values=(0.5, 1.0),
             folds=3),
], ids=["sigma", "gamma"])
def test_cells_with_a_non_finite_core_fail_as_per_cell_fits_do(kind_task, grid):
    model_kind, task = kind_task
    ds = small_dataset() if task == CLASSIFY else Dataset(*sine(30, seed=2), task=REGRESS)
    result = grid_search(ds, grid, task, model_kind=model_kind, seed=3)
    table = per_cell_table(ds, grid, task, model_kind, 3)
    assert sum(error == "core contains non-finite entries" for *_, error in table) == 4
    if task == CLASSIFY:
        assert cells_of(result) == table
    else:
        assert_agrees_with_lu(cells_of(result), table, REGRESSION_RTOL)


PER_CLASS_GRID = GridSpec(gamma_values=(1e-2, 10.0), eta_values=(1e-3, 1.0),
                         sigma_values=(1.0,), equal_penalties=False, folds=3)


def test_per_class_penalties_equal_per_cell_fits():
    result = grid_search(small_dataset(), PER_CLASS_GRID, CLASSIFY, model_kind=TRKM, seed=1)
    assert len(result.table) == 16
    assert cells_of(result) == per_cell_table(small_dataset(), PER_CLASS_GRID, CLASSIFY, TRKM, 1)


def test_rkm_refuses_per_class_penalties():
    # RKM states one system, so a per-class grid would only repeat its cells.
    with pytest.raises(ValueError, match="^per-class penalties: rkm with classify states one"):
        grid_search(small_dataset(), PER_CLASS_GRID, CLASSIFY, model_kind=RKM, seed=1)


@pytest.mark.parametrize("folds", [2, 5, 9, 12])
def test_each_mean_score_is_the_numpy_mean_of_its_fold_scores(folds):
    # The search reduces its (cells x folds) score array with one mean(axis=1);
    # each row must read as np.mean of the cell's own scores, bitwise. RKM at
    # small penalties fails cells by LU, and one negative row fails every cell
    # alive at the fold that validates it (EmptyClass): a failed cell keeps
    # the scores of the folds before its failure. At seed 3 that fold is never
    # the first, and RKM fails a cell after its first fold at 5, 9 and 12 folds.
    from trkm.data import load_csv

    grid = GridSpec(gamma_values=(1e-5, 1e-3, 1.0), eta_values=(1e-5, 1e-2, 1.0),
                    sigma_values=(0.25, 1.0), folds=folds)
    crossplane = load_csv(str(DATA_DIR / "synthetic" / "crossplane130.csv"), label_column="label")
    kept = 0
    for model_kind, task, ds in ((RKM, CLASSIFY, crossplane),
                                 (TRKM, CLASSIFY, class_dataset(29, 1, seed=5)),
                                 (TRKM, REGRESS, Dataset(*sine(60, seed=3), task=REGRESS))):
        result = grid_search(ds, grid, task, model_kind=model_kind, seed=3)
        x, y = ds.X, np.asarray(ds.target, dtype=float)
        split_folds = kfold_indices(ds.n, folds, 3)
        for cell in result.table:
            if not cell.error:
                assert len(cell.fold_scores) == folds
                assert cell.mean_score == float(np.mean(cell.fold_scores)), cell
                continue
            assert cell.mean_score == (float("-inf") if task == CLASSIFY else float("inf"))
            scores = []
            for train_idx, valid_idx in split_folds:
                try:
                    scores.append(oracles.fit_score(x[train_idx], y[train_idx], x[valid_idx],
                                                    y[valid_idx], cell.params, task, model_kind))
                except (SingularSystem, EmptyClass) as exc:
                    assert str(exc) == cell.error
                    break
            assert len(scores) == len(cell.fold_scores) < folds, cell
            assert np.allclose(cell.fold_scores, scores, rtol=REGRESSION_RTOL, atol=0.0), cell
            kept += len(scores) > 0
    assert kept


def test_failed_cells_recorded_not_fatal(monkeypatch):
    # The batched gate rejects every gamma=0.1 solve, so the LU refit decides
    # those cells, and here it fails them.
    real_solve, real_refit = models.solve_spectral, models.solve_families
    refitted = []

    def rejecting(*args):
        solved, shift = real_solve(*args), args[-1]
        return dataclasses.replace(solved, passed=solved.passed & (shift.gammas != 0.1))

    def failing(families, penalties, **kwargs):
        refitted.append(penalties[0][0])
        if penalties[0][0] == 0.1:
            raise SingularSystem("synthetic failure")
        return real_refit(families, penalties, **kwargs)

    monkeypatch.setattr(models, "solve_spectral", rejecting)
    monkeypatch.setattr(models, "solve_families", failing)
    grid = GridSpec(gamma_values=(0.1, 1.0), eta_values=(1.0,), sigma_values=(1.0,), folds=2)
    result = grid_search(small_dataset(), grid, CLASSIFY, seed=0)
    failed = [c for c in result.table if c.error]
    assert len(failed) == 1 and failed[0].error == "synthetic failure"
    assert failed[0].mean_score == float("-inf") and failed[0].fold_scores == ()
    assert result.best_params["gamma"] == 1.0
    assert refitted == [0.1]  # the healthy cell was never refitted


def test_grid_refits_compute_no_condition_estimate(monkeypatch):
    # At sigma = 32 and penalties near 1e-5 every TRKM-R cell spreads over
    # SPREAD_LIMIT, so LU refits decide the table; none of them may take the
    # 1-norm (lange) or run an estimate (gecon, or sycon at larger orders).
    from trkm import solver

    x, y = sine(30, seed=2)
    ds = Dataset(X=x, target=y, task=REGRESS)
    grid = GridSpec(gamma_values=(1e-5, 1e-4), eta_values=(1e-5, 1e-4), sigma_values=(32.0,),
                    folds=3)
    expected = per_cell_table(ds, grid, REGRESS, TRKM, 0)
    real_getrf, factorizations = solver._getrf, []
    monkeypatch.setattr(solver, "_getrf", lambda *a: factorizations.append(1) or real_getrf(*a))
    for name in ("_lange", "_gecon", "_sycon"):
        monkeypatch.setattr(solver, name, lambda *a, _name=name, **kw: pytest.fail(f"{_name} ran"))
    result = grid_search(ds, grid, REGRESS, model_kind=TRKM, seed=0)
    assert len(factorizations) == len(result.table) * grid.folds
    assert cells_of(result) == expected  # bitwise: LU decided every cell


@pytest.mark.parametrize("model_kind, task", [(TRKM, REGRESS), (RKM, CLASSIFY), (TRKM, CLASSIFY)])
def test_fold_training_on_one_row_is_too_few_samples(model_kind, task):
    x, y = (blobs(1, 2.0, seed=0) if task == CLASSIFY else sine(2, seed=0))
    grid = GridSpec(gamma_values=(1.0,), eta_values=(1.0,), sigma_values=(1.0,), folds=2)
    with pytest.raises(TooFewSamples, match=r"^fold 1 of 2 trains on 1 row, .*\(--folds\)$"):
        grid_search(Dataset(X=x, target=y, task=task), grid, task, model_kind=model_kind)


def test_fold_without_a_class_records_empty_class():
    # One negative sample: the fold that validates it trains on positives only.
    ds = class_dataset(9, 1, seed=3)
    grid = GridSpec(gamma_values=(0.1, 1.0), eta_values=(1.0,), sigma_values=(1.0,), folds=2)
    result = grid_search(ds, grid, CLASSIFY, seed=0)
    assert {c.error for c in result.table} == {"class -1 has no samples"}
    assert all(c.mean_score == float("-inf") for c in result.table)
    assert cells_of(result) == per_cell_table(ds, grid, CLASSIFY, TRKM, 0)


def test_regression_grid_minimizes_rmse():
    from trkm.synthetic import sine

    x, y = sine(30, seed=1)
    ds = Dataset(X=x, target=y, task=REGRESS)
    grid = GridSpec(
        gamma_values=(1e-3,), eta_values=(1e-3, 1e3), sigma_values=(1.0,), folds=3
    )
    result = grid_search(ds, grid, REGRESS, seed=0)
    assert result.best_params["eta"] == 1e-3
    assert result.best_cv_score == min(c.mean_score for c in result.table)


def test_regression_golden_grid_is_within_1e_9_of_lu_fits():
    # The golden table's fold scores come from the spectral solves; every one
    # is held to the per-cell LU fit of the same fold.
    from trkm.data import load_csv, normalize_minmax

    written = json.loads((Path(__file__).parent / "data" / "gridsearch" / "trkm_regress"
                          / "grid_results.json").read_text())
    ds = normalize_minmax(load_csv(str(DATA_DIR / "synthetic" / "sine.csv"),
                                   target_column="target"))
    grid = GridSpec(gamma_values=(0.01, 1.0, 100.0), eta_values=(0.01, 1.0, 100.0),
                    sigma_values=(0.125, 1.0, 8.0), folds=written["folds"])
    cells = [(c["params"], tuple(c["fold_scores"]), c["error"]) for c in written["cells"]]
    assert len(cells) == 27
    assert_agrees_with_lu(cells, per_cell_table(ds, grid, REGRESS, TRKM, written["seed"]), 1e-9)


def test_regression_cell_over_the_spread_limit_gets_the_lu_score(monkeypatch):
    # At sigma=32 the kernel is nearly rank one, so (gamma, eta) = (1e-5, 1e-5)
    # spreads the core's spectrum to about 2e11, past SPREAD_LIMIT; (1, 1e-5)
    # stays near 2e6. Every other gate passes both.
    x, y = sine(30, seed=1)
    ds = Dataset(X=x, target=y, task=REGRESS)
    grid = GridSpec(gamma_values=(1e-5, 1.0), eta_values=(1e-5,), sigma_values=(32.0,), folds=3)
    over, under = sel._grid_points(grid)
    train_idx, valid_idx = kfold_indices(ds.n, 3, 0)[0]

    def mask():
        table = models.penalty_table(TRKM, REGRESS, [over, under])
        return models.fold_predictions(TRKM, REGRESS, x[train_idx], y[train_idx],
                                       x[valid_idx], 32.0, table)[1].tolist()

    assert mask() == [False, True]
    with monkeypatch.context() as patched:
        patched.setattr(models, "SPREAD_LIMIT", float("inf"))
        assert mask() == [True, True]
    result = grid_search(ds, grid, REGRESS, seed=0)
    table = per_cell_table(ds, grid, REGRESS, TRKM, 0)
    assert cells_of(result)[0] == table[0]  # bitwise: the LU fit decided it
    assert_agrees_with_lu(cells_of(result), table, REGRESSION_RTOL)


def test_threaded_regression_grid_matches_serial():
    x, y = sine(30, seed=2)
    ds = Dataset(X=x, target=y, task=REGRESS)
    grid = GridSpec(gamma_values=(1e-3, 1.0), eta_values=(1e-3, 1.0), sigma_values=(0.5, 32.0),
                    folds=3)
    serial = grid_search(ds, grid, REGRESS, seed=4, threads=1)
    assert grid_search(ds, grid, REGRESS, seed=4, threads=2) == serial


@pytest.mark.parametrize("model_kind, task, equal, shifts_per_unit", [
    (TRKM, REGRESS, True, 1),  # the lower- and upper-function systems share one
    (TRKM, REGRESS, False, 1),  # per-class penalties: one fold kernel, one table of columns
    (TRKM, CLASSIFY, True, 2),  # K_AA and K_BB
    (RKM, CLASSIFY, True, 1),
])
def test_a_search_builds_one_penalty_table_and_one_shift_per_kernel_block(
    monkeypatch, model_kind, task, equal, shifts_per_unit
):
    x, y = (blobs(12, 2.0, seed=5) if task == CLASSIFY else sine(24, seed=5))
    ds = Dataset(X=x, target=y, task=task)
    grid = GridSpec(gamma_values=(1e-5, 1.0), eta_values=(1e-3, 1.0), sigma_values=(1.0, 32.0),
                    equal_penalties=equal, folds=3)
    real_shift, real_table = models.spectral_shift, models.penalty_table
    shifts, tables = [], []
    monkeypatch.setattr(models, "spectral_shift",
                        lambda *args: shifts.append(1) or real_shift(*args))
    monkeypatch.setattr(models, "penalty_table",
                        lambda *args: tables.append(1) or real_table(*args))
    grid_search(ds, grid, task, model_kind=model_kind, seed=0)
    assert len(tables) == 1
    assert len(shifts) == len(grid.sigma_values) * grid.folds * shifts_per_unit


@pytest.mark.parametrize("model_kind, task", [(TRKM, REGRESS), (TRKM, CLASSIFY)])
def test_per_class_systems_read_one_penalty_table_in_their_own_order(model_kind, task):
    # With per-class penalties each system's distinct (gamma, eta) pairs come out
    # gamma outer, eta inner, so the one table's columns are each system's own
    # pairs in their own order, and every spectral column is what it was.
    grid = GridSpec(gamma_values=(1e2, 1e-2, 1.0), eta_values=(1.0, 1e-1),
                    sigma_values=(4.0, 1.0), equal_penalties=False)
    listing = sel._grid_points(grid)[::len(grid.sigma_values)]
    table = models.penalty_table(model_kind, task, listing)
    columns = list(zip(table.gammas.tolist(), table.etas.tolist()))
    entry = models.model_type(model_kind, task)
    for system, column in enumerate(table.columns):
        pairs = [entry.system_penalties(params)[system] for params in listing]
        assert columns == list(dict.fromkeys(pairs))
        assert [columns[j] for j in column.tolist()] == pairs


def test_a_sigma_listed_twice_is_two_listings_read_as_per_cell_fits():
    # sigma = 1 listed twice makes two listings of the one penalty table; the
    # cells of both read as a per-cell search writes them.
    ds = class_dataset(8, 6, seed=2)
    grid = GridSpec(gamma_values=(0.1, 1.0), eta_values=(1e-2, 1.0),
                    sigma_values=(1.0, 4.0, 1.0), folds=2)
    result = grid_search(ds, grid, CLASSIFY, seed=0)
    assert len(result.table) == 12
    assert cells_of(result) == per_cell_table(ds, grid, CLASSIFY, TRKM, 0)


def fold_data(task, n, m, data_seed):
    """Rows of one fold, both classes in its training rows; the last 4 rows validate."""
    rng = np.random.default_rng(data_seed)
    x = rng.normal(size=(n, m))
    if task == CLASSIFY:
        y = rng.choice(np.array([-1.0, 1.0]), size=n)
        y[:2] = (1.0, -1.0)
    else:
        y = np.sin(x).sum(axis=1) + 0.1 * rng.normal(size=n)
    return x[:-4], y[:-4], x[-4:], y[-4:]


REFIT_PENALTIES = (1e-5, 1e-3, 1.0, 1e3)


@settings(max_examples=150, deadline=None)
@given(
    kind_task=st.sampled_from([(TRKM, CLASSIFY), (RKM, CLASSIFY), (TRKM, REGRESS)]),
    per_class=st.booleans(),
    n=st.integers(8, 24),
    m=st.integers(1, 3),
    data_seed=st.integers(0, 2**16),
    sigma=st.sampled_from((0.25, 1.0, 32.0)),
    penalties=st.lists(st.tuples(*[st.sampled_from(REFIT_PENALTIES)] * 4),
                       min_size=1, max_size=4),
)
def test_statement_refit_equals_fit_score(kind_task, per_class, n, m, data_seed, sigma,
                                          penalties):
    # The grid search's refit of a cell solves the fold's own statement; its
    # predictions, score and SingularSystem message are the LU fit's, bitwise.
    model_kind, task = kind_task
    per_class = per_class and model_kind == TRKM
    x, y, x_valid, y_valid = fold_data(task, n, m, data_seed)
    cells = [{"gamma": g, "eta": e, "sigma": sigma, **({"gamma2": g2, "eta2": e2} if per_class
                                                        else {})}
             for g, e, g2, e2 in penalties]
    _, _, refit = models.fold_predictions(model_kind, task, x, y, x_valid, sigma,
                                          models.penalty_table(model_kind, task, cells))
    for params in cells:
        try:
            fitted = models.predict(models.fit(model_kind, task, x, y, params), x_valid)
        except SingularSystem as exc:
            with pytest.raises(SingularSystem) as raised:
                refit(params)
            assert str(raised.value) == str(exc)
            continue
        refitted = refit(params)
        assert refitted.dtype == fitted.dtype and refitted.tobytes() == fitted.tobytes()
        score = models.score(task, refitted, y_valid)
        assert score == oracles.fit_score(x, y, x_valid, y_valid, params, task, model_kind)


def test_fold_with_an_empty_class_fails_in_its_statement(monkeypatch):
    # The fold that trains on positives alone is refused by TRKM-C's own
    # statement, with the fit's message; the search never calls models.fit
    # and writes the per-cell table.
    ds = class_dataset(9, 1, seed=3)
    (first, _), (second, _) = kfold_indices(ds.n, 2, 0)
    empty = first if (ds.target[first] == 1).all() else second
    x, y = ds.X, ds.target.astype(float)
    with pytest.raises(EmptyClass, match="^class -1 has no samples$"):
        models.fold_predictions(TRKM, CLASSIFY, x[empty], y[empty], x[:1], 1.0,
                                models.penalty_table(TRKM, CLASSIFY,
                                                     [{"gamma": 1.0, "eta": 1.0, "sigma": 1.0}]))
    grid = GridSpec(gamma_values=(0.1, 1.0), eta_values=(1.0,), sigma_values=(1.0,), folds=2)
    expected = per_cell_table(ds, grid, CLASSIFY, TRKM, 0)
    monkeypatch.setattr(models, "fit", lambda *args, **kw: pytest.fail("models.fit ran"))
    result = grid_search(ds, grid, CLASSIFY, seed=0)
    assert cells_of(result) == expected
    assert [c.error for c in result.table] == ["class -1 has no samples"] * 2


@pytest.mark.parametrize("model_kind, task, grams_per_unit", [
    (TRKM, CLASSIFY, 5), (RKM, CLASSIFY, 2), (TRKM, REGRESS, 2),
])
def test_fallbacks_reuse_the_units_gram_blocks(monkeypatch, model_kind, task, grams_per_unit):
    # With every spectral solve rejected, every cell-fold is refitted, yet Gram
    # blocks are formed only in the (sigma, fold) units and models.fit never runs.
    import sys

    from trkm import kernels

    x, y = (blobs(12, 2.0, seed=5) if task == CLASSIFY else sine(24, seed=5))
    ds = Dataset(X=x, target=y, task=task)
    grid = GridSpec(gamma_values=(1e-5, 1.0), eta_values=(1e-3, 1.0), sigma_values=(1.0, 32.0),
                    folds=3)
    expected = per_cell_table(ds, grid, task, model_kind, 0)
    real_spectral, real_refit, real_gram = models.solve_spectral, models.solve_families, kernels.gram
    grams, refits = [], []

    def rejecting(*args):
        solved = real_spectral(*args)
        return dataclasses.replace(solved, passed=np.zeros_like(solved.passed))

    monkeypatch.setattr(models, "solve_spectral", rejecting)
    monkeypatch.setattr(models, "solve_families",
                        lambda *args, **kw: refits.append(1) or real_refit(*args, **kw))
    monkeypatch.setattr(models, "fit", lambda *args, **kw: pytest.fail("models.fit ran"))
    for module in [m for name, m in sys.modules.items() if name.startswith("trkm.")]:
        if getattr(module, "gram", None) is real_gram:
            monkeypatch.setattr(module, "gram", lambda *args: grams.append(1) or real_gram(*args))
    result = grid_search(ds, grid, task, model_kind=model_kind, seed=0)
    units = len(grid.sigma_values) * grid.folds
    assert len(grams) == units * grams_per_unit
    assert len(refits) >= len(result.table)
    assert cells_of(result) == expected  # bitwise, regression included: LU decided every cell
