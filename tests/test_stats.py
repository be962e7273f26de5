import csv

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trkm.errors import DegenerateStatistic, DimensionMismatch
from trkm.stats import (
    NEMENYI_Q_05,
    friedman_test,
    midranks,
    nemenyi_cd,
    rank_models,
    win_tie_loss,
)

from conftest import DATA_DIR


def load_scores(name):
    with open(DATA_DIR / "reference" / name, newline="") as fh:
        rows = list(csv.reader(fh))
    models = rows[0][1:]
    matrix = np.array([[float(v) for v in row[1:]] for row in rows[1:]])
    return models, matrix


def test_single_row_ranks():
    table = rank_models([[3.0, 1.0, 2.0]], better="higher")
    assert np.array_equal(table.ranks[0], [1.0, 3.0, 2.0])


def test_midranks_on_ties():
    table = rank_models([[5.0, 5.0, 1.0]], better="higher")
    assert np.array_equal(table.ranks[0], [1.5, 1.5, 3.0])


def test_lower_is_better_direction():
    table = rank_models([[0.1, 0.5, 0.3]], better="lower")
    assert np.array_equal(table.ranks[0], [1.0, 3.0, 2.0])


@settings(max_examples=100)
@given(
    st.lists(
        st.lists(st.floats(-100, 100, allow_nan=False), min_size=4, max_size=4),
        min_size=1,
        max_size=12,
    )
)
def test_rank_rows_sum_to_p_times_p_plus_one_half(rows):
    table = rank_models(rows, better="higher")
    p = 4
    assert np.allclose(table.ranks.sum(axis=1), p * (p + 1) / 2.0)


# A few values so that ties are common, with both infinities and a signed zero.
TIE_PRONE = st.sampled_from([-np.inf, -1.5, -0.0, 0.0, 1.0, 2.5, np.inf])


@settings(max_examples=300, deadline=None)
@given(st.lists(TIE_PRONE | st.floats(allow_nan=False), min_size=1, max_size=9))
def test_midranks_equal_scipy_average_ranks_bitwise(row):
    from scipy.stats import rankdata

    expected = rankdata(row, method="average")
    got = midranks(row)
    assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes(), (row, got)


@given(st.lists(TIE_PRONE, min_size=0, max_size=5), st.integers(0, 5))
def test_a_row_holding_nan_ranks_as_all_nan(row, where):
    from scipy.stats import rankdata

    row.insert(min(where, len(row)), float("nan"))
    assert np.isnan(midranks(row)).all() and np.isnan(rankdata(row)).all()
    assert midranks(row).shape == (len(row),)


@pytest.mark.parametrize("row, ranks", [
    ([7.0], [1.0]),
    ([2.0, 2.0], [1.5, 1.5]),
    ([np.inf, -np.inf], [2.0, 1.0]),
    ([np.inf, np.inf, 0.0], [2.5, 2.5, 1.0]),
])
def test_midranks_of_one_and_two_column_rows_and_infinite_ties(row, ranks):
    assert np.array_equal(midranks(row), ranks)


def test_identical_scores_give_zero_chi2():
    scores = np.tile([[1.0, 1.0, 1.0]], (5, 1))
    report = friedman_test(rank_models(scores, better="higher"))
    assert report.chi2 == pytest.approx(0.0, abs=1e-12)


def test_chi2_invariant_under_monotone_row_transforms(rng):
    scores = rng.normal(size=(8, 4))
    base = friedman_test(rank_models(scores, better="higher"))
    warped = np.exp(scores) * 3.0 + 1.0  # strictly increasing per row
    again = friedman_test(rank_models(warped, better="higher"))
    assert again.chi2 == pytest.approx(base.chi2, rel=1e-12)


def test_degenerate_denominator_raises():
    # two datasets, two models, perfectly consistent ranks: chi2 = N(p-1)
    scores = np.array([[2.0, 1.0], [2.0, 1.0]])
    with pytest.raises(DegenerateStatistic):
        friedman_test(rank_models(scores, better="higher"))


def test_published_classification_table_statistics():
    models, matrix = load_scores("classification_accuracy.csv")
    assert matrix.shape == (36, 6)
    table = rank_models(matrix, better="higher")
    published = {
        "SVM": 4.98, "TSVM": 4.00, "Pin-GTSVM": 3.86,
        "RKM": 2.77, "GBTSVM": 3.16, "TRKM-C": 2.20,
    }
    for name, avg in zip(models, table.average_ranks):
        assert avg == pytest.approx(published[name], abs=0.05)
    report = friedman_test(table, critical_value=2.2657)
    assert report.chi2 == pytest.approx(48.95, rel=0.03)
    assert (report.df1, report.df2) == (5, 175)
    assert report.reject_null


def test_published_regression_table_statistics():
    models, matrix = load_scores("regression_rmse.csv")
    assert matrix.shape == (10, 5)
    table = rank_models(matrix, better="lower")
    published = {"SVR": 3.2, "TSVR": 4.0, "TSVQR": 4.8, "RKM": 1.7, "TRKM-R": 1.3}
    for name, avg in zip(models, table.average_ranks):
        assert avg == pytest.approx(published[name], abs=0.05)
    report = friedman_test(table)
    assert report.chi2 == pytest.approx(35.44, rel=0.03)
    assert report.ff == pytest.approx(69.947, rel=0.03)


def test_nemenyi_published_value():
    assert nemenyi_cd(6, 36, 2.850) == pytest.approx(1.2567, abs=0.0005)
    assert NEMENYI_Q_05[6] == 2.850


def test_nemenyi_linearity_and_closed_form():
    assert nemenyi_cd(4, 10, 2.0) == 2.0 * nemenyi_cd(4, 10, 1.0)
    assert nemenyi_cd(2, 6, 1.0) == pytest.approx(np.sqrt(6.0 / 36.0), rel=1e-12)


def test_win_tie_loss_threshold_n36():
    w = win_tie_loss(np.arange(36.0), np.arange(36.0), better="higher")
    assert w.threshold == pytest.approx(18 + 1.96 * 3, rel=1e-12)
    assert (w.wins, w.ties, w.losses) == (0, 36, 0)


def test_win_tie_loss_published_trkm_vs_svm():
    models, matrix = load_scores("classification_accuracy.csv")
    trkm = matrix[:, models.index("TRKM-C")]
    svm = matrix[:, models.index("SVM")]
    w = win_tie_loss(trkm, svm, better="higher")
    assert (w.wins, w.ties, w.losses) == (31, 1, 4)
    assert w.wins >= 24  # clears the significance threshold


@settings(max_examples=100)
@given(
    st.lists(st.tuples(st.floats(-50, 50, allow_nan=False),
                       st.floats(-50, 50, allow_nan=False)),
             min_size=1, max_size=30)
)
def test_win_tie_loss_mirror_symmetry(pairs):
    a = np.array([u for u, _ in pairs])
    b = np.array([v for _, v in pairs])
    fwd = win_tie_loss(a, b, better="higher")
    rev = win_tie_loss(b, a, better="higher")
    assert (fwd.wins, fwd.ties, fwd.losses) == (rev.losses, rev.ties, rev.wins)


def test_shape_errors():
    with pytest.raises(DimensionMismatch):
        rank_models([[1.0]])  # single model
    with pytest.raises(DimensionMismatch):
        win_tie_loss([1.0, 2.0], [1.0])
    with pytest.raises(DimensionMismatch):
        friedman_test(rank_models([[1.0, 2.0]]))  # single dataset
