import numpy as np
import pytest
from scipy.linalg import lapack
from hypothesis import given, settings
from hypothesis import strategies as st

from trkm.errors import DimensionMismatch, TooFewSamples
import trkm.solver
from trkm.kernels import gaussian, gram, linear
from trkm.metrics import regression_errors
from trkm.regressor import (
    TrkmRegressorHyperparams,
    fit_regressor,
    predict_regression,
    regression_components,
)
from trkm.synthetic import sine

from oracles import augmented, regressor_slacks, solve_full_pivot


def equal_hp(gamma=1.0, eta=1.0, kernel=None):
    return TrkmRegressorHyperparams.equal_penalty(gamma, eta, kernel or gaussian(1.0))


def test_balance_rows_force_sum_n(rng):
    for _ in range(10):
        n = int(rng.integers(3, 30))
        x = rng.normal(size=(n, 2))
        y = rng.normal(size=n)
        model = fit_regressor(x, y, equal_hp(0.5, 2.0))
        assert model.h1.sum() == pytest.approx(n, abs=1e-6 * n)
        assert model.h2.sum() == pytest.approx(n, abs=1e-6 * n)


def test_constant_target_is_reproduced(rng):
    x = rng.normal(size=(20, 3))
    x -= x.mean(axis=0)
    y = np.full(20, 2.5)
    model = fit_regressor(x, y, equal_hp(kernel=linear()))
    err = regression_errors(predict_regression(model, x), y)
    assert err.mae < 1e-3


def test_sine_training_rmse_small():
    x, y = sine(50, seed=3)
    model = fit_regressor(x, y, equal_hp(1e-3, 1e-3))
    pred = predict_regression(model, x)
    assert regression_errors(pred, y).rmse < 0.05
    # prediction at a training point stays near its target
    assert abs(predict_regression(model, x[:1])[0] - y[0]) < 0.1


def test_linear_kernel_matches_explicit_weights(rng):
    for _ in range(20):
        n = int(rng.integers(4, 31))
        m = int(rng.integers(1, 6))
        x = rng.normal(size=(n, m))
        y = rng.normal(size=n)
        hp = TrkmRegressorHyperparams(
            gamma1=float(rng.uniform(0.5, 5)),
            gamma2=float(rng.uniform(0.5, 5)),
            eta1=float(rng.uniform(0.5, 5)),
            eta2=float(rng.uniform(0.5, 5)),
            kernel=linear(),
        )
        model = fit_regressor(x, y, hp)
        queries = rng.normal(size=(5, m))
        g1, g2 = regression_components(model, queries)
        e = np.ones(n)
        w1 = x.T @ (e - model.h1) / hp.gamma1
        w2 = x.T @ (model.h2 - e) / hp.gamma2
        assert np.allclose(g1, queries @ w1 + model.b1, atol=1e-10)
        assert np.allclose(g2, queries @ w2 + model.b2, atol=1e-10)


def test_prediction_is_mean_of_components(rng):
    x = rng.normal(size=(12, 2))
    y = rng.normal(size=12)
    model = fit_regressor(x, y, equal_hp())
    queries = rng.normal(size=(7, 2))
    g1, g2 = regression_components(model, queries)
    assert np.array_equal(predict_regression(model, queries), (g1 + g2) / 2.0)


def test_empty_query_returns_empty_vector(rng):
    model = fit_regressor(rng.normal(size=(6, 2)), rng.normal(size=6), equal_hp())
    assert predict_regression(model, np.empty((0, 2))).shape == (0,)


def test_stationarity_in_kernel_form(rng):
    for _ in range(10):
        n = int(rng.integers(4, 40))
        x = rng.normal(size=(n, 3))
        y = rng.normal(size=n)
        hp = equal_hp(float(rng.choice([1e-2, 1.0, 1e2])), float(rng.choice([1e-2, 1.0, 1e2])))
        model = fit_regressor(x, y, hp)
        xi1, xi2 = regressor_slacks(model)
        assert np.max(np.abs(hp.eta1 * model.h1 - xi1)) <= 1e-6
        assert np.max(np.abs(hp.eta2 * model.h2 - xi2)) <= 1e-6


def test_fenchel_young_bound_and_equality_point(rng):
    x = rng.normal(size=(15, 2))
    y = rng.normal(size=15)
    hp = equal_hp(0.8, 0.3)
    model = fit_regressor(x, y, hp)
    for xi, eta in zip(regressor_slacks(model), (hp.eta1, hp.eta2)):
        lhs = xi @ xi / (2.0 * eta)
        for _ in range(100):
            h = rng.normal(size=xi.shape)
            assert lhs >= xi @ h - eta / 2.0 * (h @ h) - 1e-9
        h_star = xi / eta
        assert lhs == pytest.approx(xi @ h_star - eta / 2.0 * (h_star @ h_star), abs=1e-9)


def test_small_instance_matches_full_pivot_oracle(rng):
    from trkm.kernels import gram

    for _ in range(15):
        n = int(rng.integers(2, 11))
        x = rng.normal(size=(n, 2))
        y = rng.normal(size=n)
        hp = equal_hp(1.3, 0.6)
        model = fit_regressor(x, y, hp)
        k = gram(hp.kernel, x, x)
        e = np.ones(n)
        a1, b1 = augmented(
            k / hp.gamma1 + hp.eta1 * np.eye(n), e, -1, -y + k @ e / hp.gamma1, n
        )
        expected = solve_full_pivot(a1, b1)
        assert np.allclose(model.h1, expected[:n], atol=1e-9)
        assert model.b1 == pytest.approx(expected[n], abs=1e-9)


def test_target_translation_shifts_predictions_exactly(rng):
    for _ in range(10):
        n = int(rng.integers(5, 25))
        x = rng.normal(size=(n, 2))
        y = rng.normal(size=n)
        c = float(rng.uniform(-10, 10))
        hp = equal_hp(1.0, 0.1)
        base = predict_regression(fit_regressor(x, y, hp), x)
        shifted = predict_regression(fit_regressor(x, y + c, hp), x)
        assert np.max(np.abs(shifted - (base + c))) <= 1e-8


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_permuting_training_rows_keeps_predictions(seed):
    # A row permutation P turns both systems into P K P^T with P-permuted
    # right-hand sides, so h is permuted, b is kept, and each prediction is the
    # same sum taken in another order: equal up to rounding.
    rng = np.random.default_rng(seed)
    n, m = int(rng.integers(4, 30)), int(rng.integers(1, 6))
    x, y = rng.normal(size=(n, m)), rng.normal(size=n)
    perm = rng.permutation(n)
    hp = equal_hp(0.7, 0.9)
    queries = rng.normal(size=(15, m))
    assert np.allclose(
        predict_regression(fit_regressor(x[perm], y[perm], hp), queries),
        predict_regression(fit_regressor(x, y, hp), queries),
        rtol=1e-9, atol=1e-9,
    )


@pytest.mark.parametrize("gamma2, eta2, factorizations", [
    (0.7, 0.9, 1), (1.4, 0.9, 2), (0.7, 0.45, 2),
])
def test_equal_penalties_share_one_factorization(monkeypatch, rng, gamma2, eta2, factorizations):
    calls = []
    exact = trkm.solver._getrf
    monkeypatch.setattr(trkm.solver, "_getrf", lambda *a, **k: calls.append(1) or exact(*a, **k))
    x, y = rng.normal(size=(12, 2)), rng.normal(size=12)
    model = fit_regressor(x, y, TrkmRegressorHyperparams(0.7, gamma2, 0.9, eta2, gaussian(1.0)))
    assert len(calls) == factorizations
    assert [rep.name for rep in model.fit_diag] == ["lower-function system", "upper-function system"]


def test_equal_penalties_estimate_the_condition_once(monkeypatch, rng):
    # Both systems report the estimate of the one +e matrix they share; gecon runs
    # once, and its value is the one of an LU and a 1-norm taken here.
    calls = []
    exact = trkm.solver._gecon
    monkeypatch.setattr(trkm.solver, "_gecon", lambda *a, **k: calls.append(1) or exact(*a, **k))
    x, y = rng.normal(size=(12, 2)), rng.normal(size=12)
    model = fit_regressor(x, y, equal_hp(0.7, 0.9))
    assert len(calls) == 1
    core = gram(gaussian(1.0), x, x) / 0.7 + 0.9 * np.eye(12)
    a, _ = augmented(core, np.ones(12), +1, y, 12.0)
    lu, _, _ = lapack.dgetrf(a)
    rcond, _ = lapack.dgecon(lu, np.max(np.abs(a).sum(axis=0)), norm="1")
    assert [rep.condition_estimate for rep in model.fit_diag] == [1.0 / rcond] * 2


def test_preconditions():
    with pytest.raises(TooFewSamples):
        fit_regressor(np.zeros((1, 2)), np.zeros(1), equal_hp())
    with pytest.raises(DimensionMismatch):
        fit_regressor(np.zeros((3, 2)), np.zeros(4), equal_hp())
    with pytest.raises(ValueError):
        TrkmRegressorHyperparams(1.0, 1.0, 0.0, 1.0, gaussian(1.0))
