import numpy as np
import pytest
from scipy.linalg import lapack
from hypothesis import given, settings
from hypothesis import strategies as st

from trkm import models
from trkm.data import REGRESS
from trkm.errors import DimensionMismatch, SingularSystem, TooFewSamples
import trkm.solver
from trkm.kernels import gaussian, gram, linear
from trkm.metrics import regression_errors
from trkm.synthetic import sine

from conftest import counting, system_values
from oracles import augmented, regressor_slacks, solve_full_pivot


def fit(x, y, gamma=1.0, eta=1.0, kernel=None, **second):
    """TRKM-R on rows x with targets y, equal penalties unless gamma2/eta2 are given."""
    return models.fit("trkm", REGRESS, x, y, {"gamma": gamma, "eta": eta, **second},
                      kernel or gaussian(1.0))


def test_balance_rows_force_sum_n(rng):
    for _ in range(10):
        n = int(rng.integers(3, 30))
        x = rng.normal(size=(n, 2))
        y = rng.normal(size=n)
        model = fit(x, y, 0.5, 2.0)
        assert model.fields["h1"].sum() == pytest.approx(n, abs=1e-6 * n)
        assert model.fields["h2"].sum() == pytest.approx(n, abs=1e-6 * n)


def test_constant_target_is_reproduced(rng):
    x = rng.normal(size=(20, 3))
    x -= x.mean(axis=0)
    y = np.full(20, 2.5)
    model = fit(x, y, kernel=linear())
    err = regression_errors(models.predict(model, x), y)
    assert err.mae < 1e-3


def test_sine_training_rmse_small():
    x, y = sine(50, seed=3)
    model = fit(x, y, 1e-3, 1e-3)
    pred = models.predict(model, x)
    assert regression_errors(pred, y).rmse < 0.05
    # prediction at a training point stays near its target
    assert abs(models.predict(model, x[:1])[0] - y[0]) < 0.1


def test_linear_kernel_matches_explicit_weights(rng):
    for _ in range(20):
        n = int(rng.integers(4, 31))
        m = int(rng.integers(1, 6))
        x = rng.normal(size=(n, m))
        y = rng.normal(size=n)
        gamma1, gamma2, eta1, eta2 = (float(rng.uniform(0.5, 5)) for _ in range(4))
        model = fit(x, y, gamma1, eta1, linear(), gamma2=gamma2, eta2=eta2)
        f = model.fields
        queries = rng.normal(size=(5, m))
        g1, g2 = system_values(model, queries)
        e = np.ones(n)
        w1 = x.T @ (e - f["h1"]) / gamma1
        w2 = x.T @ (f["h2"] - e) / gamma2
        assert np.allclose(g1, queries @ w1 + f["b1"], atol=1e-10)
        assert np.allclose(g2, queries @ w2 + f["b2"], atol=1e-10)


def test_prediction_is_mean_of_components(rng):
    x = rng.normal(size=(12, 2))
    y = rng.normal(size=12)
    model = fit(x, y)
    queries = rng.normal(size=(7, 2))
    g1, g2 = system_values(model, queries)
    assert np.array_equal(models.predict(model, queries), (g1 + g2) / 2.0)


def test_empty_query_returns_empty_vector(rng):
    model = fit(rng.normal(size=(6, 2)), rng.normal(size=6))
    assert models.predict(model, np.empty((0, 2))).shape == (0,)


def test_stationarity_in_kernel_form(rng):
    for _ in range(10):
        n = int(rng.integers(4, 40))
        x = rng.normal(size=(n, 3))
        y = rng.normal(size=n)
        gamma, eta = float(rng.choice([1e-2, 1.0, 1e2])), float(rng.choice([1e-2, 1.0, 1e2]))
        model = fit(x, y, gamma, eta)
        xi1, xi2 = regressor_slacks(model)
        assert np.max(np.abs(eta * model.fields["h1"] - xi1)) <= 1e-6
        assert np.max(np.abs(eta * model.fields["h2"] - xi2)) <= 1e-6


def test_fenchel_young_bound_and_equality_point(rng):
    x = rng.normal(size=(15, 2))
    y = rng.normal(size=15)
    model = fit(x, y, 0.8, 0.3)
    for xi, eta in zip(regressor_slacks(model), (0.3, 0.3)):
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
        model = fit(x, y, 1.3, 0.6)
        k = gram(gaussian(1.0), x, x)
        e = np.ones(n)
        a1, b1 = augmented(
            k / 1.3 + 0.6 * np.eye(n), e, -1, -y + k @ e / 1.3, n
        )
        expected = solve_full_pivot(a1, b1)
        assert np.allclose(model.fields["h1"], expected[:n], atol=1e-9)
        assert model.fields["b1"] == pytest.approx(expected[n], abs=1e-9)


def test_target_translation_shifts_predictions_exactly(rng):
    for _ in range(10):
        n = int(rng.integers(5, 25))
        x = rng.normal(size=(n, 2))
        y = rng.normal(size=n)
        c = float(rng.uniform(-10, 10))
        base = models.predict(fit(x, y, 1.0, 0.1), x)
        shifted = models.predict(fit(x, y + c, 1.0, 0.1), x)
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
    queries = rng.normal(size=(15, m))
    assert np.allclose(
        models.predict(fit(x[perm], y[perm], 0.7, 0.9), queries),
        models.predict(fit(x, y, 0.7, 0.9), queries),
        rtol=1e-9, atol=1e-9,
    )


# 12 rows factor by LU; LDL_MIN_ORDER rows (an augmented order past it) by LDL^T.
ROWS = {12: "_getrf", trkm.solver.LDL_MIN_ORDER: "_sytrf"}


@pytest.mark.parametrize("gamma2, eta2, factorizations", [
    (0.7, 0.9, 1), (1.4, 0.9, 2), (0.7, 0.45, 2),
])
def test_equal_penalties_share_one_factorization(monkeypatch, rng, gamma2, eta2, factorizations):
    for n, used in ROWS.items():
        with monkeypatch.context() as patch:
            calls = counting(patch, "_getrf", "_sytrf")
            x, y = rng.normal(size=(n, 2)), rng.normal(size=n)
            model = fit(x, y, 0.7, 0.9, gamma2=gamma2, eta2=eta2)
        assert calls == {name: factorizations * (name == used) for name in calls}
        assert [rep.name for rep in model.fit_diag] == ["lower-function system",
                                                        "upper-function system"]


def pivot_ratio(x, y, gamma, eta, sigma):
    """The largest over the smallest pivot of the +e matrix of TRKM-R on (x, y), formed and
    factored here: |U's diagonal| of ``dgetrf`` below ``LDL_MIN_ORDER``, else the |eigenvalues|
    of the D blocks of ``dsytrf``."""
    n = len(x)
    core = gram(gaussian(sigma), x, x) / gamma + eta * np.eye(n)
    a, _ = augmented(core, np.ones(n), +1, y, float(n))
    if n + 1 < trkm.solver.LDL_MIN_ORDER:
        pivots = np.abs(np.diag(lapack.dgetrf(a)[0]))
    else:
        ldu, ipiv, _ = lapack.dsytrf(a, lwork=int(lapack.dsytrf_lwork(n + 1)[0]))
        pivots = trkm.solver._block_pivots(ldu, ipiv)
    return float(pivots.max()) / float(pivots.min())


def test_equal_penalties_report_the_pivot_ratio_the_floor_reads(monkeypatch, rng):
    # Both systems share one +e matrix, factored once, and report its pivot ratio: bitwise
    # that of a factor taken here. At gamma = 10 LDL^T pivots on a 2x2 block of D, whose
    # diagonal holds a zero. Past 1/RELATIVE_PIVOT_FLOOR the ratio is the floor's SingularSystem.
    for n, factored in ROWS.items():
        x, y = rng.normal(size=(n, 2)), rng.normal(size=n)
        for gamma, eta in ((0.7, 0.9), (10.0, 0.01)):
            with monkeypatch.context() as patch:
                calls = counting(patch, "_getrf", "_sytrf")
                model = fit(x, y, gamma, eta)
            assert calls == {name: int(name == factored) for name in calls}
            assert [rep.pivot_ratio for rep in model.fit_diag] == \
                [pivot_ratio(x, y, gamma, eta, 1.0)] * 2
        assert pivot_ratio(x, y, 0.7, 1e-14, 100.0) > 1.0 / trkm.solver.RELATIVE_PIVOT_FLOOR
        with pytest.raises(SingularSystem, match=r"^lower-function system: pivot \S+ below "
                           r"relative threshold 1e-12 \* "):
            fit(x, y, 0.7, 1e-14, kernel=gaussian(100.0))


def test_preconditions():
    with pytest.raises(TooFewSamples):
        fit(np.zeros((1, 2)), np.zeros(1))
    with pytest.raises(DimensionMismatch, match="^X has 3 rows but Y has length 4$"):
        fit(np.zeros((3, 2)), np.zeros(4))
    with pytest.raises(ValueError, match="^eta1 must be strictly positive, got 0.0$"):
        fit(np.zeros((3, 2)), np.zeros(3), eta=0.0, eta2=1.0)
