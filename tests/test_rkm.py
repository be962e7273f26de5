import numpy as np
import pytest

from trkm.errors import DimensionMismatch, SingularSystem, TooFewSamples
from trkm.kernels import gaussian, linear
from trkm.metrics import classification_accuracy
from trkm.rkm import RkmModel, fit_rkm, predict_rkm, rkm_scores
from trkm.synthetic import blobs

from conftest import random_two_class


def test_symmetric_two_points_give_zero_bias_antisymmetric_h():
    x = np.array([[1.0, 2.0], [-1.0, -2.0]])
    model = fit_rkm(x, np.array([1.0, -1.0]), 1.0, 1.0, linear())
    assert model.b == pytest.approx(0.0, abs=1e-12)
    assert model.h[0] == pytest.approx(-model.h[1], abs=1e-12)
    assert np.array_equal(predict_rkm(model, x), [1, -1])


def test_h_sums_to_zero_after_every_fit(rng):
    for _ in range(15):
        x, y = random_two_class(rng)
        model = fit_rkm(x, y.astype(float), 0.7, 0.4, gaussian(1.0))
        assert model.h.sum() == pytest.approx(0.0, abs=1e-6 * len(y))


def test_blobs_reach_perfect_training_accuracy():
    x, y = blobs(20, 5.0, seed=0)
    model = fit_rkm(x, y.astype(float), 1.0, 1.0, gaussian(1.0))
    assert classification_accuracy(predict_rkm(model, x), y) == 100.0


def test_zero_score_ties_to_positive_class():
    model = RkmModel(
        X=np.zeros((1, 2)), y=np.array([1.0]), h=np.zeros(1), b=0.0,
        gamma=1.0, eta=1.0, kernel=linear(),
    )
    assert rkm_scores(model, np.array([[5.0, 5.0]]))[0] == 0.0
    assert predict_rkm(model, np.array([[5.0, 5.0]]))[0] == 1


def test_linear_primal_dual_agreement(rng):
    for _ in range(10):
        x, y = random_two_class(rng)
        gamma = float(rng.uniform(0.5, 4))
        model = fit_rkm(x, y.astype(float), gamma, 0.8, linear())
        w = x.T @ model.h / gamma
        queries = rng.normal(size=(8, x.shape[1]))
        assert np.allclose(
            rkm_scores(model, queries), queries @ w + model.b, atol=1e-10
        )


def test_energy_gradient_vanishes_at_fit(rng):
    """Central differences of the energy vanish at (w, b, h) from the fit.

    The fitted h from the linear system absorbs the labels; the energy-form
    hidden features are h * y and the weights are X^T h / gamma.
    """
    x, y = random_two_class(rng, n_max=14, m_max=3)
    y = y.astype(float)
    gamma, eta = 2.0, 0.5
    model = fit_rkm(x, y, gamma, eta, linear())
    w = x.T @ model.h / gamma
    h_energy = model.h * y

    def energy(params):
        wv = params[: x.shape[1]]
        bv = params[x.shape[1]]
        hv = params[x.shape[1] + 1:]
        margins = 1.0 - (x @ wv + bv) * y
        return gamma / 2.0 * wv @ wv + margins @ hv - eta / 2.0 * hv @ hv

    params = np.concatenate([w, [model.b], h_energy])
    step = 1e-5
    for i in range(len(params)):
        up, dn = params.copy(), params.copy()
        up[i] += step
        dn[i] -= step
        grad = (energy(up) - energy(dn)) / (2 * step)
        assert abs(grad) <= 1e-6


def test_preconditions(rng):
    x, _ = random_two_class(rng)
    with pytest.raises(ValueError):
        fit_rkm(x, np.zeros(len(x)), 1.0, 1.0, linear())  # labels not +/-1
    with pytest.raises(TooFewSamples):
        fit_rkm(x[:1], np.array([1.0]), 1.0, 1.0, linear())
    with pytest.raises(ValueError):
        fit_rkm(x, np.ones(len(x)) * np.where(np.arange(len(x)) % 2, 1, -1), -1.0, 1.0, linear())
    model = fit_rkm(x, np.where(np.arange(len(x)) % 2, 1.0, -1.0), 1.0, 1.0, linear())
    with pytest.raises(DimensionMismatch):
        predict_rkm(model, rng.normal(size=(2, x.shape[1] + 2)))


def test_singular_fit_names_the_rkm_system():
    # identical points and extreme penalties make the system rank deficient
    x = np.zeros((3, 2))
    with pytest.raises(SingularSystem, match="^rkm system: "):
        fit_rkm(x, np.array([1.0, -1.0, 1.0]), 1e300, 1e-300, linear())
