import numpy as np
import pytest

from trkm import models
from trkm.data import CLASSIFY
from trkm.errors import DimensionMismatch, SingularSystem, TooFewSamples
from trkm.kernels import gaussian, linear
from trkm.metrics import classification_accuracy
from trkm.synthetic import blobs

from conftest import random_two_class, system_values


def fit(x, y, gamma, eta, kernel):
    return models.fit("rkm", CLASSIFY, x, y, {"gamma": gamma, "eta": eta}, kernel)


def test_symmetric_two_points_give_zero_bias_antisymmetric_h():
    x = np.array([[1.0, 2.0], [-1.0, -2.0]])
    model = fit(x, np.array([1.0, -1.0]), 1.0, 1.0, linear())
    h = model.fields["h"]
    assert model.fields["b"] == pytest.approx(0.0, abs=1e-12)
    assert h[0] == pytest.approx(-h[1], abs=1e-12)
    assert np.array_equal(models.predict(model, x), [1, -1])


def test_h_sums_to_zero_after_every_fit(rng):
    for _ in range(15):
        x, y = random_two_class(rng)
        model = fit(x, y.astype(float), 0.7, 0.4, gaussian(1.0))
        assert model.fields["h"].sum() == pytest.approx(0.0, abs=1e-6 * len(y))


def test_blobs_reach_perfect_training_accuracy():
    x, y = blobs(20, 5.0, seed=0)
    model = fit(x, y.astype(float), 1.0, 1.0, gaussian(1.0))
    assert classification_accuracy(models.predict(model, x), y) == 100.0


def test_zero_score_ties_to_positive_class():
    model = models.Model(
        models.model_type("rkm", CLASSIFY), {"gamma": 1.0, "eta": 1.0}, linear(),
        {"X": np.zeros((1, 2)), "y": np.array([1.0]), "h": np.zeros(1), "b": 0.0},
    )
    assert system_values(model, np.array([[5.0, 5.0]]))[0][0] == 0.0
    assert models.predict(model, np.array([[5.0, 5.0]]))[0] == 1


def test_linear_primal_dual_agreement(rng):
    for _ in range(10):
        x, y = random_two_class(rng)
        gamma = float(rng.uniform(0.5, 4))
        model = fit(x, y.astype(float), gamma, 0.8, linear())
        w = x.T @ model.fields["h"] / gamma
        queries = rng.normal(size=(8, x.shape[1]))
        assert np.allclose(
            model.total(queries), queries @ w + model.fields["b"], atol=1e-10
        )


def test_energy_gradient_vanishes_at_fit(rng):
    """Central differences of the energy vanish at (w, b, h) from the fit.

    The fitted h from the linear system absorbs the labels; the energy-form
    hidden features are h * y and the weights are X^T h / gamma.
    """
    x, y = random_two_class(rng, n_max=14, m_max=3)
    y = y.astype(float)
    gamma, eta = 2.0, 0.5
    model = fit(x, y, gamma, eta, linear())
    w = x.T @ model.fields["h"] / gamma
    h_energy = model.fields["h"] * y

    def energy(params):
        wv = params[: x.shape[1]]
        bv = params[x.shape[1]]
        hv = params[x.shape[1] + 1:]
        margins = 1.0 - (x @ wv + bv) * y
        return gamma / 2.0 * wv @ wv + margins @ hv - eta / 2.0 * hv @ hv

    params = np.concatenate([w, [model.fields["b"]], h_energy])
    step = 1e-5
    for i in range(len(params)):
        up, dn = params.copy(), params.copy()
        up[i] += step
        dn[i] -= step
        grad = (energy(up) - energy(dn)) / (2 * step)
        assert abs(grad) <= 1e-6


def test_preconditions(rng):
    x, _ = random_two_class(rng)
    with pytest.raises(ValueError, match="^labels must be"):
        fit(x, np.zeros(len(x)), 1.0, 1.0, linear())  # labels not +/-1
    with pytest.raises(TooFewSamples):
        fit(x[:1], np.array([1.0]), 1.0, 1.0, linear())
    with pytest.raises(ValueError):
        fit(x, np.ones(len(x)) * np.where(np.arange(len(x)) % 2, 1, -1), -1.0, 1.0, linear())
    with pytest.raises(DimensionMismatch, match=f"^X has {len(x)} rows but y has length 2$"):
        fit(x, np.array([1.0, -1.0]), 1.0, 1.0, linear())
    model = fit(x, np.where(np.arange(len(x)) % 2, 1.0, -1.0), 1.0, 1.0, linear())
    with pytest.raises(DimensionMismatch):
        models.predict(model, rng.normal(size=(2, x.shape[1] + 2)))


def test_a_penalty_that_is_not_positive_is_named():
    # RKM said "gamma and eta must be strictly positive" before the generic fit's check.
    x = np.array([[1.0, 2.0], [-1.0, -2.0]])
    y = np.array([1.0, -1.0])
    with pytest.raises(ValueError, match="^gamma must be strictly positive, got -1$"):
        fit(x, y, -1, 1.0, linear())
    with pytest.raises(ValueError, match="^eta must be strictly positive, got 0.0$"):
        fit(x, y, 1.0, 0.0, linear())


def test_singular_fit_names_the_rkm_system():
    # identical points and extreme penalties make the system rank deficient
    x = np.zeros((3, 2))
    with pytest.raises(SingularSystem, match="^rkm system: "):
        fit(x, np.array([1.0, -1.0, 1.0]), 1e300, 1e-300, linear())
