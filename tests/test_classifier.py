import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from trkm.classifier import (
    TrkmClassifierHyperparams,
    decision_values,
    fit_classifier,
    predict_labels,
)
from trkm.errors import DimensionMismatch, EmptyClass, SingularSystem
from trkm.kernels import gaussian, linear
from trkm.metrics import classification_accuracy
from trkm.synthetic import blobs

from conftest import random_two_class
from oracles import classifier_slacks


def equal_hp(gamma=1.0, eta=1.0, kernel=None):
    return TrkmClassifierHyperparams.equal_penalty(gamma, eta, kernel or gaussian(1.0))


def test_hyperparams_must_be_positive():
    with pytest.raises(ValueError):
        TrkmClassifierHyperparams(0.0, 1.0, 1.0, 1.0, gaussian(1.0))
    with pytest.raises(ValueError):
        TrkmClassifierHyperparams(1.0, 1.0, 1.0, -2.0, gaussian(1.0))


def test_single_sample_per_class_balance_is_exact():
    model = fit_classifier([[0.0, 0.0]], [[1.0, 1.0]], equal_hp())
    assert model.h1.sum() == 1.0
    assert model.h2.sum() == -1.0


def test_balance_with_unequal_class_sizes(rng):
    a = rng.normal(size=(3, 4))
    b = rng.normal(size=(5, 4))
    model = fit_classifier(a, b, equal_hp())
    assert model.h1.sum() == pytest.approx(5.0, abs=1e-6 * 5)
    assert model.h2.sum() == pytest.approx(-3.0, abs=1e-6 * 3)


def test_balance_holds_after_every_fit(rng):
    for _ in range(20):
        x, y = random_two_class(rng)
        model = fit_classifier(x[y == 1], x[y == -1], equal_hp(0.3, 2.0))
        n1, n2 = (y == 1).sum(), (y == -1).sum()
        assert model.h1.sum() == pytest.approx(n2, abs=1e-6 * n2)
        assert model.h2.sum() == pytest.approx(-n1, abs=1e-6 * n1)


def test_separated_blobs_reach_perfect_training_accuracy():
    x, y = blobs(20, 5.0, seed=0)
    model = fit_classifier(x[y == 1], x[y == -1], equal_hp())
    assert classification_accuracy(predict_labels(model, x), y) == 100.0


def test_blob_positive_training_point_has_positive_combined_score():
    x, y = blobs(20, 5.0, seed=0)
    model = fit_classifier(x[y == 1], x[y == -1], equal_hp())
    g1, g2 = decision_values(model, x[y == 1])
    assert (g1 + g2 > 0).all()


def test_decision_values_on_empty_input():
    x, y = blobs(5, 5.0, seed=1)
    model = fit_classifier(x[y == 1], x[y == -1], equal_hp())
    g1, g2 = decision_values(model, np.empty((0, 2)))
    assert g1.shape == (0,) and g2.shape == (0,)
    assert predict_labels(model, np.empty((0, 2))).shape == (0,)


def test_linear_kernel_matches_explicit_weights(rng):
    for _ in range(20):
        x, y = random_two_class(rng)
        a, b = x[y == 1], x[y == -1]
        hp = TrkmClassifierHyperparams(
            gamma1=float(rng.uniform(0.5, 5)),
            gamma2=float(rng.uniform(0.5, 5)),
            eta1=float(rng.uniform(0.5, 5)),
            eta2=float(rng.uniform(0.5, 5)),
            kernel=linear(),
        )
        model = fit_classifier(a, b, hp)
        queries = rng.normal(size=(6, x.shape[1]))
        g1, g2 = decision_values(model, queries)
        w1 = (a.T @ model.h1 - b.T @ np.ones(len(b))) / hp.gamma1
        w2 = (b.T @ model.h2 + a.T @ np.ones(len(a))) / hp.gamma2
        assert np.allclose(g1, queries @ w1 + model.b1, atol=1e-10)
        assert np.allclose(g2, queries @ w2 + model.b2, atol=1e-10)


def test_sign_zero_ties_to_positive_class():
    # With zero support vectors under a linear kernel, the scores reduce to
    # the biases; b1 = -b2 makes g1 + g2 exactly zero for every input.
    from trkm.classifier import TrkmClassifierModel

    model = TrkmClassifierModel(
        A=np.zeros((1, 2)), B=np.zeros((1, 2)),
        h1=np.zeros(1), b1=1.0, h2=np.zeros(1), b2=-1.0,
        hyperparams=equal_hp(kernel=linear()),
    )
    g1, g2 = decision_values(model, np.array([[3.0, -4.0]]))
    assert g1[0] + g2[0] == 0.0
    assert predict_labels(model, np.array([[3.0, -4.0]]))[0] == 1


def test_swapping_classes_flips_every_label(rng):
    x, y = random_two_class(rng, n_max=24)
    hp = equal_hp(0.7, 0.9)
    queries = rng.normal(size=(15, x.shape[1]))
    forward = fit_classifier(x[y == 1], x[y == -1], hp)
    swapped = fit_classifier(x[y == -1], x[y == 1], hp)
    assert np.array_equal(
        predict_labels(forward, queries), -predict_labels(swapped, queries)
    )


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_class_swap_negates_both_systems_and_flips_every_label(seed):
    # With equal penalties the swapped fit's class +1 system is the forward
    # class -1 system with both right-hand sides negated (and vice versa), so
    # h1' = -h2, b1' = -b2, h2' = -h1, b2' = -b1, hence g1' + g2' = -(g1 + g2).
    # The two fits round differently, so values agree to 1e-9 (seen: 6e-15).
    rng = np.random.default_rng(seed)
    x, y = random_two_class(rng, n_max=24)
    hp = equal_hp(0.7, 0.9)
    queries = rng.normal(size=(15, x.shape[1]))
    forward = fit_classifier(x[y == 1], x[y == -1], hp)
    swapped = fit_classifier(x[y == -1], x[y == 1], hp)
    for mine, theirs in (("h1", "h2"), ("b1", "b2"), ("h2", "h1"), ("b2", "b1")):
        assert np.allclose(getattr(swapped, mine), -getattr(forward, theirs), rtol=1e-9, atol=1e-9)
    score = sum(decision_values(forward, queries))
    assert np.allclose(sum(decision_values(swapped, queries)), -score, rtol=1e-9, atol=1e-9)
    assume(np.abs(score).min() >= 1e-9)
    assert np.array_equal(predict_labels(swapped, queries), -predict_labels(forward, queries))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_permuting_training_rows_keeps_every_label(seed):
    # A row permutation P turns each class system into P K P^T with P-permuted
    # right-hand sides: h is permuted, b is kept, and every decision value is
    # the same sum taken in another order.
    rng = np.random.default_rng(seed)
    x, y = random_two_class(rng)
    perm = rng.permutation(len(y))
    hp = equal_hp(0.7, 0.9)
    queries = rng.normal(size=(15, x.shape[1]))
    forward = fit_classifier(x[y == 1], x[y == -1], hp)
    xp, yp = x[perm], y[perm]
    permuted = fit_classifier(xp[yp == 1], xp[yp == -1], hp)
    score = sum(decision_values(forward, queries))
    assert np.allclose(sum(decision_values(permuted, queries)), score, rtol=1e-9, atol=1e-9)
    assume(np.abs(score).min() >= 1e-9)
    assert np.array_equal(predict_labels(permuted, queries), predict_labels(forward, queries))


def test_stationarity_residuals_in_kernel_form(rng):
    for _ in range(10):
        x, y = random_two_class(rng)
        hp = equal_hp(float(rng.choice([1e-2, 1.0, 1e2])), float(rng.choice([1e-2, 1.0, 1e2])))
        model = fit_classifier(x[y == 1], x[y == -1], hp)
        xi1, xi2 = classifier_slacks(model)
        assert np.max(np.abs(hp.eta1 * model.h1 - xi1)) <= 1e-6
        assert np.max(np.abs(hp.eta2 * model.h2 - xi2)) <= 1e-6


def test_fenchel_young_bound_and_equality_point(rng):
    x, y = random_two_class(rng)
    hp = equal_hp(2.0, 0.5)
    model = fit_classifier(x[y == 1], x[y == -1], hp)
    for xi, eta in zip(classifier_slacks(model), (hp.eta1, hp.eta2)):
        lhs = xi @ xi / (2.0 * eta)
        for _ in range(100):
            h = rng.normal(size=xi.shape)
            assert lhs >= xi @ h - eta / 2.0 * (h @ h) - 1e-9
        h_star = xi / eta
        assert lhs == pytest.approx(xi @ h_star - eta / 2.0 * (h_star @ h_star), abs=1e-9)


def test_fit_is_bitwise_deterministic(rng):
    x, y = random_two_class(rng)
    hp = equal_hp(0.3, 1.7)
    m1 = fit_classifier(x[y == 1], x[y == -1], hp)
    m2 = fit_classifier(x[y == 1], x[y == -1], hp)
    assert m1.h1.tobytes() == m2.h1.tobytes()
    assert m1.h2.tobytes() == m2.h2.tobytes()
    assert m1.b1 == m2.b1 and m1.b2 == m2.b2


def test_empty_class_is_rejected(rng):
    with pytest.raises(EmptyClass):
        fit_classifier(np.empty((0, 2)), rng.normal(size=(3, 2)), equal_hp())
    with pytest.raises(EmptyClass):
        fit_classifier(rng.normal(size=(3, 2)), np.empty((0, 2)), equal_hp())


def test_feature_count_mismatch_is_rejected(rng):
    with pytest.raises(DimensionMismatch):
        fit_classifier(rng.normal(size=(3, 2)), rng.normal(size=(3, 4)), equal_hp())
    x, y = random_two_class(rng)
    model = fit_classifier(x[y == 1], x[y == -1], equal_hp())
    with pytest.raises(DimensionMismatch):
        decision_values(model, rng.normal(size=(2, x.shape[1] + 1)))


def test_singular_fit_names_the_failing_class_system():
    # duplicate identical points + extreme penalties make the +1 system
    # numerically rank deficient
    a = np.zeros((2, 2))
    b = np.array([[1.0, 1.0], [2.0, 2.0]])
    hp = TrkmClassifierHyperparams(1e300, 1.0, 1e-300, 1.0, linear())
    with pytest.raises(SingularSystem, match=r"class \+1 system"):
        fit_classifier(a, b, hp)
