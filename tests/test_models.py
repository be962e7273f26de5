import importlib
import importlib.util

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trkm import classifier, models, regressor, rkm, solver
from trkm.classifier import TrkmClassifierHyperparams, fit_classifier, predict_labels
from trkm.data import CLASSIFY, REGRESS
from trkm.kernels import gaussian, linear
from trkm.metrics import regression_errors
from trkm.regressor import TrkmRegressorHyperparams, fit_regressor, predict_regression
from trkm.rkm import fit_rkm, predict_rkm
from trkm.synthetic import blobs

from conftest import REPO

PARAMS = {"gamma": 0.5, "eta": 0.25, "sigma": 1.0}


def load_spans():
    spec = importlib.util.spec_from_file_location("spans", REPO / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_regressor_and_classifier_share_one_hyperparams_class():
    assert TrkmRegressorHyperparams is TrkmClassifierHyperparams


def test_table_fits_and_predicts_as_the_model_functions(rng):
    x, y = blobs(8, 2.0, seed=6)
    xr, yr = rng.normal(size=(12, 2)), rng.normal(size=12)
    hp = TrkmClassifierHyperparams(0.5, 2.0, 0.25, 0.125, gaussian(1.0))
    params = {**PARAMS, "gamma2": 2.0, "eta2": 0.125}
    cases = [
        ("trkm", CLASSIFY, x, y, params, fit_classifier(x[y == 1], x[y == -1], hp), predict_labels),
        ("trkm", REGRESS, xr, yr, params, fit_regressor(xr, yr, hp), predict_regression),
        ("rkm", CLASSIFY, x, y, PARAMS, fit_rkm(x, y, 0.5, 0.25, gaussian(1.0)), predict_rkm),
    ]
    for kind, task, data, target, p, direct, predict in cases:
        model = models.fit(kind, task, data, target, p)
        assert type(model) is type(direct)
        assert models.predict(model, data).tobytes() == predict(direct, data).tobytes()
        assert models.n_features(model) == data.shape[1]


@pytest.mark.parametrize("entry", models.MODEL_TYPES, ids=lambda entry: entry.kind)
def test_fit_solves_its_modules_statement_bitwise(monkeypatch, rng, entry):
    # The fit and the grid fold read one statement of each system: every
    # system the fit hands to solve_bordered is the statement's .at(gamma, eta).
    if entry.task == CLASSIFY:
        x, y = blobs(8, 2.0, seed=6)
        y = y.astype(float)
    else:
        x, y = rng.normal(size=(12, 2)), rng.normal(size=12)
    twin = len(entry.system_penalties) == 2
    params = {**PARAMS, "gamma2": 2.0, "eta2": 0.125} if twin else PARAMS
    received = []

    def recording(solve):
        def recorded(system, *args, **kwargs):
            received.append(system)
            return solve(system, *args, **kwargs)
        return recorded

    monkeypatch.setattr(solver, "solve_bordered", recording(solver.solve_bordered))
    models.fit(entry.model_kind, entry.task, x, y, params)
    statement, _ = entry.grid_fold(x, y, x[:1], gaussian(params["sigma"]))
    expected = [system.at(*penalties(params))
                for system, penalties in zip(statement, entry.system_penalties)]
    assert len(received) == len(expected) == len(entry.system_penalties)
    for got, want in zip(received, expected):
        assert (got.gamma, got.eta, got.border_sign) == (want.gamma, want.eta, want.border_sign)
        assert got.kernel.tobytes() == want.kernel.tobytes()
        assert got.rhs_top.tobytes() == want.rhs_top.tobytes()
        assert float(got.rhs_bottom).hex() == float(want.rhs_bottom).hex()


def test_one_system_fit_refuses_second_penalties():
    x, y = blobs(6, 2.0, seed=1)
    with pytest.raises(ValueError, match="^gamma2, eta2: rkm with classify states one system"):
        models.fit("rkm", CLASSIFY, x, y, {**PARAMS, "gamma2": 5.0, "eta2": 7.0})


def test_explicit_kernel_replaces_sigma():
    x, y = blobs(6, 2.0, seed=1)
    model = models.fit("rkm", CLASSIFY, x, y, {"gamma": 1.0, "eta": 1.0}, linear())
    assert model.kernel == linear()


@pytest.mark.parametrize("kind, task", [("rkm", REGRESS), ("svm", CLASSIFY), ("trkm", "rank")])
def test_unsupported_pairs_are_refused_by_name(kind, task):
    x, y = blobs(6, 2.0, seed=1)
    with pytest.raises(ValueError) as info:
        models.fit(kind, task, x, y.astype(float), PARAMS)
    assert repr(kind) in str(info.value) and repr(task) in str(info.value)


def test_traced_names_resolve_on_their_modules():
    import trkm.cli
    import trkm.selection

    for name in load_spans().TRACED:
        layer, attr = name.split(".")
        assert callable(getattr(importlib.import_module(f"trkm.{layer}"), attr)), name
    assert trkm.cli.grid_search is trkm.selection.grid_search


def test_tracer_sees_fits_and_predicts_made_through_the_table(rng):
    import trkm.cli  # noqa: F401  (the tracer patches every trkm module)

    x, y = blobs(6, 2.0, seed=1)
    xr, yr = rng.normal(size=(8, 2)), rng.normal(size=8)
    tracer = load_spans().Tracer()
    tracer.install()
    try:
        for kind, task, data, target in (
            ("trkm", CLASSIFY, x, y), ("trkm", REGRESS, xr, yr), ("rkm", CLASSIFY, x, y),
        ):
            models.predict(models.fit(kind, task, data, target, PARAMS), data)
    finally:
        tracer.uninstall()
    names = {s["name"] for s in tracer.spans}
    for layer, fit, predict in load_spans().MODELS:
        assert {f"{layer}.{fit}", f"{layer}.{predict}"} <= names
    # two systems per TRKM fit, one per RKM fit, each measured from its BorderedSystem
    solves = [s for s in tracer.spans if s["name"] == "solver.solve_bordered"]
    assert len(solves) == 5
    for span in solves:
        assert span["residual_ratio"] <= 1.0 and span["flops"] > 0, span


@settings(max_examples=100)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 12), top=st.integers(-300, 300),
       zero_bottom=st.booleans())
def test_the_benchmarks_residual_ratio_reads_the_solvers_bound(seed, n, top, zero_bottom):
    # perfbench's gate residual_ratio_max <= 1 restates the residual bound;
    # it must divide by exactly solver.residual_bound, bitwise. The balance gate
    # holds sum(h) to 1e-6 * max(1, |rhs_bottom|), so rhs_bottom is 0 only for a
    # small rhs_top, and otherwise of rhs_top's size.
    rng = np.random.default_rng(seed)
    scale = 10.0**top
    system = solver.BorderedSystem(rng.normal(size=(n, n)), float(rng.uniform(0.5, 2.0)),
                                   float(n), int(rng.choice([-1, 1])), scale * rng.normal(size=n),
                                   0.0 if zero_bottom and top <= 4 else scale * float(rng.normal()))
    report = solver.solve_bordered(system, "guard")
    ratio = load_spans()._counts("solve", (system, "guard"), report)["residual_ratio"]
    expected = report.residual_norm / solver.residual_bound(system.rhs_top, system.rhs_bottom)
    assert np.float64(ratio).tobytes() == np.float64(expected).tobytes()


def test_column_scores_equal_per_column_scores_bitwise(rng):
    truth = rng.normal(size=37)
    values = truth[:, None] + rng.normal(size=(37, 5)) * [1e-9, 1e-3, 1.0, 10.0, 0.0]
    labels = rng.choice([-1, 1], size=(37, 5))
    for task, pred, target in ((REGRESS, values, truth), (CLASSIFY, labels, np.sign(truth))):
        assert models.column_scores(task, pred, target) == [
            models.score(task, pred[:, j], target) for j in range(5)
        ]


@settings(max_examples=200)
@given(pairs=st.lists(st.tuples(*[st.floats(-1e6, 1e6, allow_nan=False)] * 2),
                      min_size=1, max_size=40))
def test_regression_score_is_the_rmse_of_regression_errors_bitwise(pairs):
    # Grid cells are scored by metrics.rmse alone; reports read regression_errors.
    pred, truth = np.array(pairs).T
    score = models.score(REGRESS, pred, truth)
    assert np.float64(score).tobytes() == np.float64(regression_errors(pred, truth).rmse).tobytes()
    assert models.column_scores(REGRESS, pred[:, None], truth) == [score]
