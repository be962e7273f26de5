import importlib
import importlib.util

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trkm import classifier, models, regressor, rkm, solver
from trkm.data import CLASSIFY, REGRESS
from trkm.kernels import gaussian, linear
from trkm.metrics import regression_errors
from trkm.synthetic import blobs

from conftest import REPO

PARAMS = {"gamma": 0.5, "eta": 0.25, "sigma": 1.0}


def load_spans():
    spec = importlib.util.spec_from_file_location("spans", REPO / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_table_fits_and_predicts_as_the_model_functions(rng):
    # models.fit fills the record from the kind's fit hook, field by field in file
    # order; models.predict is the kind's predict hook, decide of the summed terms.
    x, y = blobs(8, 2.0, seed=6)
    xr, yr = rng.normal(size=(12, 2)), rng.normal(size=12)
    params = {**PARAMS, "gamma2": 2.0, "eta2": 0.125}
    penalties = [(0.5, 0.25), (2.0, 0.125)]
    cases = [
        ("trkm", CLASSIFY, x, y, params, classifier.fit_classifier, classifier.predict_labels),
        ("trkm", REGRESS, xr, yr, params, regressor.fit_regressor, regressor.predict_regression),
        ("rkm", CLASSIFY, x, y, PARAMS, rkm.fit_rkm, rkm.predict_rkm),
    ]
    for kind, task, data, target, p, fit, predict in cases:
        model = models.fit(kind, task, data, target, p)
        rows, reports = fit(data, target.astype(float), penalties[:len(model.fit_diag)],
                            gaussian(1.0))
        solutions = [value for rep in reports for value in (rep.h, rep.b)]
        assert list(model.fields) == [name for name, _ in model.type.body]
        for got, want in zip(model.fields.values(), [*rows, *solutions]):
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
        assert list(model.hyperparams) == list(model.type.penalties)
        assert models.predict(model, data).tobytes() == predict(model, data).tobytes()
        decided = model.type.module.decide(model.total(data))
        assert predict(model, data).tobytes() == decided.tobytes()
        assert model.n_features == data.shape[1]
        assert (model.normalization, model.label_mapping) == (None, None)


@pytest.mark.parametrize("entry", models.MODEL_TYPES, ids=lambda entry: entry.kind)
def test_fit_solves_its_modules_statement_bitwise(monkeypatch, rng, entry):
    # The fit and the grid fold read one statement of each system: every
    # system the fit hands to solve_bordered is the statement's .at(gamma, eta).
    if entry.task == CLASSIFY:
        x, y = blobs(8, 2.0, seed=6)
        y = y.astype(float)
    else:
        x, y = rng.normal(size=(12, 2)), rng.normal(size=12)
    twin = len(entry.suffixes) == 2
    params = {**PARAMS, "gamma2": 2.0, "eta2": 0.125} if twin else PARAMS
    received = []

    def recording(solve):
        def recorded(system, *args, **kwargs):
            received.append(system)
            return solve(system, *args, **kwargs)
        return recorded

    monkeypatch.setattr(solver, "solve_bordered", recording(solver.solve_bordered))
    models.fit(entry.model_kind, entry.task, x, y, params)
    statement, _ = entry.statement(x, y, x[:1], gaussian(params["sigma"]))
    expected = [system.at(*penalties)
                for system, penalties in zip(statement, entry.system_penalties(params))]
    assert len(received) == len(expected) == len(entry.suffixes)
    for got, want in zip(received, expected):
        assert (got.gamma, got.eta, got.border_sign) == (want.gamma, want.eta, want.border_sign)
        assert np.asarray(got.kernel).tobytes() == np.asarray(want.kernel).tobytes()
        assert got.rhs_top.tobytes() == want.rhs_top.tobytes()
        assert float(got.rhs_bottom).hex() == float(want.rhs_bottom).hex()


@pytest.mark.parametrize("model_kind", [models.TRKM, models.RKM])
def test_classifiers_refuse_labels_other_than_plus_or_minus_one(model_kind):
    # TRKM-C once split the rows by y == 1 and y == -1 and fitted on 7 of these 9
    x = np.arange(18.0).reshape(9, 2)
    y = np.array([1, -1, 0, 1, -1, 2, 1, -1, 1])
    with pytest.raises(ValueError, match=r"^labels must be \+1 or -1$"):
        models.fit(model_kind, CLASSIFY, x, y, PARAMS)


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
    spans = load_spans()
    tracer = spans.Tracer()
    tracer.install()
    cases = (("trkm", CLASSIFY, x, y, x[:5]), ("trkm", REGRESS, xr, yr, xr[:3]),
             ("rkm", CLASSIFY, x, y, x[:7]))
    try:
        for kind, task, data, target, queries in cases:
            models.predict(models.fit(kind, task, data, target, PARAMS), queries)
    finally:
        tracer.uninstall()
    # One hook span per fit and per predict of each kind, so that perfbench's per-kind
    # counts read what ran; each predict span counts the rows it was given.
    for (layer, fit, predict), (*_, queries) in zip(spans.MODELS, cases):
        assert [s["name"] for s in tracer.spans].count(f"{layer}.{fit}") == 1, layer
        (span,) = [s for s in tracer.spans if s["name"] == f"{layer}.{predict}"]
        assert span["rows"] == len(queries), layer
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
    system = solver.BorderedSystem(solver.KernelBlock.holding(rng.normal(size=(n, n))),
                                   float(rng.uniform(0.5, 2.0)),
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


def test_ldlt_fits_as_lu_fits_above_the_gate(monkeypatch):
    # At n = 600 every system of the three models (TRKM-C's two 300-row classes
    # included) is factored by LDL^T; forcing the gate past every order fits them by
    # LU. Labels are equal, and h, b and regression predictions agree within 1e-10
    # relative (the observed gap is about 2e-14), so model files written by the two
    # differ only in their last hex digits.
    rng = np.random.default_rng(22)
    x, queries = rng.normal(size=(600, 8)), rng.normal(size=(600, 8))
    score = x[:, 0] + x[:, 1] * x[:, 2] + rng.normal(scale=0.5, size=600)
    labels = np.where(score > np.median(score), 1, -1)
    targets = np.sin(x[:, 0]) + x[:, 1] ** 2 + rng.normal(scale=0.1, size=600)
    params = {"gamma": 1.0, "eta": 0.1, "sigma": 1.0}
    for kind, task, target in (("trkm", CLASSIFY, labels), ("rkm", CLASSIFY, labels),
                               ("trkm", REGRESS, targets)):
        ldlt = models.fit(kind, task, x, target, params)
        assert min(len(rep.h) for rep in ldlt.fit_diag) + 1 >= solver.LDL_MIN_ORDER
        with monkeypatch.context() as patch:
            patch.setattr(solver, "LDL_MIN_ORDER", 10**9)
            lu = models.fit(kind, task, x, target, params)
        for name in ("h", "b", "h1", "b1", "h2", "b2"):
            if name in lu.fields:
                expected = np.asarray(lu.fields[name])
                assert np.allclose(ldlt.fields[name], expected, rtol=0,
                                   atol=1e-10 * np.max(np.abs(expected))), (kind, task, name)
        predicted, expected = models.predict(ldlt, queries), models.predict(lu, queries)
        if task == CLASSIFY:
            assert predicted.tolist() == expected.tolist()
        else:
            assert np.allclose(predicted, expected, rtol=0,
                               atol=1e-10 * np.max(np.abs(expected)))
