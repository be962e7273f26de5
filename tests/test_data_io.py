import json
from pathlib import Path

import numpy as np
import pytest

from trkm.classifier import TrkmClassifierHyperparams, fit_classifier, predict_labels
from trkm.data import (
    CLASSIFY,
    REGRESS,
    Dataset,
    apply_normalization,
    load_csv,
    load_feature_matrix,
    map_labels,
    normalize_minmax,
)
from trkm.errors import (
    CorruptModel,
    EmptyClass,
    MissingColumn,
    MoreThanTwoClasses,
    NonNumericFeature,
    ParseError,
    VersionMismatch,
)
from trkm.kernels import gaussian
from trkm.model_io import SavedModel, load_model, save_model
from trkm.models import KIND_CLASSIFIER, KIND_REGRESSOR, KIND_RKM
from trkm.regressor import TrkmRegressorHyperparams, fit_regressor, predict_regression
from trkm.rkm import fit_rkm, predict_rkm
from trkm.synthetic import blobs


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_load_csv_maps_labels_by_byte_order(tmp_path):
    path = write(tmp_path, "d.csv", "x1,x2,cls\n1,2,a\n3,4,b\n5,6,a\n")
    ds = load_csv(path, label_column="cls")
    assert ds.task == CLASSIFY
    assert ds.label_mapping == (("a", -1), ("b", 1))
    assert np.array_equal(ds.target, [-1, 1, -1])
    assert ds.feature_names == ("x1", "x2")
    assert np.array_equal(ds.X, [[1, 2], [3, 4], [5, 6]])


def test_load_csv_non_numeric_feature_names_row_and_column(tmp_path):
    path = write(tmp_path, "d.csv", "x1,x2,cls\n1,2,a\n3,abc,b\n")
    with pytest.raises(NonNumericFeature, match=r"line 3, column 2.*'abc'"):
        load_csv(path, label_column="cls")
    assert issubclass(NonNumericFeature, ParseError)  # it is a parse failure


def test_load_csv_header_skipped_and_indexed_column(tmp_path):
    path = write(tmp_path, "d.csv", "9,9,1\n1,2,1\n3,4,2\n")
    ds = load_csv(path, label_column=2, header=False)
    assert ds.n == 3  # the first line is data when header=False
    assert np.array_equal(ds.target, [-1, -1, 1])


def test_load_csv_more_than_two_classes(tmp_path):
    path = write(tmp_path, "d.csv", "x,y\n1,a\n2,b\n3,c\n")
    with pytest.raises(MoreThanTwoClasses):
        load_csv(path, label_column="y")


def test_load_csv_missing_column(tmp_path):
    path = write(tmp_path, "d.csv", "x,y\n1,2\n")
    with pytest.raises(MissingColumn):
        load_csv(path, label_column="nope")
    with pytest.raises(MissingColumn):
        load_csv(path, label_column=7)


def test_load_csv_ragged_row(tmp_path):
    path = write(tmp_path, "d.csv", "x,y,c\n1,2,a\n1,2\n")
    with pytest.raises(ParseError, match="line 3"):
        load_csv(path, label_column="c")


def test_load_csv_regression_targets(tmp_path):
    path = write(tmp_path, "d.csv", "x,t\n1,0.5\n2,1.5\n")
    ds = load_csv(path, target_column="t")
    assert ds.task == REGRESS
    assert np.array_equal(ds.target, [0.5, 1.5])


def test_load_csv_requires_exactly_one_target_kind(tmp_path):
    path = write(tmp_path, "d.csv", "x,t\n1,0.5\n")
    with pytest.raises(ValueError):
        load_csv(path)
    with pytest.raises(ValueError):
        load_csv(path, label_column="t", target_column="t")


def test_load_feature_matrix(tmp_path):
    path = write(tmp_path, "d.csv", "a,b\n1,2\n3,4\n")
    x, names = load_feature_matrix(path)
    assert names == ("a", "b")
    assert np.array_equal(x, [[1, 2], [3, 4]])


def test_map_labels_single_class_rejected():
    with pytest.raises(EmptyClass, match=r"^expected two distinct labels, found \['a'\]$"):
        map_labels(["a", "a", "a"])


def test_normalize_minmax_examples():
    ds = Dataset(
        X=np.array([[2.0, 5.0], [4.0, 5.0], [6.0, 5.0]]),
        target=np.array([-1, 1, 1]),
        task=CLASSIFY,
    )
    out = normalize_minmax(ds)
    assert np.array_equal(out.X[:, 0], [0.0, 0.5, 1.0])
    assert np.array_equal(out.X[:, 1], [0.0, 0.0, 0.0])  # constant column
    assert out.normalization == ((2.0, 6.0), (5.0, 5.0))


def test_recorded_transform_maps_train_min_to_zero():
    train = Dataset(X=np.array([[2.0], [6.0]]), target=np.array([-1, 1]), task=CLASSIFY)
    fitted = normalize_minmax(train)
    test = Dataset(X=np.array([[2.0], [8.0]]), target=np.array([1, 1]), task=CLASSIFY)
    mapped = apply_normalization(test, fitted.normalization)
    assert mapped.X[0, 0] == 0.0
    assert mapped.X[1, 0] == 1.5  # values beyond the train range extrapolate


def test_normalization_is_idempotent(rng):
    ds = Dataset(X=rng.normal(size=(10, 3)), target=rng.normal(size=10), task=REGRESS)
    once = normalize_minmax(ds)
    twice = normalize_minmax(once)
    assert np.array_equal(once.X, twice.X)


def fitted_models(rng):
    x, y = blobs(8, 5.0, seed=6)
    chp = TrkmClassifierHyperparams.equal_penalty(0.5, 0.25, gaussian(1.0))
    classifier = fit_classifier(x[y == 1], x[y == -1], chp)
    xr = rng.normal(size=(12, 2))
    yr = rng.normal(size=12)
    rhp = TrkmRegressorHyperparams.equal_penalty(1.5, 0.75, gaussian(0.8))
    regressor = fit_regressor(xr, yr, rhp)
    rkm = fit_rkm(x, y.astype(float), 1.0, 0.5, gaussian(1.0))
    return classifier, regressor, rkm, x, xr


def test_model_round_trip_bitwise_predictions(tmp_path, rng):
    classifier, regressor, rkm, x, xr = fitted_models(rng)
    cases = [
        (classifier, KIND_CLASSIFIER, CLASSIFY, x, predict_labels),
        (regressor, KIND_REGRESSOR, REGRESS, xr, predict_regression),
        (rkm, KIND_RKM, CLASSIFY, x, predict_rkm),
    ]
    for i, (model, kind, task, data, predict) in enumerate(cases):
        path = str(tmp_path / f"m{i}.json")
        save_model(
            SavedModel(
                model=model,
                normalization=((0.25, 0.75), (-1.0, 1.0)),
                label_mapping=(("-1", -1), ("1", 1)) if task == CLASSIFY else None,
            ),
            path,
        )
        loaded = load_model(path)
        assert loaded.kind == kind and loaded.task == task
        assert loaded.normalization == ((0.25, 0.75), (-1.0, 1.0))
        before = predict(model, data)
        after = predict(loaded.model, data)
        assert before.tobytes() == after.tobytes()


def test_truncated_model_file_is_corrupt(tmp_path, rng):
    classifier, _, _, x, _ = fitted_models(rng)
    path = str(tmp_path / "m.json")
    save_model(SavedModel(model=classifier), path)
    text = open(path).read()
    open(path, "w").write(text[: len(text) // 2])
    with pytest.raises(CorruptModel):
        load_model(path)


def test_tampered_payload_fails_checksum(tmp_path, rng):
    classifier, _, _, _, _ = fitted_models(rng)
    path = str(tmp_path / "m.json")
    save_model(SavedModel(model=classifier), path)
    doc = json.load(open(path))
    doc["payload"]["body"]["b1"] = (1.5).hex()
    json.dump(doc, open(path, "w"))
    with pytest.raises(CorruptModel, match="checksum"):
        load_model(path)


def test_version_bump_is_rejected_before_checksum(tmp_path, rng):
    classifier, _, _, _, _ = fitted_models(rng)
    path = str(tmp_path / "m.json")
    save_model(SavedModel(model=classifier), path)
    doc = json.load(open(path))
    doc["format_version"] = 2
    json.dump(doc, open(path, "w"))
    with pytest.raises(VersionMismatch):
        load_model(path)


GOLDEN = Path(__file__).parent / "data"


@pytest.mark.parametrize("kind", [KIND_CLASSIFIER, KIND_REGRESSOR, KIND_RKM])
def test_golden_model_file_loads_resaves_and_predicts(tmp_path, rng, kind):
    # Saved by the per-kind encoder that the model table replaced, from the
    # models of fitted_models() with the normalization and labels below.
    golden = GOLDEN / f"golden_{kind}.json"
    loaded = load_model(str(golden))
    assert loaded.kind == kind
    assert loaded.normalization == ((0.25, 0.75), (-1.0, 1.0))
    resaved = tmp_path / "m.json"
    save_model(loaded, str(resaved))
    assert resaved.read_bytes() == golden.read_bytes()

    classifier, regressor, rkm, x, xr = fitted_models(rng)
    fresh, data, predict = {
        KIND_CLASSIFIER: (classifier, x, predict_labels),
        KIND_REGRESSOR: (regressor, xr, predict_regression),
        KIND_RKM: (rkm, x, predict_rkm),
    }[kind]
    assert predict(loaded.model, data).tobytes() == predict(fresh, data).tobytes()
