import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from trkm import models
from trkm.data import (
    CLASSIFY,
    REGRESS,
    Dataset,
    apply_normalization,
    load_csv,
    load_feature_matrix,
    map_labels,
    normalize_minmax,
    parse_feature_table,
    parse_targets,
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
from trkm.model_io import SavedModel, _decode_array, _unhex, load_model, save_model
from trkm.models import KIND_CLASSIFIER, KIND_REGRESSOR, KIND_RKM
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


def test_a_byte_order_mark_loads_as_the_plain_file(tmp_path):
    # A spreadsheet's "CSV UTF-8" export starts with a byte-order mark, which is not part
    # of the first column's name.
    text = "cls,x1,x2\nb,1,2\na,3,4\nb,5,6\n".encode()
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    plain.write_bytes(text)
    marked.write_bytes(b"\xef\xbb\xbf" + text)
    want, got = (load_csv(str(path), label_column="cls") for path in (plain, marked))
    assert (got.X.tobytes(), got.target.tobytes()) == (want.X.tobytes(), want.target.tobytes())
    assert (got.feature_names, got.label_mapping) == (want.feature_names, want.label_mapping)
    assert got.feature_names == ("x1", "x2")


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
    with pytest.raises(MissingColumn, match="column index -1 out of range"):
        load_csv(path, label_column=-1)  # an index counts from the first column only


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
    classifier = models.fit("trkm", CLASSIFY, x, y, {"gamma": 0.5, "eta": 0.25}, gaussian(1.0))
    xr = rng.normal(size=(12, 2))
    yr = rng.normal(size=12)
    regressor = models.fit("trkm", REGRESS, xr, yr, {"gamma": 1.5, "eta": 0.75}, gaussian(0.8))
    rkm = models.fit("rkm", CLASSIFY, x, y.astype(float), {"gamma": 1.0, "eta": 0.5},
                     gaussian(1.0))
    return classifier, regressor, rkm, x, xr


def test_model_round_trip_bitwise_predictions(tmp_path, rng):
    classifier, regressor, rkm, x, xr = fitted_models(rng)
    cases = [
        (classifier, KIND_CLASSIFIER, CLASSIFY, x),
        (regressor, KIND_REGRESSOR, REGRESS, xr),
        (rkm, KIND_RKM, CLASSIFY, x),
    ]
    for i, (model, kind, task, data) in enumerate(cases):
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
        before = models.predict(model, data)
        after = models.predict(loaded.model, data)
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
    fresh, data = {
        KIND_CLASSIFIER: (classifier, x),
        KIND_REGRESSOR: (regressor, xr),
        KIND_RKM: (rkm, x),
    }[kind]
    assert models.predict(loaded.model, data).tobytes() == models.predict(fresh, data).tobytes()


# Cells of generated CSV text: numbers float() reads (padded, quoted, with
# underscores, a non-ASCII digit), non-finite ones, and some it refuses.
GOOD_CELLS = ["0", "1", "-2.5", " 3 ", "1e3", "+.5", "1_0", '"4"', "\u0661", "7\t"]
FLAWED_CELLS = ["nan", "inf", "-Infinity", "1e400", "", " ", "abc", "0x10", '"1,5"', "1__0"]


@st.composite
def csv_files(draw):
    """(text, column, header) of a small CSV of good cells with up to two flaws: a bad or
    non-finite cell, a short or long row, or a blank line, each anywhere."""
    width = draw(st.integers(1, 4))
    good = st.sampled_from(GOOD_CELLS)
    rows = [draw(st.lists(good, min_size=width, max_size=width))
            for _ in range(draw(st.integers(0, 6)))]
    for _ in range(draw(st.integers(0, 2)) if rows else 0):
        i = draw(st.integers(0, len(rows) - 1))
        flaw = draw(st.sampled_from(["cell", "cell", "short", "long", "blank"]))
        if flaw == "cell" and rows[i]:
            rows[i][draw(st.integers(0, len(rows[i]) - 1))] = draw(st.sampled_from(FLAWED_CELLS))
        elif flaw == "short":
            rows[i] = rows[i][:-1]
        elif flaw == "long":
            rows[i] = rows[i] + [draw(good)]
        else:
            rows.insert(i, draw(st.sampled_from([[], [" "]])))
    column = draw(st.one_of(
        st.none(),
        st.integers(0, width - 1),
        st.integers(0, width - 1),
        st.sampled_from([-1, width]),  # out of range: an index counts from 0 only
        st.sampled_from(["1", "3", "-1", "zz", "4"]),  # names, some of them in a header
    ))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    text = newline.join(",".join(row) for row in rows) + draw(st.sampled_from(["", newline]))
    return text, column, draw(st.booleans())


def outcome(parse, path, column, header):
    """The parse's (X bytes, shape, dtype, C-contiguous, tokens, names), or its error's type
    and text."""
    try:
        x, tokens, names = parse(path, column, ",", header)
    except Exception as exc:  # noqa: BLE001 - the type and message are compared
        return type(exc), str(exc)
    return x.tobytes(), x.shape, x.dtype, x.flags.c_contiguous, tokens, names


@settings(max_examples=400, deadline=None, derandomize=True)
@given(case=csv_files())
@example(case=("a,b,label\n1,2\n", "label", True))  # a header wider than its rows
def test_column_parser_matches_the_per_cell_oracle(tmp_path_factory, case):
    text, column, header = case
    path = tmp_path_factory.mktemp("csv") / "d.csv"
    path.write_bytes(text.encode("utf-8"))
    got = outcome(parse_feature_table, str(path), column, header)
    assert got == outcome(oracles.parse_feature_table, str(path), column, header)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(tokens=st.lists(st.sampled_from(GOOD_CELLS + FLAWED_CELLS), max_size=6))
def test_parse_targets_matches_one_float_per_token(tokens):
    try:
        expected = np.array([float(t) for t in tokens], dtype=float)
    except ValueError:
        expected = np.array([np.nan])
    if not np.isfinite(expected).all():
        with pytest.raises(ParseError, match="is not a finite number$"):
            parse_targets("t.csv", tokens)
        return
    assert parse_targets("t.csv", tokens).tobytes() == expected.tobytes()


STORED_VALUE = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(float.hex),
    st.sampled_from(["0x1p+0", " 0x1.8p1 ", "nan", "-inf", "1e3", "12", "", "zz", "0x1p",
                     "0x1.gp0"]),
    st.sampled_from([None, 1.5, 2, True, ["0x1p0"]]),
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(values=st.lists(STORED_VALUE, max_size=8))
def test_array_decoder_matches_one_unhex_per_value(values):
    blob = {"shape": [len(values)], "values": values}
    try:
        expected = np.array([_unhex(v) for v in values], dtype=float)
    except CorruptModel as exc:
        with pytest.raises(CorruptModel) as caught:
            _decode_array(blob)
        assert str(caught.value) == str(exc)
        return
    assert _decode_array(blob).tobytes() == expected.tobytes()


@pytest.mark.parametrize("values, message", [
    (5, "^malformed array field: 'int' object is not iterable$"),
    (None, "^malformed array field: 'NoneType' object is not iterable$"),
    ("0x1", "^bad float field 'x'$"),  # a string is read one character at a time
])
def test_array_decoder_refuses_values_that_are_not_a_list(values, message):
    with pytest.raises(CorruptModel, match=message):
        _decode_array({"shape": [1], "values": values})
