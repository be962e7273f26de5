import contextlib
import hashlib
import io
import json
import math
import os
import re
import tempfile
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from trkm import models
from trkm.cli import _checked_config, _write_json, main
from trkm.errors import SingularSystem, TooFewSamples
from trkm.metrics import classification_accuracy
from trkm.model_io import save_model
from trkm.selection import GridCell
from trkm.synthetic import blobs, crossplane, sine, write_classification_csv, write_regression_csv

from conftest import DATA_DIR, run_python


@pytest.fixture
def blob_csv(tmp_path):
    x, y = blobs(12, 5.0, seed=0)
    path = tmp_path / "blobs.csv"
    write_classification_csv(str(path), x, y)
    return str(path)


@pytest.fixture
def sine_csv(tmp_path):
    x, y = sine(40, seed=3)
    path = tmp_path / "sine.csv"
    write_regression_csv(str(path), x, y)
    return str(path)


def run(*argv):
    return main(list(argv))


def test_train_then_predict_classifier(tmp_path, blob_csv, capsys):
    model_path = str(tmp_path / "model.json")
    code = run(
        "--output-dir", str(tmp_path),
        "train", "--task", "classify", "--data", blob_csv, "--label-col", "label",
        "--gamma", "0.1", "--eta", "0.001", "--sigma", "4",
        "--model-out", model_path,
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "residual" in out and "balance" in out and "pivot ratio" in out
    assert os.path.exists(model_path)

    pred_path = str(tmp_path / "preds.csv")
    code = run(
        "predict", "--model", model_path, "--data", blob_csv,
        "--label-col", "label", "--output", pred_path,
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "accuracy: 100.0000%" in out
    lines = open(pred_path).read().strip().splitlines()
    assert lines[0] == "prediction"
    assert len(lines) == 25  # header + 24 predictions
    assert set(lines[1:]) <= {"-1", "1"}


def test_predict_regressor_prints_four_metrics(tmp_path, sine_csv, capsys):
    model_path = str(tmp_path / "model.json")
    assert run(
        "train", "--task", "regress", "--data", sine_csv, "--target-col", "target",
        "--gamma", "0.001", "--eta", "0.001", "--sigma", "1",
        "--model-out", model_path,
    ) == 0
    capsys.readouterr()
    assert run(
        "predict", "--model", model_path, "--data", sine_csv,
        "--target-col", "target", "--output", str(tmp_path / "p.csv"),
    ) == 0
    out = capsys.readouterr().out
    for key in ("rmse:", "mae:", "pos_error:", "neg_error:"):
        assert key in out


@pytest.mark.parametrize("shift", [3.5, -1e3])
def test_shifting_regression_targets_shifts_predictions(tmp_path, shift):
    # Y -> Y + c*e leaves both cores and both balance rows alone and adds c*e
    # to each right-hand side, which the border columns (-e, +e) absorb: h1
    # and h2 stay, b1 and b2 each move by c, so g1, g2 and their mean do too.
    x, y = sine(40, seed=3)
    x_test, y_test = sine(15, seed=8)
    test_csv = str(tmp_path / "test.csv")
    write_regression_csv(test_csv, x_test, y_test)
    predictions = []
    for name, targets in (("base", y), ("shifted", y + shift)):
        train_csv, model = str(tmp_path / f"{name}.csv"), str(tmp_path / f"{name}.json")
        write_regression_csv(train_csv, x, targets)
        assert run("train", "--task", "regress", "--no-normalize", "--data", train_csv,
                   "--target-col", "target", "--gamma", "0.01", "--eta", "0.01",
                   "--sigma", "1", "--model-out", model) == 0
        out = tmp_path / f"{name}-pred.csv"
        assert run("predict", "--model", model, "--data", test_csv, "--target-col", "target",
                   "--output", str(out)) == 0
        predictions.append(np.array(out.read_text().split()[1:], dtype=float))
    base, shifted = predictions
    assert np.abs(shifted - base - shift).max() <= 1e-9 * max(1.0, abs(shift))


def test_regression_targets_in_large_units_train(tmp_path):
    # Targets times 1e11 make h as large, and sum(h) rounds by up to about n*eps*sum(|h|):
    # the balance gate allows that much, so this fit meets its gates.
    x, y = sine(40, seed=3)
    data = str(tmp_path / "d.csv")
    write_regression_csv(data, x, y * 1e11)
    assert run("train", "--task", "regress", "--data", data, "--target-col", "target",
               "--gamma", "1", "--eta", "1", "--sigma", "1",
               "--model-out", str(tmp_path / "m.json")) == 0


def test_a_grid_on_targets_in_large_units_has_no_balance_error_cell(tmp_path):
    # The full default grid on sine.csv with targets times 1e6 once failed 44 cells by the
    # balance gate alone; cells the residual gate fails are left to that gate.
    table = np.loadtxt(DATA_DIR / "synthetic" / "sine.csv", delimiter=",", skiprows=1, ndmin=2)
    data = str(tmp_path / "d.csv")
    write_regression_csv(data, table[:, :-1], table[:, -1] * 1e6)
    assert run("--output-dir", str(tmp_path), "gridsearch", "--task", "regress", "--data", data,
               "--target-col", "target") == 0
    cells = json.loads((tmp_path / "grid_results.json").read_text())["cells"]
    assert len(cells) == 1331
    assert not [cell["error"] for cell in cells if "balance" in cell["error"]]


def test_missing_required_flag_exits_2(tmp_path, capsys):
    grid = ("--task", "classify", "--data", str(tmp_path / "d.csv"), "--label-col", "label")
    for argv, named in (
        (("train", "--task", "classify"), []),
        (("--threads", "-3", "gridsearch", *grid), ["--threads", "'-3'"]),
        (("--seed", "-1", "gridsearch", *grid), ["--seed", "'-1'"]),
        (("gridsearch", "--seed", "-1", *grid), ["--seed", "'-1'"]),
    ):
        assert run(*argv) == 2
        err = capsys.readouterr().err
        assert "usage" in err and all(word in err for word in named), err


@pytest.mark.parametrize("command", [
    ["train", "--gamma", "1", "--eta", "1", "--sigma", "1"],
    ["gridsearch", "--gamma-grid", "1", "--eta-grid", "1", "--sigma-grid", "1", "--folds", "2"],
])
def test_rkm_regression_is_refused(tmp_path, sine_csv, capsys, command):
    model_out = tmp_path / "m.json"
    assert run(
        "--output-dir", str(tmp_path), *command,
        "--task", "regress", "--model-kind", "rkm",
        "--data", sine_csv, "--target-col", "target", "--model-out", str(model_out),
    ) == 2
    err = capsys.readouterr().err
    assert "'rkm'" in err and "'regress'" in err
    assert not model_out.exists()


@pytest.mark.parametrize("command, named", [
    (["train", "--gamma", "1", "--eta", "1", "--sigma", "1", "--gamma2", "5", "--eta2", "7"],
     "--gamma2, --eta2: "),
    (["train", "--gamma", "1", "--eta", "1", "--sigma", "1", "--eta2", "7"], "--eta2: "),
    (["gridsearch", "--gamma-grid", "1,2", "--eta-grid", "1", "--sigma-grid", "1", "--folds", "2",
      "--per-class-penalties"], "--per-class-penalties: "),
])
def test_rkm_refuses_second_system_penalties(tmp_path, blob_csv, capsys, command, named):
    model_out = tmp_path / "m.json"
    assert run(
        "--output-dir", str(tmp_path), *command,
        "--task", "classify", "--model-kind", "rkm",
        "--data", blob_csv, "--label-col", "label", "--model-out", str(model_out),
    ) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {named}") and "one system" in err, err
    assert not model_out.exists()


def test_linear_kernel_refuses_sigma(tmp_path, capsys):
    # The refusal comes before the data file is read: this one does not exist.
    model_out = tmp_path / "m.json"
    assert run(
        "train", "--task", "classify", "--data", str(tmp_path / "nope.csv"),
        "--label-col", "label", "--kernel", "linear", "--sigma", "4",
        "--gamma", "1", "--eta", "1", "--model-out", str(model_out),
    ) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --sigma: ") and "linear" in err, err
    assert not model_out.exists()


@pytest.mark.parametrize("argv, message", [
    (["train", "--task", "classify", "--label-col", "y", "--gamma", "1", "--eta", "1"],
     "--sigma is required for the gaussian kernel"),
    (["train", "--task", "classify", "--gamma", "1", "--eta", "1", "--sigma", "1"],
     "--label-col is required for --task classify"),
    (["train", "--task", "regress", "--gamma", "1", "--eta", "1", "--sigma", "1"],
     "--target-col is required for --task regress"),
    (["gridsearch", "--task", "classify"], "--label-col is required for --task classify"),
    (["gridsearch", "--task", "regress"], "--target-col is required for --task regress"),
], ids=["train-sigma", "train-label-col", "train-target-col", "grid-label-col", "grid-target-col"])
def test_a_missing_sigma_or_column_flag_exits_2(tmp_path, capsys, argv, message):
    # A usage error, found before the data file is read: this one does not exist.
    assert run(*argv, "--data", str(tmp_path / "nope.csv"), "--output-dir", str(tmp_path)) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("flag, value, expected", [
    *[(flag, value, "a finite positive number")
      for flag in ("--gamma", "--eta", "--gamma2", "--eta2", "--sigma")
      for value in ("0", "-1", "nan", "inf", "abc")],
    ("--folds", "1", "an integer of at least 2"),
    ("--folds", "2.5", "an integer of at least 2"),
    *[(flag, value, "a comma-separated list of finite positive numbers")
      for flag in ("--gamma-grid", "--eta-grid", "--sigma-grid")
      for value in ("abc", "1,0", "1,nan", ",")],
])
def test_a_numeric_flag_is_checked_as_it_is_parsed(tmp_path, capsys, flag, value, expected):
    # Each exits 2 naming its flag, before the data file is read: this one does not exist.
    command = ["gridsearch"] if flag.startswith("--folds") or flag.endswith("-grid") else [
        "train", "--gamma", "1", "--eta", "1", "--sigma", "1"]
    assert run(*command, "--task", "classify", "--data", str(tmp_path / "nope.csv"),
               "--label-col", "y", "--output-dir", str(tmp_path), flag, value) == 2
    err = capsys.readouterr().err
    assert err.endswith(f"error: argument {flag}: expected {expected}, got {value!r}\n"), err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("flag", ["--q-alpha", "--critical-value"])
@pytest.mark.parametrize("value", ["0", "-1", "nan", "inf"])
def test_a_stats_flag_is_checked_as_it_is_parsed(tmp_path, capsys, flag, value):
    # A negative critical value rejected every null hypothesis and a nan one none, with exit 0.
    assert run("--output-dir", str(tmp_path), "stats", "--scores-file",
               str(tmp_path / "nope.csv"), flag, value) == 2
    err = capsys.readouterr().err
    assert err.endswith(f"error: argument {flag}: expected a finite positive number, "
                        f"got {value!r}\n"), err
    assert not list(tmp_path.iterdir())


def test_unreadable_data_exits_3(tmp_path, capsys):
    assert run(
        "train", "--task", "classify", "--data", str(tmp_path / "nope.csv"),
        "--label-col", "y", "--gamma", "1", "--eta", "1", "--sigma", "1",
        "--model-out", str(tmp_path / "m.json"),
    ) == 3


def test_singular_fit_exits_4_naming_the_system(tmp_path, capsys):
    path = tmp_path / "dup.csv"
    path.write_text("a,b,label\n0,0,1\n0,0,1\n1,1,-1\n2,2,-1\n")
    code = run(
        "train", "--task", "classify", "--data", str(path), "--label-col", "label",
        "--kernel", "linear", "--no-normalize",
        "--gamma", "1e300", "--eta", "1e-300",
        "--model-out", str(tmp_path / "m.json"),
    )
    assert code == 4
    assert "class +1 system" in capsys.readouterr().err


def test_overflowing_gram_exits_2_before_writing(tmp_path, capsys):
    path = tmp_path / "huge.csv"
    path.write_text("a,b,label\n1e200,1e200,1\n2e200,1e200,1\n"
                    "-1e200,3e200,-1\n-2e200,1e200,-1\n")
    model_out = tmp_path / "m.json"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run(
            "train", "--task", "classify", "--data", str(path), "--label-col", "label",
            "--kernel", "linear", "--no-normalize", "--gamma", "1", "--eta", "1",
            "--model-out", str(model_out),
        )
    assert code == 2
    err = capsys.readouterr().err
    assert "error: core contains non-finite entries" in err
    assert "RuntimeWarning" not in err and not caught, [str(w.message) for w in caught]
    assert not model_out.exists()


# Each task's truth column and the flag that names it.
TRUTH = {"classify": ("--label-col", "label"), "regress": ("--target-col", "target")}


def _csv(path, task, rows):
    """A file of feature columns f0, f1, ... and the task's truth column, one tuple per row."""
    header = [f"f{j}" for j in range(len(rows[0]) - 1)] + [TRUTH[task][1]]
    path.write_text("\n".join(",".join(map(str, row)) for row in [header, *rows]) + "\n")
    return str(path)


@pytest.mark.parametrize("task", ["classify", "regress"])
def test_a_kernel_row_of_both_infinities_exits_2_without_a_warning(tmp_path, capsys, task):
    # README's overflow example: the linear kernel row of 1e300 holds +inf and -inf. The
    # RuntimeWarning filter of pyproject.toml turns a warning into a traceback here.
    data = _csv(tmp_path / "d.csv", task, [(1e300, 1), (1e300, -1), (-1e300, 1), (0.5, -1)])
    model_out = tmp_path / "m.json"
    assert run("train", "--task", task, "--data", data, *TRUTH[task], "--kernel", "linear",
               "--no-normalize", "--gamma", "1", "--eta", "1",
               "--model-out", str(model_out)) == 2
    assert capsys.readouterr().err == "error: core contains non-finite entries\n"
    assert not model_out.exists()


FAR = 1.7e308  # a query row this far out overflows a linear model's decision values


@pytest.mark.parametrize("task, truth, printed", [
    ("classify", (1, -1), "accuracy: 0.0000%\n"),
    ("regress", (1, 2), "rmse: inf\nmae: 7.7116935e+307\npos_error: 3.8558468e+307\n"
                        "neg_error: 3.8558468e+307\n"),
    ("regress", (FAR, -FAR), "rmse: inf\nmae: inf\npos_error: inf\nneg_error: inf\n"),
], ids=["classify", "regress", "regress-far-truth"])
def test_a_far_query_row_predicts_without_a_warning(tmp_path, capsys, task, truth, printed):
    targets = (1, -1, 1, -1, 1) if task == "classify" else (1, 2, 3, 4, 5)
    train = _csv(tmp_path / "train.csv", task, list(zip((0.1, 0.5, 0.9, 0.3, -0.7), targets)))
    model = str(tmp_path / "m.json")
    assert run("train", "--task", task, "--data", train, *TRUTH[task], "--kernel", "linear",
               "--gamma", "1", "--eta", "1", "--model-out", model) == 0
    query = _csv(tmp_path / "query.csv", task, [(FAR, truth[0]), (-FAR, truth[1])])
    output = tmp_path / "p.csv"
    capsys.readouterr()
    assert run("predict", "--model", model, "--data", query, *TRUTH[task],
               "--output", str(output)) == 0
    assert capsys.readouterr() == (f"2 predictions written to {output}\n{printed}", "")


# A 5-row regression file whose targets' errors overflow a fold's squared errors.
OVERFLOWING_TARGETS = [(0.1, 1e308), (0.5, -1e308), (0.9, 1), (0.3, 2), (-0.7, 3)]


def test_a_grid_whose_errors_overflow_scores_inf_without_a_warning(tmp_path, capsys):
    # Each fold's RMSE reads inf, as metrics.rmse gives; the best cell then fails its refit.
    data = _csv(tmp_path / "d.csv", "regress", OVERFLOWING_TARGETS)
    assert run("--output-dir", str(tmp_path), "gridsearch", "--task", "regress", "--data", data,
               "--target-col", "target", "--folds", "2", "--sigma-grid", "1",
               "--gamma-grid", "1", "--eta-grid", "1") == 4
    (cell,) = json.loads((tmp_path / "grid_results.json").read_text())["cells"]
    assert cell["fold_scores"] == [math.inf, math.inf] and cell["error"] == ""
    err = capsys.readouterr().err
    assert err.startswith("error: best cell ") and err.count("\n") == 1, err


@pytest.mark.parametrize("model_kind, task", [("trkm", "classify"), ("rkm", "classify"),
                                              ("trkm", "regress")])
def test_query_rows_at_the_ends_of_double_range_predict_without_a_warning(tmp_path, capsys,
                                                                         model_kind, task):
    # Each pair of these features overflows a term, the sum of the terms or the score.
    train = _csv(tmp_path / "train.csv", task, [(0.1, 0.3, 1), (0.5, -0.2, 2), (0.9, 0.4, 1),
                                                (0.3, 0.8, 2), (-0.7, 0.1, 1), (0.2, -0.9, 2)])
    model = str(tmp_path / "m.json")
    assert run("train", "--task", task, "--model-kind", model_kind, "--data", train,
               *TRUTH[task], "--kernel", "linear", "--no-normalize", "--gamma", "1",
               "--eta", "1", "--model-out", model) == 0
    ends = (FAR, -FAR, 1e300, 0.0)
    query = _csv(tmp_path / "query.csv", task, [(a, b, 1) for a in ends for b in ends])
    capsys.readouterr()
    assert run("predict", "--model", model, "--data", query, *TRUTH[task],
               "--output", str(tmp_path / "p.csv")) == 0
    assert capsys.readouterr().err == ""


def test_a_column_flag_is_an_index_only_when_it_is_ascii_digits(tmp_path, capsys):
    # "-1" names a header, not the last column; with no such header it is exit 3
    data = tmp_path / "d.csv"
    train = ("train", "--task", "classify", "--data", str(data), "--gamma", "1", "--eta", "1",
             "--sigma", "1", "--model-out", str(tmp_path / "m.json"))
    data.write_text("-1,f0,f1\na,0.1,0.2\nb,0.4,0.3\na,0.5,0.9\nb,0.9,0.6\n")
    assert run(*train, "--label-col", "-1") == 0
    assert f"data: {data} (n=4, features=2)" in capsys.readouterr().out
    data.write_text("f0,f1,label\n0.1,0.2,a\n0.4,0.3,b\n0.5,0.9,a\n0.9,0.6,b\n")
    assert run(*train, "--label-col", "-1") == 3
    assert capsys.readouterr().err == (f"error: {data}: no column named '-1' in "
                                       "header ['f0', 'f1', 'label']\n")
    assert run(*train, "--label-col", "2") == 0


def test_feature_count_mismatch_exits_3(tmp_path, blob_csv, capsys):
    model_path = str(tmp_path / "model.json")
    assert run(
        "train", "--task", "classify", "--data", blob_csv, "--label-col", "label",
        "--gamma", "1", "--eta", "1", "--sigma", "1", "--model-out", model_path,
    ) == 0
    wide = tmp_path / "wide.csv"
    wide.write_text("a,b,c\n1,2,3\n")
    assert run(
        "predict", "--model", model_path, "--data", str(wide),
        "--output", str(tmp_path / "p.csv"),
    ) == 3
    err = capsys.readouterr().err
    assert "3" in err and "2" in err  # both counts appear in the message


def test_gridsearch_single_cell_equals_train(tmp_path, blob_csv):
    grid_model = str(tmp_path / "grid_model.json")
    assert run(
        "--output-dir", str(tmp_path),
        "gridsearch", "--task", "classify", "--data", blob_csv, "--label-col", "label",
        "--gamma-grid", "0.1", "--eta-grid", "0.001", "--sigma-grid", "4",
        "--folds", "2", "--grid-out", str(tmp_path / "grid.json"),
        "--model-out", grid_model,
    ) == 0
    train_model = str(tmp_path / "train_model.json")
    assert run(
        "train", "--task", "classify", "--data", blob_csv, "--label-col", "label",
        "--gamma", "0.1", "--eta", "0.001", "--sigma", "4",
        "--model-out", train_model,
    ) == 0
    grid_doc = json.load(open(grid_model))
    train_doc = json.load(open(train_model))
    assert grid_doc["payload"] == train_doc["payload"]
    table = json.load(open(tmp_path / "grid.json"))
    assert len(table["cells"]) == 1
    assert table["best_params"] == {"gamma": 0.1, "eta": 0.001, "sigma": 4.0}


@pytest.mark.parametrize("umask", [0o022, 0o077])
def test_written_files_take_their_mode_from_the_umask(tmp_path, blob_csv, umask):
    # as open() makes a file, 0o666 less the umask; a temp file's own 0o600 would survive the
    # rename. The umask is set in a child interpreter, so this process keeps its own.
    names = ("model.json", "preds.csv", "grid.json", "grid_model.json")
    model, preds, grid, grid_model = (str(tmp_path / name) for name in names)
    run_python(f"""
import os
os.umask({umask:#o})
from trkm.cli import main
data = ["--task", "classify", "--data", {blob_csv!r}, "--label-col", "label"]
assert main(["train", *data, "--gamma", "0.1", "--eta", "0.001", "--sigma", "4",
             "--model-out", {model!r}]) == 0
assert main(["predict", "--model", {model!r}, "--data", {blob_csv!r}, "--label-col", "label",
             "--output", {preds!r}]) == 0
assert main(["gridsearch", *data, "--gamma-grid", "0.1", "--eta-grid", "0.001",
             "--sigma-grid", "4", "--folds", "2", "--grid-out", {grid!r},
             "--model-out", {grid_model!r}]) == 0
""")
    assert {name: os.stat(tmp_path / name).st_mode & 0o777 for name in names} \
        == dict.fromkeys(names, 0o666 & ~umask)


def test_gridsearch_default_grid_has_1331_cells(tmp_path):
    x, y = blobs(8, 5.0, seed=4)
    data = tmp_path / "tiny.csv"
    write_classification_csv(str(data), x, y)
    grid_out = str(tmp_path / "grid.json")
    assert run(
        "gridsearch", "--task", "classify", "--data", str(data),
        "--label-col", "label",
        "--grid-out", grid_out, "--model-out", str(tmp_path / "m.json"),
    ) == 0
    table = json.load(open(grid_out))
    assert len(table["cells"]) == 11 * 11 * 11


def test_gridsearch_table_is_deterministic(tmp_path, blob_csv):
    out1 = str(tmp_path / "g1.json")
    out2 = str(tmp_path / "g2.json")
    for out in (out1, out2):
        assert run(
            "--seed", "5",
            "gridsearch", "--task", "classify", "--data", blob_csv,
            "--label-col", "label",
            "--gamma-grid", "0.01,1", "--eta-grid", "0.1,1", "--sigma-grid", "0.5,2",
            "--folds", "3", "--grid-out", out,
            "--model-out", str(tmp_path / "m.json"),
        ) == 0
    assert open(out1).read() == open(out2).read()


@pytest.mark.parametrize("case, model_kind, task, data, column", [
    ("trkm_classify", "trkm", "classify", "crossplane130.csv", ("--label-col", "label")),
    ("rkm_classify", "rkm", "classify", "crossplane130.csv", ("--label-col", "label")),
    ("trkm_regress", "trkm", "regress", "sine.csv", ("--target-col", "target")),
])
def test_gridsearch_writes_golden_files(tmp_path, case, model_kind, task, data, column):
    # The golden files were written by an earlier version of the program with
    # this command; a change to any grid score or saved float shows here.
    assert run(
        "--output-dir", str(tmp_path),
        "gridsearch", "--task", task, "--model-kind", model_kind,
        "--data", str(DATA_DIR / "synthetic" / data), *column,
        "--gamma-grid", "0.01,1,100", "--eta-grid", "0.01,1,100", "--sigma-grid", "0.125,1,8",
    ) == 0
    golden = Path(__file__).parent / "data" / "gridsearch" / case
    for name in ("grid_results.json", "model.json"):
        assert (tmp_path / name).read_bytes() == (golden / name).read_bytes(), name


@pytest.mark.parametrize("model_kind, task, data, column", [
    ("rkm", "classify", "crossplane130.csv", ("--label-col", "label")),
    ("trkm", "regress", "sine.csv", ("--target-col", "target")),
])
def test_gridsearch_with_fallbacks_writes_the_same_files_on_two_threads(
        tmp_path, model_kind, task, data, column):
    # sigma = 32 with penalties down to 1e-5 sends cells to the LU refit: two
    # RKM cells fail there, and ten TRKM-R cell-folds spread over the limit.
    written = []
    for threads in ("1", "2"):
        out = tmp_path / threads
        assert run(
            "--output-dir", str(out), "--threads", threads,
            "gridsearch", "--task", task, "--model-kind", model_kind,
            "--data", str(DATA_DIR / "synthetic" / data), *column,
            "--gamma-grid", "1e-5,1", "--eta-grid", "1e-5,1", "--sigma-grid", "0.5,32",
        ) == 0
        written.append([(out / name).read_bytes() for name in ("grid_results.json", "model.json")])
    assert written[0] == written[1]


def grid_blob(cells, **head):
    """A gridsearch table as ``cmd_gridsearch`` hands it to the writer."""
    return {**head, "cells": [vars(cell) for cell in cells]}


def written(tmp_path, obj) -> bytes:
    """The bytes ``_write_json`` writes for ``obj``."""
    path = tmp_path / "table.json"
    _write_json(str(path), obj)
    return path.read_bytes()


@pytest.mark.parametrize("case", ["trkm_classify", "rkm_classify", "trkm_regress"])
def test_grid_writer_matches_indent_encoder_on_golden_tables(tmp_path, case):
    golden = (Path(__file__).parent / "data" / "gridsearch" / case / "grid_results.json").read_bytes()
    blob = json.loads(golden)
    cells = [GridCell(c["params"], c["mean_score"], tuple(c["fold_scores"]), c["error"])
             for c in blob.pop("cells")]
    assert written(tmp_path, grid_blob(cells, **blob)) == golden


def test_grid_writer_matches_indent_encoder_on_failed_and_short_cells(tmp_path):
    params = {"gamma": 1e-05, "eta": 100000.0, "sigma": 0.03125}
    cells = [
        GridCell(params, -math.inf, (), 'class +1 system: singular "core", pivot 0'),
        GridCell(params, math.inf, (0.5,), "upper-function system: \u00e9\n\tsecond line"),
        GridCell(params, -math.inf, (12.5, 3.0), "rkm system: ties, ranks: [1, 2]"),
        GridCell({}, 0.0, (-0.0, 1e-300, 1.7976931348623157e308), ""),
    ]
    table = grid_blob(cells, task="classify", model_kind="trkm", seed=0, folds=5,
                      best_params=params, best_cv_score=-math.inf)
    assert written(tmp_path, table) == (json.dumps(table, indent=2) + "\n").encode()


# SciPy packages no command imports: the stats harness computes its own midranks, and
# trkm.compiled loads the two extension modules it calls without their packages.
UNLOADED_SCIPY = ("scipy.stats", "scipy.linalg", "scipy.spatial", "scipy.sparse")
LOADED = f"import sys; print([m for m in {UNLOADED_SCIPY!r} if m in sys.modules])"


@pytest.mark.parametrize("module", ["trkm", "trkm.cli"])
def test_import_does_not_load_scipy_stats(module):
    # scipy.stats cost a cold start about 0.7 s on every command, scipy.linalg
    # and scipy.spatial together about 0.4 s more.
    assert run_python(f"import {module}\n{LOADED}") == "[]\n"


def test_commands_load_no_scipy_package(tmp_path, blob_csv):
    # Nothing is deferred into a command: fitting, predicting and searching load none either.
    model, grid = str(tmp_path / "m.json"), str(tmp_path / "g.json")
    data = ("--data", blob_csv, "--label-col", "label", "--output-dir", str(tmp_path))
    commands = [
        ["train", "--task", "classify", *data, "--gamma", "1", "--eta", "1", "--sigma", "1",
         "--model-out", model],
        ["predict", "--model", model, *data],
        ["gridsearch", "--task", "classify", *data, "--gamma-grid", "1", "--eta-grid", "1",
         "--sigma-grid", "1", "--folds", "2", "--grid-out", grid, "--model-out", model],
    ]
    code = f"import trkm.cli\nfor argv in {commands!r}: assert trkm.cli.main(argv) == 0\n{LOADED}"
    assert run_python(code).endswith("\n[]\n")


@pytest.mark.parametrize("args, report", [
    (("--task", "classify", "--label-col", "label", "--data", "blobs.csv"), [
        "task: classify  model: trkm_classifier",
        "data: {data} (n=40, features=2)",
        "class +1 system: residual 4.405e-13, pivot ratio 9.723e+02, "
        "balance sum(h) = 20 (expected 20)",
        "class -1 system: residual 5.684e-13, pivot ratio 9.654e+02, "
        "balance sum(h) = -20 (expected -20)",
    ]),
    (("--task", "classify", "--model-kind", "rkm", "--label-col", "label", "--data", "blobs.csv"), [
        "task: classify  model: rkm",
        "data: {data} (n=40, features=2)",
        "rkm system: residual 8.238e-14, pivot ratio 1.041e+03, "
        "balance sum(h) = 7.10542736e-15 (expected 0)",
    ]),
    (("--task", "regress", "--target-col", "target", "--data", "sine.csv"), [
        "task: regress  model: trkm_regressor",
        "data: {data} (n=50, features=1)",
        "lower-function system: residual 5.684e-13, pivot ratio 9.956e+02, "
        "balance sum(h) = 50 (expected 50)",
        "upper-function system: residual 7.390e-13, pivot ratio 9.956e+02, "
        "balance sum(h) = 50 (expected 50)",
    ]),
])
def test_train_prints_each_solves_report(tmp_path, capsys, args, report):
    # Every fit's solves carry their pivot ratio, the figure the pivot floor reads.
    data = str(DATA_DIR / "synthetic" / args[-1])
    model_out = str(tmp_path / "m.json")
    assert run("train", *args[:-1], data, "--gamma", "0.1", "--eta", "0.01", "--sigma", "1",
               "--model-out", model_out) == 0
    expected = [line.format(data=data) for line in report] + [f"model written to {model_out}"]
    assert capsys.readouterr().out.splitlines() == expected


@pytest.mark.parametrize("model_kind, task, rows, column", [
    ("trkm", "regress", "f0,target\n0.1,1.0\n0.5,2.0\n", ("--target-col", "target")),
    ("rkm", "classify", "f0,label\n0.1,a\n0.5,b\n", ("--label-col", "label")),
])
def test_gridsearch_with_a_one_row_training_fold_exits_3(tmp_path, capsys, model_kind, task,
                                                          rows, column):
    data = tmp_path / "two.csv"
    data.write_text(rows)
    assert run("--output-dir", str(tmp_path), "gridsearch", "--task", task,
               "--model-kind", model_kind, "--data", str(data), *column,
               "--folds", "2", "--gamma-grid", "1", "--eta-grid", "1", "--sigma-grid", "1") == 3
    assert capsys.readouterr().err == ("error: fold 1 of 2 trains on 1 row, and a fit needs at "
                                       "least 2: use fewer folds (--folds)\n")
    assert not (tmp_path / "grid_results.json").exists()


def test_train_on_a_one_row_file_exits_3(tmp_path, capsys):
    # TRKM-R's statement refuses a single row as a data error. (A one-row
    # classification file holds one label, which the label mapping refuses
    # before any model is built.)
    data = tmp_path / "one.csv"
    data.write_text("f0,target\n0.1,1.0\n")
    model_out = tmp_path / "m.json"
    assert run("train", "--task", "regress", "--data", str(data), "--target-col", "target",
               "--gamma", "1", "--eta", "1", "--sigma", "1", "--model-out", str(model_out)) == 3
    assert capsys.readouterr().err == f"error: {data}: need at least 2 samples, got 1\n"
    assert not model_out.exists()


@pytest.mark.parametrize("model_kind", ["trkm", "rkm"])
def test_train_on_a_one_label_file_exits_3(tmp_path, capsys, model_kind):
    # one label leaves a class with no samples: a data error, as three labels are
    data = tmp_path / "one.csv"
    data.write_text("f0,label\n0.1,a\n0.5,a\n")
    model_out = tmp_path / "m.json"
    assert run("train", "--task", "classify", "--model-kind", model_kind, "--data", str(data),
               "--label-col", "label", "--gamma", "1", "--eta", "1", "--sigma", "1",
               "--model-out", str(model_out)) == 3
    assert capsys.readouterr().err == (f"error: {data}: label column 'label': expected two "
                                       "distinct labels, found 1: ['a']\n")
    assert not model_out.exists()


@pytest.mark.parametrize("text, column, named", [
    (None, "0", "label column 0: expected two distinct labels, found 65: "
                "['0.0', '0.013125', '0.02625', '0.039375', '0.0525', ...]"),
    ("f0,label\n1,b\n2,c\n3,a\n", "label",
     "label column 'label': expected two distinct labels, found 3: ['a', 'b', 'c']"),
], ids=["65-labels", "3-labels"])
def test_a_label_count_error_names_the_file_the_column_and_five_labels(tmp_path, capsys, text,
                                                                       column, named):
    data = DATA_DIR / "synthetic" / "crossplane130.csv"
    if text is not None:
        data = tmp_path / "three.csv"
        data.write_text(text)
    assert run("train", "--task", "classify", "--data", str(data), "--label-col", column,
               "--gamma", "1", "--eta", "1", "--sigma", "1", "--output-dir", str(tmp_path)) == 3
    assert capsys.readouterr().err == f"error: {data}: {named}\n"


@pytest.mark.parametrize("refusal", ["feature-count", "unknown-label", "too-many-folds"])
def test_a_refusal_names_the_input_it_refuses(tmp_path, blob_csv, capsys, refusal):
    model = tmp_path / "model.json"
    assert run("train", "--task", "classify", "--data", blob_csv, "--label-col", "label",
               "--gamma", "1", "--eta", "1", "--sigma", "1", "--model-out", str(model)) == 0
    capsys.readouterr()
    data = tmp_path / "data.csv"
    if refusal == "feature-count":
        data.write_text("f0,f1,f2,label\n1,2,3,1\n")
        argv, named = ["predict", "--model", str(model)], [str(data), str(model)]
    elif refusal == "unknown-label":
        data.write_text("f0,f1,label\n1,2,z\n1,2,1\n")
        argv = ["predict", "--model", str(model), "--label-col", "label"]
        named = [str(data), str(model), "'label'", "['z']", "['-1', '1']"]
    else:
        data.write_text("f0,label\n1,a\n2,b\n3,a\n4,b\n")
        argv = ["--output-dir", str(tmp_path), "gridsearch", "--task", "classify",
                "--label-col", "label", "--gamma-grid", "1", "--eta-grid", "1",
                "--sigma-grid", "1", "--folds", "5"]
        named = ["5 folds", "4 samples", "--folds"]
    assert run(*argv, "--data", str(data)) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert all(name in err for name in named), err


NOT_UTF8 = b"a,b,label\n1,\xff,x\n"


@pytest.mark.parametrize("command", [
    ["train", "--task", "classify", "--label-col", "label", "--gamma", "1", "--eta", "1",
     "--sigma", "1", "--data"],
    ["gridsearch", "--task", "classify", "--label-col", "label", "--gamma-grid", "1",
     "--eta-grid", "1", "--sigma-grid", "1", "--data"],
    ["predict", "--model", "MODEL", "--data"],
    ["stats", "--scores-file"],
], ids=["train", "gridsearch", "predict", "stats"])
def test_a_file_that_is_not_utf8_exits_3_naming_it(tmp_path, blob_csv, capsys, command):
    model = tmp_path / "model.json"
    if "MODEL" in command:
        assert run("train", "--task", "classify", "--data", blob_csv, "--label-col", "label",
                   "--gamma", "1", "--eta", "1", "--sigma", "1", "--model-out", str(model)) == 0
        capsys.readouterr()
    bad = tmp_path / "bad.csv"
    bad.write_bytes(NOT_UTF8)
    out = tmp_path / "out"
    argv = [str(model) if arg == "MODEL" else arg for arg in command]
    assert run("--output-dir", str(out), *argv, str(bad)) == 3
    assert capsys.readouterr().err == f"error: {bad}: not UTF-8 text (invalid start byte)\n"
    assert not out.exists()


@pytest.mark.parametrize("text, found, expected", [
    ("a,b,label\n1,2\n3,4\n", 2, 3),
    ("a,label\n1,2,x\n3,4,y\n", 3, 2),
], ids=["header-wider", "header-narrower"])
def test_rows_must_be_as_wide_as_their_header(tmp_path, capsys, text, found, expected):
    # The header's width is every data row's width: the first row that differs is named.
    data = tmp_path / "d.csv"
    data.write_text(text)
    model_out = tmp_path / "m.json"
    assert run("train", "--task", "classify", "--data", str(data), "--label-col", "label",
               "--gamma", "1", "--eta", "1", "--sigma", "1",
               "--model-out", str(model_out)) == 3
    assert capsys.readouterr().err == (f"error: {data}: line 2 has {found} columns, "
                                       f"expected {expected}\n")
    assert not model_out.exists()


@pytest.mark.parametrize("error, code", [(SingularSystem, 4), (TooFewSamples, 3)])
def test_gridsearch_whose_best_cell_fails_to_retrain_says_so(
    tmp_path, capsys, monkeypatch, blob_csv, error, code
):
    # Every fold vouched for the best cell and the full training set did not:
    # the table stays written, no model is, and the error names the cell.
    def failing(*args, **kwargs):
        raise error("rkm system: residual 2.049e-08 exceeds tolerance 1.000e-08")

    monkeypatch.setattr(models, "fit", failing)
    assert run("--output-dir", str(tmp_path), "gridsearch", "--task", "classify",
               "--model-kind", "rkm", "--data", blob_csv, "--label-col", "label",
               "--folds", "3", "--sigma-grid", "1", "--gamma-grid", "1e-5,1",
               "--eta-grid", "1e-2,1") == code
    best = json.loads((tmp_path / "grid_results.json").read_text())["best_params"]
    assert capsys.readouterr().err == (
        f"error: best cell {best} could not be retrained on all 24 training rows: "
        "rkm system: residual 2.049e-08 exceeds tolerance 1.000e-08\n")
    assert not (tmp_path / "model.json").exists()

# The README's exit codes: 4 numerical failures, 2 a non-finite system (a usage error),
# 3 every other data error. A new error class must be given its code here.
EXIT_CODES = {
    "SingularSystem": 4, "DegenerateStatistic": 4, "NonFiniteSystem": 2,
    "DimensionMismatch": 3, "EmptyClass": 3, "DegenerateSplit": 3, "TooFewSamples": 3,
    "EmptyInput": 3, "ParseError": 3, "NonNumericFeature": 3, "MoreThanTwoClasses": 3,
    "MissingColumn": 3, "IoError": 3, "VersionMismatch": 3, "CorruptModel": 3,
    "FeatureCountMismatch": 3,
}


def test_every_error_class_has_a_documented_code():
    from trkm import errors

    defined = {name for name, c in vars(errors).items() if isinstance(c, type)
               and issubclass(c, errors.TrkmError) and c is not errors.TrkmError}
    assert defined == set(EXIT_CODES)


@pytest.mark.parametrize("name, code", EXIT_CODES.items(), ids=list(EXIT_CODES))
def test_every_error_class_exits_with_its_documented_code(monkeypatch, capsys, name, code):
    # Each with a one-line message, and no traceback.
    from trkm import cli, errors

    def raising(args):
        raise getattr(errors, name)(f"{name} raised")

    monkeypatch.setattr(cli, "cmd_stats", raising)
    assert main(["stats", "--scores-file", "scores.csv"]) == code
    assert capsys.readouterr() == ("", f"error: {name} raised\n")


# Six rows, one of them a negative: the fold that validates it trains on positives alone.
ONE_NEGATIVE = "f0,f1,label\n0.1,0.2,a\n0.3,0.1,b\n0.5,0.9,b\n0.7,0.4,b\n0.2,0.8,b\n0.9,0.6,b\n"
# Three of each class, at penalties that put a class system's pivot below the floor.
BALANCED = "f0,f1,label\n0.1,0.2,a\n0.3,0.1,b\n0.5,0.9,a\n0.7,0.4,b\n0.2,0.8,a\n0.9,0.6,b\n"


EMPTY_FOLD = ("no grid cell could be fitted: fold 3 of 3 trains on one class, as class -1 has 1 "
              "sample: each class needs 2 or more, whatever the folds")


@pytest.mark.parametrize("rows, penalties, code, reason, failure", [
    (ONE_NEGATIVE, ("1,10", "1"), 3, "class -1 has no samples", EMPTY_FOLD),
    (BALANCED, ("1e300", "1e-300"), 4, "class +1 system: pivot ", None),
], ids=["empty_class", "singular"])
def test_gridsearch_with_no_fittable_cell_writes_the_table_and_no_model(
    tmp_path, capsys, rows, penalties, code, reason, failure
):
    # The table holds each cell's reason; no cell is retrained, and the first
    # failed cell's error gives the exit code. A fold that trains on one class, which
    # stops every cell, is named with the data file and the class that it lacks.
    data = tmp_path / "d.csv"
    data.write_text(rows)
    assert run("--output-dir", str(tmp_path), "gridsearch", "--task", "classify",
               "--label-col", "label", "--data", str(data), "--folds", "3", "--sigma-grid", "1",
               "--gamma-grid", penalties[0], "--eta-grid", penalties[1]) == code
    cells = json.loads((tmp_path / "grid_results.json").read_text())["cells"]
    assert all(cell["error"] for cell in cells) and cells[0]["error"].startswith(reason)
    captured = capsys.readouterr()
    assert captured.err == "error: " + (f"{data}: {failure}" if failure else (
        f"no grid cell could be fitted; the first, {cells[0]['params']}, failed with: "
        f"{cells[0]['error']}")) + "\n"
    assert "best params" not in captured.out  # no fold vouched for any cell
    assert not (tmp_path / "model.json").exists()


@pytest.mark.parametrize("rows, folds, failure", [
    # two rows of x and one of y: the fold that validates on y trains on x alone, at any folds
    ("0.1,x\n0.2,x\n0.3,y\n", "3", "fold 1 of 3 trains on one class, as class +1 has 1 "
     "sample: each class needs 2 or more, whatever the folds"),
    # seed 0 validates the first fold on rows 0 and 2, both of a; 4 folds would part them
    ("0.1,a\n0.2,b\n0.3,a\n0.4,b\n", "2", "fold 1 of 2 trains on one class, as all 2 samples "
     "of class -1 validate there: use more folds (--folds)"),
], ids=["lone_sample", "samples_in_one_fold"])
def test_gridsearch_whose_folds_train_on_one_class_names_the_fold_and_class(
    tmp_path, capsys, rows, folds, failure
):
    data = tmp_path / "rows.csv"
    data.write_text("a,label\n" + rows)
    assert run("--output-dir", str(tmp_path), "gridsearch", "--task", "classify",
               "--label-col", "label", "--data", str(data), "--folds", folds) == 3
    assert capsys.readouterr().err == f"error: {data}: no grid cell could be fitted: {failure}\n"
    cells = json.loads((tmp_path / "grid_results.json").read_text())["cells"]
    assert len(cells) == 1331 and len({cell["error"] for cell in cells}) == 1
    assert not (tmp_path / "model.json").exists()


def test_a_benchmark_grid_names_its_folds_by_the_config_key():
    # A benchmark's folds come from its config, which the messages asking for other folds name.
    plan = _checked_config({"datasets": [{"path": "d.csv", "label_column": "label"}], "models": [
        {"name": "A", "grid": {"folds": 3}},
        {"name": "B", "fixed": {"gamma": 1, "eta": 1, "sigma": 1}},
    ]}, 0)
    assert plan.models[0][3].folds_from == "models[0].grid.folds"


@pytest.mark.parametrize("model_kind, task, column", [
    ("trkm", "classify", ("--label-col", "label")),
    ("rkm", "classify", ("--label-col", "label")),
    ("trkm", "regress", ("--target-col", "target")),
])
@pytest.mark.parametrize("flag, extreme", [
    ("--sigma-grid", 1e-300),  # 2 sigma^2 underflows: the Gram divides by zero
    ("--gamma-grid", 1e-320),  # K/gamma overflows
])
def test_gridsearch_fails_only_the_cells_whose_core_is_not_finite(
    tmp_path, capsys, blob_csv, sine_csv, model_kind, task, column, flag, extreme
):
    # Each such cell is failed in the table, the others are scored, and the best
    # one is retrained; test_selection compares the scores with per-cell fits.
    grids = {"--gamma-grid": "1e-2,1", "--eta-grid": "1e-2,1", "--sigma-grid": "1"}
    grids[flag] += f",{extreme!r}"
    data = blob_csv if task == "classify" else sine_csv
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run("gridsearch", "--task", task, "--model-kind", model_kind, "--data", data,
                   *column, "--folds", "3", *[a for item in grids.items() for a in item],
                   "--output-dir", str(tmp_path)) == 0
    assert not caught, [str(w.message) for w in caught]
    assert "RuntimeWarning" not in capsys.readouterr().err
    cells = json.loads((tmp_path / "grid_results.json").read_text())["cells"]
    for cell in cells:
        if extreme in cell["params"].values():
            assert cell["error"] == "core contains non-finite entries"
        else:
            assert not cell["error"]
    assert (tmp_path / "model.json").exists()


@pytest.mark.parametrize("case, data, column", [
    ("trkm_classify", "crossplane130.csv", ("--label-col", "label")),
    ("rkm_classify", "crossplane130.csv", ("--label-col", "label")),
    ("trkm_regress", "sine.csv", ("--target-col", "target")),
])
def test_predict_writes_golden_predictions(tmp_path, case, data, column):
    # The golden predictions were written by an earlier version of the program
    # from the golden model file; a change to any predicted value shows here.
    golden = Path(__file__).parent / "data" / "gridsearch" / case
    out = tmp_path / "predictions.csv"
    assert run(
        "predict", "--model", str(golden / "model.json"),
        "--data", str(DATA_DIR / "synthetic" / data), *column, "--output", str(out),
    ) == 0
    assert out.read_bytes() == (golden / "predictions.csv").read_bytes()


def test_stats_command_replicates_published_tables(tmp_path, capsys):
    scores = str(DATA_DIR / "reference" / "classification_accuracy.csv")
    assert run(
        "--output-dir", str(tmp_path),
        "stats", "--scores-file", scores, "--better", "higher",
        "--critical-value", "2.2657",
    ) == 0
    report = json.load(open(tmp_path / "stats_report.json"))
    assert report["friedman"]["reject_null"] is True
    assert abs(report["friedman"]["chi2"] - 48.95) <= 0.03 * 48.95
    assert abs(report["nemenyi"]["critical_difference"] - 1.2567) < 0.0005
    published_ranks = [4.98, 4.00, 3.86, 2.77, 3.16, 2.20]
    assert all(
        abs(got - want) <= 0.05
        for got, want in zip(report["average_ranks"], published_ranks)
    )
    trkm_vs_svm = [
        w for w in report["win_tie_loss"]
        if w["row"] == "TRKM-C" and w["column"] == "SVM"
    ]
    assert (trkm_vs_svm[0]["wins"], trkm_vs_svm[0]["ties"], trkm_vs_svm[0]["losses"]) == (31, 1, 4)
    text = open(tmp_path / "stats_report.txt").read()
    assert "average ranks" in text and "friedman" in text


def test_benchmark_scores_file_mode(tmp_path):
    scores = str(DATA_DIR / "reference" / "regression_rmse.csv")
    assert run(
        "--output-dir", str(tmp_path),
        "benchmark", "--scores-file", scores, "--better", "lower",
    ) == 0
    report = json.load(open(tmp_path / "stats_report.json"))
    assert abs(report["friedman"]["chi2"] - 35.44) < 0.01
    assert report["average_ranks"] == [3.2, 4.0, 4.8, 1.7, 1.3]


def benchmark_config(tmp_path, n_datasets=2, seeds=(0,)):
    paths = []
    for i in range(n_datasets):
        x, y = blobs(10 + 2 * i, 4.0 + i, seed=i)
        p = tmp_path / f"ds{i}.csv"
        write_classification_csv(str(p), x, y)
        paths.append(str(p))
    cfg = {
        "task": "classify",
        "split": {"train_fraction": 0.7, "stratified": True, "seeds": list(seeds)},
        "datasets": [
            {"name": f"ds{i}", "path": p, "label_column": "label"}
            for i, p in enumerate(paths)
        ],
        "models": [
            {"name": "TRKM-C", "kind": "trkm",
             "fixed": {"gamma": 0.1, "eta": 0.01, "sigma": 1.0}},
            {"name": "RKM", "kind": "rkm",
             "fixed": {"gamma": 0.1, "eta": 0.01, "sigma": 1.0}},
        ],
    }
    cfg_path = tmp_path / "bench.json"
    cfg_path.write_text(json.dumps(cfg))
    return str(cfg_path)


def test_benchmark_end_to_end(tmp_path):
    cfg = benchmark_config(tmp_path)
    out = tmp_path / "out"
    assert run("--output-dir", str(out), "benchmark", "--config", cfg) == 0
    scores = open(out / "scores.csv").read().strip().splitlines()
    assert scores[0] == "dataset,TRKM-C,RKM"
    assert len(scores) == 3
    report = json.load(open(out / "stats_report.json"))
    ranks = np.array(report["average_ranks"])
    assert np.allclose(ranks.sum(), 3.0)  # two models: row ranks sum to 3


def test_benchmark_missing_dataset_warns_but_succeeds(tmp_path, capsys):
    cfg_path = benchmark_config(tmp_path)
    cfg = json.load(open(cfg_path))
    cfg["datasets"].append({"name": "ghost", "path": str(tmp_path / "ghost.csv"),
                            "label_column": "label"})
    open(cfg_path, "w").write(json.dumps(cfg))
    out = tmp_path / "out"
    assert run("--output-dir", str(out), "benchmark", "--config", cfg_path) == 0
    assert "ghost" in capsys.readouterr().err
    report = json.load(open(out / "stats_report.json"))
    assert [f["dataset"] for f in report["failures"]] == ["ghost"]
    assert report["datasets"] == ["ds0", "ds1"]


def test_benchmark_records_a_dataset_that_is_not_utf8_as_failed(tmp_path):
    cfg_path = Path(benchmark_config(tmp_path))
    cfg = json.loads(cfg_path.read_text())
    latin1 = tmp_path / "latin1.csv"
    latin1.write_bytes(NOT_UTF8)
    cfg["datasets"].insert(1, {"name": "latin1", "path": str(latin1), "label_column": "label"})
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert run("--output-dir", str(out), "benchmark", "--config", str(cfg_path)) == 0
    report = json.loads((out / "stats_report.json").read_text())
    assert report["failures"] == [{"dataset": "latin1",
                                   "error": f"{latin1}: not UTF-8 text (invalid start byte)"}]
    assert report["datasets"] == ["ds0", "ds1"]


BOM = b"\xef\xbb\xbf"


def test_a_byte_order_mark_trains_the_plain_files_model(tmp_path, blob_csv):
    # The label first, as a spreadsheet's "CSV UTF-8" export with a byte-order mark has it.
    rows = [line.split(",") for line in Path(blob_csv).read_text().splitlines()]
    text = "".join(",".join(row[-1:] + row[:-1]) + "\n" for row in rows).encode()
    saved = []
    for name, data in (("plain", text), ("marked", BOM + text)):
        path, model = tmp_path / f"{name}.csv", tmp_path / f"{name}.json"
        path.write_bytes(data)
        assert run("train", "--task", "classify", "--data", str(path), "--label-col", "label",
                   "--gamma", "1", "--eta", "1", "--sigma", "1", "--model-out", str(model)) == 0
        saved.append(model.read_bytes())
    assert saved[0] == saved[1]


def test_a_config_with_a_byte_order_mark_is_read(tmp_path):
    cfg_path = Path(benchmark_config(tmp_path))
    cfg_path.write_bytes(BOM + cfg_path.read_bytes())
    out = tmp_path / "out"
    assert run("--output-dir", str(out), "benchmark", "--config", str(cfg_path)) == 0
    assert (out / "scores.csv").read_text().splitlines()[0] == "dataset,TRKM-C,RKM"


@pytest.mark.parametrize("text", [b'{"task": "caf\xe9"}', b"[" * 100_000],
                         ids=["not-utf8", "nested-too-deep"])
def test_a_config_that_cannot_be_decoded_exits_3_naming_it(tmp_path, capsys, text):
    cfg_path = tmp_path / "bench.json"
    cfg_path.write_bytes(text)
    out = tmp_path / "out"
    assert run("--output-dir", str(out), "benchmark", "--config", str(cfg_path)) == 3
    assert capsys.readouterr().err.startswith(f"error: {cfg_path}: invalid JSON (")
    assert not out.exists()


def test_benchmark_records_a_dataset_with_no_fittable_grid_cell_as_failed(tmp_path):
    # "lone" keeps one negative in its 8 training rows, so a 2-fold grid fails
    # every cell; the dataset is not fitted, and the others are ranked.
    cfg_path = benchmark_config(tmp_path)
    cfg = json.load(open(cfg_path))
    lone = tmp_path / "lone.csv"
    lone.write_text("f0,label\n" + "".join(f"{i / 12},{'-1' if i in (3, 9) else '1'}\n"
                                           for i in range(12)))
    cfg["datasets"].append({"name": "lone", "path": str(lone), "label_column": "label"})
    cfg["models"][0] = {"name": "TRKM-C", "kind": "trkm",
                        "grid": {"gamma": [1.0], "eta": [1.0], "sigma": [1.0], "folds": 2}}
    open(cfg_path, "w").write(json.dumps(cfg))
    out = tmp_path / "out"
    assert run("--output-dir", str(out), "benchmark", "--config", cfg_path) == 0
    report = json.load(open(out / "stats_report.json"))
    assert report["failures"] == [{"dataset": "lone", "error": (
        "no grid cell could be fitted: fold 2 of 2 trains on one class, as class -1 has 1 sample: "
        "each class needs 2 or more, whatever the folds")}]
    assert report["datasets"] == ["ds0", "ds1"]


def test_benchmark_ends_on_a_non_finite_system(tmp_path, capsys):
    # A usage error, the penalty the config gives, not one dataset's failure: exit 2.
    cfg_path = Path(benchmark_config(tmp_path))
    cfg = json.loads(cfg_path.read_text())
    cfg["models"][1]["fixed"]["gamma"] = 1e-320  # K/gamma overflows
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert run("--output-dir", str(out), "benchmark", "--config", str(cfg_path)) == 2
    assert capsys.readouterr().err == "error: core contains non-finite entries\n"
    assert not out.exists()


def test_benchmark_whose_best_cell_fails_to_retrain_says_so(tmp_path, monkeypatch):
    # The first fit of the run retrains ds0's grid model on its training split and fails;
    # the dataset's failure names the cell, as gridsearch's error does.
    cfg_path = Path(benchmark_config(tmp_path, n_datasets=3))
    cfg = json.loads(cfg_path.read_text())
    cfg["models"][0] = {"name": "TRKM-C", "kind": "trkm",
                        "grid": {"gamma": [1e-2, 1.0], "eta": [1.0], "sigma": [1.0], "folds": 2}}
    cfg_path.write_text(json.dumps(cfg))
    real_fit, retrained = models.fit, []

    def failing_once(kind, task, x, y, params):
        if retrained:
            return real_fit(kind, task, x, y, params)
        retrained.append((len(x), params))
        raise SingularSystem("class +1 system: residual 2.049e-08 exceeds tolerance 1.000e-08")

    monkeypatch.setattr(models, "fit", failing_once)
    out = tmp_path / "out"
    assert run("--output-dir", str(out), "benchmark", "--config", str(cfg_path)) == 0
    (rows, params), = retrained
    report = json.loads((out / "stats_report.json").read_text())
    assert report["failures"] == [{"dataset": "ds0", "error": (
        f"best cell {params} could not be retrained on all {rows} training rows: "
        "class +1 system: residual 2.049e-08 exceeds tolerance 1.000e-08")}]
    assert report["datasets"] == ["ds1", "ds2"]


def test_benchmark_is_byte_identical_across_reruns(tmp_path):
    cfg = benchmark_config(tmp_path, n_datasets=3, seeds=(0, 1))
    outs = []
    for name in ("run1", "run2"):
        out = tmp_path / name
        assert run("--seed", "7", "--output-dir", str(out),
                   "benchmark", "--config", cfg) == 0
        outs.append(out)
    for fname in ("scores.csv", "stats_report.txt", "stats_report.json"):
        a = (outs[0] / fname).read_bytes()
        b = (outs[1] / fname).read_bytes()
        assert a == b, fname


def _regression_config(cfg):
    cfg["task"] = "regress"
    cfg["split"]["stratified"] = False
    for ds in cfg["datasets"]:
        ds["target_column"] = ds.pop("label_column")


def _grid_model(cfg, grid):
    cfg["models"][0] = {"name": "TRKM-C", "kind": "trkm", "grid": grid}


@pytest.mark.parametrize("edit, named", [
    (lambda cfg: cfg["models"][1].update(kind="svm"), ["kind", "'svm'"]),
    (_regression_config, ["kind", "'rkm'", "'regress'"]),
    (lambda cfg: cfg["models"][0]["fixed"].pop("gamma"), ["fixed", "'gamma'"]),
    (lambda cfg: cfg["models"][1]["fixed"].pop("eta"), ["fixed", "'eta'"]),
    (lambda cfg: cfg["models"][0]["fixed"].pop("sigma"), ["fixed", "'sigma'"]),
    (lambda cfg: cfg["datasets"][1].pop("path"), ["datasets[1]", "'path'"]),
    (lambda cfg: cfg["datasets"][0].pop("label_column"), ["datasets[0]", "'label_column'"]),
    (lambda cfg: cfg["models"].pop(), ["models", "two"]),
    (lambda cfg: [1, 2], ["top level", "object"]),
    (lambda cfg: cfg["datasets"].__setitem__(1, "ds1.csv"), ["datasets[1]", "object"]),
    (lambda cfg: cfg["models"].__setitem__(0, "TRKM-C"), ["models[0]", "object"]),
    (lambda cfg: _grid_model(cfg, {"gamma": ["x"]}), ["error: models[0].grid.gamma: expected a "
                                                      "non-empty list of finite positive numbers, "
                                                      "got ['x']\n"]),
    (lambda cfg: _grid_model(cfg, {"folds": 1.5}),
     ["error: models[0].grid.folds: expected an integer of at least 2, got 1.5\n"]),
    (lambda cfg: cfg["models"][1]["fixed"].update(gamma=-1), ["models[1].fixed.gamma", "-1"]),
    (lambda cfg: cfg["models"][0]["fixed"].update(gamma="1"), ["models[0].fixed.gamma", "'1'"]),
    (lambda cfg: cfg["models"][0]["fixed"].update(eta2=0), ["models[0].fixed.eta2", "0"]),
    (lambda cfg: cfg.update(task=[]), ["task", "[]"]),
    (lambda cfg: cfg["split"].update(seeds=3), ["split.seeds", "3"]),
    (lambda cfg: cfg["split"].update(seeds=[]), ["split.seeds", "[]"]),
    (lambda cfg: cfg["split"].update(seeds=[0, -1]), ["split.seeds", "-1"]),
    (lambda cfg: (cfg["split"].pop("seeds"), cfg.update(seed="x")), ["seed", "'x'"]),
    (lambda cfg: cfg["split"].update(train_fraction="0.7"), ["split.train_fraction", "'0.7'"]),
    (lambda cfg: cfg["split"].update(train_fraction=1.5),
     ["error: split.train_fraction: expected a number in (0, 1), got 1.5\n"]),
    (lambda cfg: cfg["split"].update(stratified="yes"), ["split.stratified", "'yes'"]),
    (lambda cfg: cfg.update(normalize="no"), ["normalize", "'no'"]),
    (lambda cfg: cfg["datasets"][0].update(path=["ds0.csv"]),
     ["datasets[0].path", "['ds0.csv']"]),
    (lambda cfg: cfg["datasets"][1].update(label_column=None),
     ["datasets[1].label_column", "None"]),
    (lambda cfg: cfg["datasets"][0].update(name=1), ["datasets[0].name", "1"]),
    (lambda cfg: cfg["datasets"][0].update(delimiter=5), ["datasets[0].delimiter", "5"]),
    (lambda cfg: cfg["datasets"][1].update(delimiter=",,"), ["datasets[1].delimiter", "',,'"]),
    (lambda cfg: cfg["datasets"][0].update(header="no"), ["datasets[0].header", "'no'"]),
    (lambda cfg: cfg["models"][0].update(name=1), ["models[0].name", "1"]),
    (lambda cfg: cfg["models"][1].update(name="TRKM-C"), ["models[1].name", "'TRKM-C'"]),
    (lambda cfg: _grid_model(cfg, {"equal_penalties": "no"}),
     ["models[0].grid.equal_penalties", "'no'"]),
    (lambda cfg: cfg["models"][1].update(name="R,KM"), ["models[1].name", "'R,KM'"]),
    (lambda cfg: cfg["datasets"][1].update(name='ds"1'), ["datasets[1].name", "'ds\"1'"]),
    (lambda cfg: cfg["models"][1]["fixed"].update(gamma2=5.0), ["models[1].fixed.gamma2", "one"]),
    (lambda cfg: cfg["models"][1]["fixed"].update(eta2=7.0), ["models[1].fixed.eta2", "one"]),
    (lambda cfg: cfg["models"].__setitem__(1, {"name": "RKM", "kind": "rkm",
                                               "grid": {"equal_penalties": False}}),
     ["models[1].grid.equal_penalties", "one"]),
    (lambda cfg: cfg["models"][0]["fixed"].update(kernel="linear"),
     ["models[0].fixed.kernel: unknown key"]),
    (lambda cfg: cfg.update(seeds=[1, 2]), ["error: seeds: unknown key"]),
    (lambda cfg: cfg["split"].update(fraction=0.5), ["split.fraction: unknown key"]),
    (lambda cfg: cfg["datasets"][1].update(target_column="label"),
     ["datasets[1].target_column: unknown key"]),
    (lambda cfg: cfg["models"][1].update(sigma=1.0), ["models[1].sigma: unknown key"]),
    (lambda cfg: _grid_model(cfg, {"gammas": [1.0]}), ["models[0].grid.gammas: unknown key"]),
    (lambda cfg: cfg["models"][0].update(grid={}), ["models[0].fixed", "models[0].grid", "both"]),
    (lambda cfg: cfg["datasets"][1].update(label_column=-1),
     ["datasets[1].label_column", "non-negative", "-1"]),
    (lambda cfg: (_regression_config(cfg), cfg["datasets"][0].update(target_column=-1)),
     ["datasets[0].target_column", "non-negative", "-1"]),
], ids=["unknown-kind", "rkm-regress", "no-gamma", "no-eta", "no-sigma",
        "no-path", "no-label-column", "one-model", "top-level-array",
        "dataset-not-object", "model-not-object", "grid-not-number", "fractional-folds",
        "fixed-negative-gamma", "fixed-string-gamma", "fixed-zero-eta2",
        "task-not-string", "seeds-not-list", "seeds-empty", "seed-negative", "seed-string",
        "fraction-string", "fraction-above-one", "stratified-string", "normalize-string",
        "path-not-string", "column-null", "dataset-name-number", "delimiter-number",
        "delimiter-two-characters", "header-string", "model-name-number", "duplicate-model-name",
        "equal-penalties-string", "model-name-comma", "dataset-name-quote",
        "rkm-fixed-gamma2", "rkm-fixed-eta2", "rkm-per-class-grid",
        "fixed-unknown-key", "top-level-unknown-key", "split-unknown-key",
        "dataset-unknown-key", "model-unknown-key", "grid-unknown-key", "fixed-and-grid",
        "label-column-negative", "target-column-negative"])
def test_bad_benchmark_config_exits_2_before_fitting(tmp_path, capsys, edit, named):
    cfg_path = tmp_path / "bench.json"
    cfg = json.loads(Path(benchmark_config(tmp_path)).read_text())
    edited = edit(cfg)  # an edit that returns a list replaces the whole config
    cfg_path.write_text(json.dumps(edited if isinstance(edited, list) else cfg))
    out = tmp_path / "out"
    assert run("--output-dir", str(out), "benchmark", "--config", str(cfg_path)) == 2
    err = capsys.readouterr().err
    assert all(word in err for word in named), err
    assert not out.exists()


REFERENCE = DATA_DIR / "reference"
GOLDEN_REPORTS = Path(__file__).parent / "data" / "reports"
REPORT_CONFIG = {
    "task": "classify",
    "split": {"train_fraction": 0.7, "stratified": True, "seeds": [0, 1]},
    "datasets": [
        {"name": "crossplane130", "path": str(DATA_DIR / "synthetic" / "crossplane130.csv"),
         "label_column": "label"},
        {"name": "ghost", "path": "ghost.csv", "label_column": "label"},
    ],
    "models": [
        {"name": "TRKM-C", "kind": "trkm", "fixed": {"gamma": 0.1, "eta": 0.01, "sigma": 1.0}},
        {"name": "RKM", "kind": "rkm",
         "grid": {"gamma": [0.01, 1], "eta": [0.1, 1], "sigma": [0.5, 2], "folds": 3}},
    ],
}
CLASSIFICATION_SCORES = str(REFERENCE / "classification_accuracy.csv")
REGRESSION_SCORES = str(REFERENCE / "regression_rmse.csv")
REPORT_COMMANDS = {
    "stats_classification": ["stats", "--scores-file", CLASSIFICATION_SCORES,
                             "--critical-value", "2.2657"],
    "stats_regression": ["stats", "--scores-file", REGRESSION_SCORES, "--better", "lower"],
    "scores_classification": ["benchmark", "--scores-file", CLASSIFICATION_SCORES,
                              "--critical-value", "2.2657"],
    "scores_regression": ["benchmark", "--scores-file", REGRESSION_SCORES,
                          "--better", "lower", "--q-alpha", "2.728"],
    "config": ["--seed", "3", "benchmark", "--config", "bench.json"],
}


def run_report_command(case):
    """Run one report command in the working directory; it writes into ``out/``."""
    Path("bench.json").write_text(json.dumps(REPORT_CONFIG))
    return run("--output-dir", "out", *REPORT_COMMANDS[case])


@pytest.mark.parametrize("case", sorted(REPORT_COMMANDS))
def test_reports_match_golden_files(tmp_path, monkeypatch, case):
    # The golden files were written by an earlier version of the program with
    # these commands; the config run's report holds the missing dataset's error.
    monkeypatch.chdir(tmp_path)
    assert run_report_command(case) == 0
    golden = sorted((GOLDEN_REPORTS / case).iterdir())
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == [p.name for p in golden]
    for path in golden:
        assert (tmp_path / "out" / path.name).read_bytes() == path.read_bytes(), path.name


@pytest.mark.parametrize("command", ["train", "gridsearch", "predict"])
@pytest.mark.parametrize("delimiter", ["", ",,"])
def test_delimiter_flag_must_be_one_character(tmp_path, blob_csv, capsys, command, delimiter):
    extra = {
        "train": ["--task", "classify", "--gamma", "1", "--eta", "1", "--sigma", "1"],
        "gridsearch": ["--task", "classify"],
        "predict": ["--model", str(tmp_path / "m.json")],
    }[command]
    assert run(command, "--data", blob_csv, "--label-col", "label",
               "--delimiter", delimiter, *extra) == 2
    err = capsys.readouterr().err
    assert "--delimiter" in err and repr(delimiter) in err, err


@pytest.mark.parametrize("bad", ["abc", "nan"])
def test_predict_bad_truth_exits_3_before_writing(tmp_path, sine_csv, capsys, bad):
    model_path = str(tmp_path / "model.json")
    assert run(
        "train", "--task", "regress", "--data", sine_csv, "--target-col", "target",
        "--gamma", "0.001", "--eta", "0.001", "--sigma", "1", "--model-out", model_path,
    ) == 0
    lines = Path(sine_csv).read_text().splitlines()
    lines[5] = lines[5].rsplit(",", 1)[0] + "," + bad
    test_csv = tmp_path / "test.csv"
    test_csv.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    output = tmp_path / "p.csv"
    assert run("predict", "--model", model_path, "--data", str(test_csv),
               "--target-col", "target", "--output", str(output)) == 3
    err = capsys.readouterr().err
    assert str(test_csv) in err and repr(bad) in err, err
    assert not output.exists()


@pytest.mark.parametrize("task, flag, other", [("regress", "--label-col", "a regressor"),
                                               ("classify", "--target-col", "a classifier")])
def test_a_truth_flag_of_the_other_task_exits_3_before_writing(trained_model_files, tmp_path,
                                                                capsys, task, flag, other):
    model_bytes, features = trained_model_files[1][f"trkm-{task}.json"]
    model, output = tmp_path / "m.json", tmp_path / "p.csv"
    model.write_bytes(model_bytes)
    assert run("predict", "--model", str(model), "--data", features, flag, "0",
               "--output", str(output)) == 3
    assert capsys.readouterr().err == f"error: {flag} given but the model is {other}\n"
    assert not output.exists()


def test_a_model_saved_without_a_label_mapping_reads_truth_coded_minus_one_and_one(tmp_path,
                                                                                   capsys):
    # A model file may hold no label mapping: predict then maps the truth tokens by byte
    # order, as a fit maps its labels, and writes the codes as the labels.
    x, y = blobs(12, 1.0, seed=2)
    data = _csv(tmp_path / "d.csv", "classify", [(*row, int(t)) for row, t in zip(x, y)])
    model = models.fit("trkm", "classify", x, y, {"gamma": 1.0, "eta": 1.0, "sigma": 1.0})
    accuracy = classification_accuracy(models.predict(model, x), y)
    assert accuracy < 100.0
    outputs = []
    for name, mapping in (("bare", None), ("mapped", (("-1", -1), ("1", 1)))):
        path, output = tmp_path / f"{name}.json", tmp_path / f"{name}.csv"
        save_model(replace(model, label_mapping=mapping), str(path))
        assert run("predict", "--model", str(path), "--data", data, "--label-col", "label",
                   "--output", str(output)) == 0
        outputs.append((capsys.readouterr().out.splitlines()[1], output.read_bytes()))
    assert outputs[0] == outputs[1]
    assert outputs[0][0] == f"accuracy: {accuracy:.4f}%"


def _rewrite_payload(path, edit):
    """Edit a model file's payload and store the checksum the edited payload has."""
    doc = json.loads(path.read_text())
    edit(doc["payload"])
    canonical = json.dumps(doc["payload"], sort_keys=True, separators=(",", ":"))
    doc["checksum"] = hashlib.sha256(canonical.encode("utf-8")).hexdigest()
    path.write_text(json.dumps(doc, indent=1))


def _drop_last_h1(payload):
    h1 = payload["body"]["h1"]
    h1["values"].pop()
    h1["shape"] = [len(h1["values"])]


def _widen_b(payload):
    """Give the stored class -1 rows one feature more than the class +1 rows."""
    b = payload["body"]["B"]
    rows, cols = b["shape"]
    values = b["values"]
    b["values"] = [v for r in range(rows) for v in values[r * cols:(r + 1) * cols] + ["0x0.0p+0"]]
    b["shape"] = [rows, cols + 1]


def _set_hex(*keys, value):
    """An edit that stores ``value`` as hex text at the payload path ``keys``."""
    def edit(payload):
        for key in keys[:-1]:
            payload = payload[key]
        payload[keys[-1]] = float(value).hex()
    return edit


@pytest.mark.parametrize("model_kind, edit, named", [
    ("trkm", lambda payload: payload.update(task="regress"),
     ["'regress'", "'trkm_classifier'"]),
    ("trkm", lambda payload: payload["body"]["hyperparams"].update(kernel="gaussian"),
     ["malformed"]),
    ("trkm", _drop_last_h1, ["h1 of shape (11,)", "A of shape (12, 2)"]),
    ("trkm", lambda payload: payload.update(normalization=payload["normalization"][:1]),
     ["normalization has 1 features", "model has 2"]),
    ("trkm", lambda payload: payload["label_mapping"][1].__setitem__(1, 7), ["label_mapping", "7"]),
    ("trkm", _widen_b, ["B of shape (", ", 3) has another column count than A of shape (12, 2)"]),
    ("trkm", _set_hex("body", "b1", value="nan"), ["b1 holds a non-finite value"]),
    ("trkm", _set_hex("body", "A", "values", 0, value="inf"), ["A holds a non-finite value"]),
    ("trkm", _set_hex("normalization", 0, 1, value="nan"),
     ["normalization holds a non-finite value"]),
    ("trkm", _set_hex("body", "hyperparams", "eta2", value=0.0),
     ["hyperparams eta2 = 0.0", "finite positive"]),
    ("trkm", lambda payload: payload.update(label_mapping=[["1", -1], ["1", 1]]),
     ["is not two distinct labels coded -1, +1", "(('1', -1), ('1', 1))"]),
    ("trkm", lambda payload: payload["body"]["hyperparams"]["kernel"].update(family="linear"),
     ["linear kernel takes no sigma"]),
    ("rkm", _set_hex("body", "hyperparams", "gamma", value=-1.0),
     ["hyperparams gamma = -1.0", "finite positive"]),
    ("rkm", _set_hex("body", "hyperparams", "gamma", value="inf"),
     ["hyperparams gamma = inf", "finite positive"]),
    ("rkm", _set_hex("body", "h", "values", 3, value="nan"), ["h holds a non-finite value"]),
], ids=["classifier-read-as-regressor", "kernel-not-object", "short-h1",
        "one-pair-normalization", "label-code-7", "b-wider-than-a", "nan-b1", "inf-in-a",
        "nan-normalization-bound", "zero-eta2", "one-raw-label-twice", "linear-kernel-sigma",
        "rkm-negative-gamma", "rkm-inf-gamma", "rkm-nan-in-h"])
def test_crafted_model_file_is_corrupt(tmp_path, blob_csv, capsys, model_kind, edit, named):
    model_path = tmp_path / "model.json"
    assert run(
        "train", "--task", "classify", "--model-kind", model_kind, "--data", blob_csv,
        "--label-col", "label", "--gamma", "1", "--eta", "1", "--sigma", "1",
        "--model-out", str(model_path),
    ) == 0
    _rewrite_payload(model_path, edit)
    capsys.readouterr()
    assert run("predict", "--model", str(model_path), "--data", blob_csv,
               "--label-col", "label", "--output", str(tmp_path / "p.csv")) == 3
    err = capsys.readouterr().err
    assert str(model_path) in err and "malformed payload" in err, err
    assert all(word in err for word in named), err


def _set_text(*keys, value="zz"):
    """An edit that stores the text ``value`` at the payload path ``keys``."""
    def edit(payload):
        for key in keys[:-1]:
            payload = payload[key]
        payload[keys[-1]] = value
    return edit


def _predict_with_edited_model(tmp_path, keys, value):
    """Train a TRKM-C model, store ``value`` at the payload path ``keys`` under a recomputed
    checksum and predict with it: the model file and predict's exit code."""
    model_path = tmp_path / "m.json"
    data = str(DATA_DIR / "synthetic" / "crossplane130.csv")
    assert run("train", "--task", "classify", "--data", data, "--label-col", "label",
               "--gamma", "1", "--eta", "1", "--sigma", "1", "--model-out", str(model_path)) == 0
    _rewrite_payload(model_path, _set_text(*keys, value=value))
    return model_path, run("predict", "--model", str(model_path), "--data", data,
                           "--label-col", "label", "--output", str(tmp_path / "p.csv"))


BEYOND_DOUBLE = "0x1p+2000"  # hex float text that float.fromhex refuses with OverflowError


@pytest.mark.parametrize("keys, value, field", [
    (("body", "b1"), "zz", "b1"),
    (("body", "A", "values", 5), "zz", "A"),
    (("body", "hyperparams", "gamma1"), "zz", "hyperparams gamma1"),
    (("normalization", 1, 0), "zz", "normalization"),
    (("body", "hyperparams", "kernel", "sigma"), "zz", "hyperparams kernel sigma"),
    (("body", "b1"), BEYOND_DOUBLE, "b1"),
    (("body", "A", "values", 5), BEYOND_DOUBLE, "A"),
    (("body", "hyperparams", "gamma1"), BEYOND_DOUBLE, "hyperparams gamma1"),
    (("normalization", 1, 0), BEYOND_DOUBLE, "normalization"),
], ids=["b1", "one-value-of-a", "gamma1", "normalization-bound", "kernel-sigma",
        "b1-beyond-double", "one-value-of-a-beyond-double", "gamma1-beyond-double",
        "normalization-bound-beyond-double"])
def test_a_non_hex_float_names_the_file_and_the_field(tmp_path, capsys, keys, value, field):
    # Text that is not hex float text, or hex float text beyond double range.
    model_path, code = _predict_with_edited_model(tmp_path, keys, value)
    assert code == 3
    assert capsys.readouterr().err == \
        f"error: {model_path}: malformed payload ({field}: bad float field {value!r})\n"


@pytest.mark.parametrize("keys, reason", [
    (("body", "A", "shape", 0),
     "A: malformed array field: cannot convert float infinity to integer"),
    (("label_mapping", 0, 1), "cannot convert float infinity to integer"),
], ids=["shape-of-a", "label-code"])
def test_an_infinite_integer_field_is_corrupt(tmp_path, capsys, keys, reason):
    # JSON's Infinity where a shape entry or a label code belongs.
    model_path, code = _predict_with_edited_model(tmp_path, keys, math.inf)
    assert code == 3
    assert capsys.readouterr().err == f"error: {model_path}: malformed payload ({reason})\n"


@pytest.fixture(scope="module")
def trained_model_files(tmp_path_factory):
    """A TRKM-C, an RKM and a TRKM-R model file, each with the feature columns of the file it
    was trained on."""
    root = tmp_path_factory.mktemp("trained")
    problems = {"classify": blobs(6, 5.0, seed=0), "regress": sine(8, seed=3)}
    files = {}
    for model_kind, task in (("trkm", "classify"), ("rkm", "classify"), ("trkm", "regress")):
        x, target = problems[task]
        data, model = root / f"{task}.csv", root / f"{model_kind}-{task}.json"
        _csv(data, task, [(*row, t) for row, t in zip(x, target)])
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["train", "--task", task, "--model-kind", model_kind, "--data", str(data),
                         *TRUTH[task], "--gamma", "1", "--eta", "1", "--sigma", "1",
                         "--model-out", str(model)]) == 0
        features = root / f"{task}-features.csv"
        features.write_text("\n".join(",".join(map(str, row)) for row in x) + "\n")
        files[model.name] = (model.read_bytes(), str(features))
    return root, files


def _positions(node, path=()):
    """The path of every value below ``node`` in a JSON document: each key and each index."""
    children = (node.items() if isinstance(node, dict)
                else enumerate(node) if isinstance(node, list) else ())
    for key, child in children:
        yield path + (key,)
        yield from _positions(child, path + (key,))


DELETED = "deleted"  # an edit that removes the value
MODEL_FILE_EDITS = [
    DELETED, BEYOND_DOUBLE, "-" + BEYOND_DOUBLE, "0x1p-1074", "-0x0p+0", "nan", "inf", "zz", "",
    math.inf, -math.inf, math.nan, 1e308, 0.5, -1, 0, 1, 2, 2**64, None, True,
    [], [3], [2, 0], [[1, 2]], {}, {"shape": [1], "values": ["0x1p+0"]},
    "linear", "gaussian", "rkm", "trkm_regressor", "regress",
]


@settings(max_examples=200)
@given(data=st.data())
def test_an_edited_model_file_predicts_or_exits_3_naming_it(trained_model_files, data):
    # One payload value replaced or deleted under a recomputed checksum, or one byte of the
    # file flipped under the stored one: predict reads it or refuses it in one line.
    root, files = trained_model_files
    name = data.draw(st.sampled_from(sorted(files)), label="model")
    raw, data_file = files[name]
    model = root / "edited.json"
    model.write_bytes(raw)
    if data.draw(st.booleans(), label="edit a value"):
        *parents, key = data.draw(st.sampled_from(list(_positions(json.loads(raw)["payload"]))),
                                  label="position")
        value = data.draw(st.sampled_from(MODEL_FILE_EDITS), label="value")

        def edit(payload):
            for parent in parents:
                payload = payload[parent]
            if value == DELETED:
                del payload[key]
            else:
                payload[key] = value
        _rewrite_payload(model, edit)
    else:
        flipped = bytearray(raw)
        flipped[data.draw(st.integers(0, len(raw) - 1), label="byte")] ^= data.draw(
            st.integers(1, 255), label="mask")
        model.write_bytes(bytes(flipped))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["predict", "--model", str(model), "--data", data_file, "--no-header",
                     "--output", str(root / "predictions.csv")])
    err = err.getvalue()
    if code == 0:
        assert err == ""
    else:
        assert code == 3 and err.startswith(f"error: {model}") and err.count("\n") == 1, err


def test_a_model_file_is_the_same_at_any_blas_thread_setting(tmp_path):
    # numpy's and SciPy's OpenBLAS each read OPENBLAS_NUM_THREADS as they load. A second
    # thread changes the rounding of this 150-row fit on a host with two or more cores;
    # main sets both copies to one thread, so unset, 1 and 2 write the same bytes.
    data = tmp_path / "sine.csv"
    write_regression_csv(str(data), *sine(150, seed=3))
    written = []
    for threads in (None, "1", "2"):
        model = tmp_path / f"model-{threads}.json"
        run_python(f"""
import os
for var in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ.pop(var, None)
if {threads!r} is not None:
    os.environ["OPENBLAS_NUM_THREADS"] = {threads!r}
from trkm.cli import main
assert main(["train", "--task", "regress", "--data", {str(data)!r}, "--target-col", "target",
             "--gamma", "1", "--eta", "0.1", "--sigma", "1", "--model-out", {str(model)!r}]) == 0
""")
        written.append(model.read_bytes())
    assert written[1] == written[0] and written[2] == written[0]


def test_train_prints_the_same_residuals_at_any_blas_thread_setting_above_the_gate(tmp_path):
    # A 400-row TRKM-R fit takes its residuals' K h by SciPy's dsymv, whose rounding here
    # changes with a second thread (the upper-function residual of this sample); _fblas
    # links the OpenBLAS that main sets to one thread through _flapack.
    data, model = tmp_path / "sine.csv", tmp_path / "model.json"
    write_regression_csv(str(data), *sine(400, seed=3))
    printed = [run_python(f"""
import os
for var in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ.pop(var, None)
if {threads!r} is not None:
    os.environ["OPENBLAS_NUM_THREADS"] = {threads!r}
from trkm.cli import main
assert main(["train", "--task", "regress", "--data", {str(data)!r}, "--target-col", "target",
             "--gamma", "1", "--eta", "0.1", "--sigma", "1", "--model-out", {str(model)!r}]) == 0
""") for threads in (None, "1", "2")]
    assert "upper-function system: residual" in printed[0]
    assert printed[1] == printed[0] and printed[2] == printed[0]


@pytest.mark.skipif(not os.path.exists("/proc/self/statm"), reason="reads its size from /proc")
def test_an_input_too_large_for_memory_exits_3_naming_the_file(tmp_path):
    # RKM's kernel of 25,000 rows takes 4.66 GiB. The interpreter caps its own address
    # space at about 1 GiB above what it maps, so that allocation fails at mmap, before
    # any page of it is touched; main reports it instead of a traceback.
    data, model = tmp_path / "big.csv", tmp_path / "model.json"
    out = run_python(f"""
import contextlib, io, resource
import numpy as np
from trkm.cli import main
from trkm.synthetic import write_classification_csv
x = np.random.default_rng(0).normal(size=(25000, 2))
write_classification_csv({str(data)!r}, x, np.where(x[:, 0] > 0, 1, -1))
with open("/proc/self/statm") as fh:
    mapped = int(fh.read().split()[0]) * resource.getpagesize()
resource.setrlimit(resource.RLIMIT_AS, (mapped + 2**30, resource.getrlimit(resource.RLIMIT_AS)[1]))
err = io.StringIO()
with contextlib.redirect_stderr(err):
    code = main(["train", "--task", "classify", "--model-kind", "rkm", "--data", {str(data)!r},
                 "--label-col", "label", "--gamma", "1", "--eta", "1", "--sigma", "1",
                 "--model-out", {str(model)!r}])
print(code)
print(err.getvalue(), end="")
""")
    code, message = out.split("\n", 1)
    assert code == "3", message
    assert message.startswith(f"error: {data}: not enough memory: Unable to allocate 4.66 GiB")
    assert "Traceback" not in message and message.count("\n") == 1
    assert not model.exists()


def test_min_max_overflow_exits_3_naming_the_file_and_the_feature(tmp_path, capsys):
    # Training: max - min of the column 'huge' overflows, so its max scales to
    # inf/inf. Predicting: the training range [-1e308, 0] is finite, but a row at
    # 1e308 scales past it; that file has no header, so its feature is named by
    # its 1-based index.
    wide = tmp_path / "wide.csv"
    wide.write_text("f0,huge,label\n" + "".join(f"{i},{v!r},{i % 2}\n" for i, v in
                                                enumerate([1e308, -1e308, 0.0, 1.0])))
    model = tmp_path / "model.json"
    argv = ["--task", "classify", "--label-col", "label", "--gamma", "1", "--eta", "1",
            "--sigma", "1", "--model-out", str(model)]
    assert run("train", "--data", str(wide), *argv) == 3
    assert capsys.readouterr().err == (f"error: {wide}: feature 'huge': value 1e+308 overflows "
                                       "when scaled to the training range [-1e+308, 1e+308]\n")
    assert not model.exists()
    wide.write_text("f0,huge,label\n" + "".join(f"{i},{v!r},{i % 2}\n" for i, v in
                                                enumerate([0.0, -1e308, 0.0, -1.0])))
    assert run("train", "--data", str(wide), *argv) == 0
    far = tmp_path / "far.csv"
    far.write_text("0.5,-1.0,1\n0.5,1e308,0\n")
    capsys.readouterr()
    assert run("predict", "--model", str(model), "--data", str(far), "--no-header",
               "--label-col", "2", "--output", str(tmp_path / "p.csv")) == 3
    assert capsys.readouterr().err == (f"error: {far}: feature 2: value 1e+308 overflows when "
                                       "scaled to the training range [-1e+308, 0.0]\n")
    assert not (tmp_path / "p.csv").exists()


def _same_document(data: bytes, good: bytes) -> bool:
    try:
        return json.loads(data.decode("utf-8")) == json.loads(good.decode("utf-8"))
    except ValueError:
        return False


def test_damaged_model_files_exit_3(tmp_path, blob_csv, capsys):
    model_path = tmp_path / "model.json"
    assert run(
        "train", "--task", "classify", "--data", blob_csv, "--label-col", "label",
        "--gamma", "1", "--eta", "1", "--sigma", "1", "--model-out", str(model_path),
    ) == 0
    good = model_path.read_bytes()
    rng = np.random.default_rng(2024)
    damaged = [good[:k] for k in (0, 1, 17, len(good) // 3, len(good) // 2, len(good) - 1)]
    for pos in rng.choice(len(good), size=60, replace=False):
        flipped = bytearray(good)
        flipped[pos] ^= int(rng.integers(1, 256))
        damaged.append(bytes(flipped))
    doc = json.loads(good)
    doc["format_version"] = 2
    damaged.append(json.dumps(doc, indent=1).encode("utf-8"))
    for i, data in enumerate(damaged):
        model_path.write_bytes(data)
        code = run("predict", "--model", str(model_path), "--data", blob_csv,
                   "--output", str(tmp_path / "p.csv"))
        # a flip between two whitespace bytes leaves the same document, which still loads
        assert code == 3 or (code == 0 and _same_document(data, good)), (i, code)


def test_a_model_file_nested_too_deep_exits_3_naming_it(tmp_path, blob_csv, capsys):
    # json.loads raises RecursionError, not ValueError, on nesting this deep
    model_path = tmp_path / "deep.json"
    model_path.write_bytes(b"[" * 100_000)
    out = tmp_path / "p.csv"
    assert run("predict", "--model", str(model_path), "--data", blob_csv,
               "--output", str(out)) == 3
    assert capsys.readouterr().err.startswith(f"error: {model_path}: not valid JSON (")
    assert not out.exists()


# The data-file slice of the fuzzed exit-code contract: values at the ends of double range,
# and files that are empty, a header only, ragged, non-finite, one row or one label.
DATA_MAGNITUDES = (0.0, 5e-324, 1e-300, 1.0, 1e300, 1.7e308)
DATA_VALUE = st.builds(lambda sign, magnitude: sign * magnitude, st.sampled_from((1.0, -1.0)),
                       st.sampled_from(DATA_MAGNITUDES))


# Besides the file, an error line may name a flag, the grid cell that failed (its params) or
# the system whose solve failed.
NAMED_FAULT = re.compile(r"--[a-z]|\{'gamma': |\bsystem: ")


@st.composite
def data_files(draw):
    """(model kind, task, text) of a generated data file of at most 8 rows, header f0, f1, ...
    and the task's truth column."""
    kind, task = draw(st.sampled_from([("trkm", "classify"), ("rkm", "classify"),
                                       ("trkm", "regress")]))
    shape = draw(st.sampled_from(["empty", "header only", "rows"]))
    if shape == "empty":
        return kind, task, ""
    features = draw(st.integers(1, 2))
    truth = st.sampled_from((1.0, -1.0)) if task == "classify" else DATA_VALUE
    rows = [[*map(repr, draw(st.lists(DATA_VALUE, min_size=features, max_size=features))),
             repr(draw(truth))] for _ in range(draw(st.integers(1, 8)) if shape == "rows" else 0)]
    if rows and draw(st.booleans(), label="ragged"):
        del draw(st.sampled_from(rows))[-1]
    if rows and draw(st.booleans(), label="non-finite"):
        row = draw(st.sampled_from(rows))
        row[draw(st.integers(0, len(row) - 1))] = draw(st.sampled_from(("nan", "inf", "-inf")))
    header = [f"f{j}" for j in range(features)] + [TRUTH[task][1]]
    return kind, task, "\n".join(",".join(row) for row in [header, *rows]) + "\n"


@settings(max_examples=200)
@given(case=data_files())
@example(case=("trkm", "regress", "f0,target\n" + "".join(f"{x!r},{t!r}\n"
                                                           for x, t in OVERFLOWING_TARGETS)))
# a fold's refit whose two component functions overflow as they are summed
@example(case=("trkm", "regress", "f0,target\n0.0,1.7e+308\n" + "0.0,0.0\n" * 4
                                  + "0.0,1.7e+308\n0.0,0.0\n"))
# a train whose system is singular at its residual
@example(case=("trkm", "regress", "f0,target\n0.1,1e308\n0.2,-1e308\n0.3,1\n0.4,2\n0.5,3\n"))
def test_a_data_file_trains_searches_and_predicts_or_exits_naming_it(trained_model_files, case):
    # predict reads the file with a model trained on 2 (classify) or 1 (regress) features
    kind, task, text = case
    with tempfile.TemporaryDirectory() as tmp:
        data, out = Path(tmp) / "data.csv", Path(tmp) / "out"
        data.write_text(text)
        common = ["--task", task, "--model-kind", kind, "--data", str(data), *TRUTH[task]]
        for argv in (["train", *common, "--gamma", "1", "--eta", "1", "--sigma", "1",
                      "--model-out", str(out / "m.json")],
                     ["gridsearch", *common, "--folds", "2", "--gamma-grid", "1",
                      "--eta-grid", "1", "--sigma-grid", "1"],
                     ["predict", "--model", str(trained_model_files[0] / f"{kind}-{task}.json"),
                      *common[4:], "--output", str(out / "p.csv")]):
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main(["--output-dir", str(out), *argv])
            err = err.getvalue()
            assert code in (0, 2, 3, 4), (argv[0], code, err)
            assert "Traceback" not in err and "RuntimeWarning" not in err, err
            for line in err.splitlines():
                # a train that fails on its numbers names the file, as on its data
                assert str(data) in line or (NAMED_FAULT.search(line)
                                             and (argv[0], code) != ("train", 4)), (argv[0], line)
