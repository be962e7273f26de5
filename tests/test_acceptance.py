"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see every line. Two
criteria cannot pass in this sandbox and are left honestly red rather than
weakened; see notes on the individual tests:

* criterion 5 (classification F statistic): the published accuracy matrix
  with midrank ties yields F = 13.57, which sits 3.8% above the published
  13.07 while the criterion allows 3%. The chi-square value (within 2.8%)
  and every other statistic replicate.
* criterion 6 (haberman / new-thyroid1): the raw UCI/KEEL files are not
  obtainable in this offline environment; the test runs in full when the
  CSVs are placed under data/uci/ (see README).
"""

import csv
import json
import time

import numpy as np
import pytest

from trkm.classifier import (
    TrkmClassifierHyperparams,
    decision_values,
    fit_classifier,
    predict_labels,
)
from trkm.data import CLASSIFY, Dataset, apply_normalization, load_csv, normalize_minmax
from trkm.kernels import gaussian, gram, linear
from trkm.metrics import classification_accuracy, regression_errors
from trkm.regressor import (
    TrkmRegressorHyperparams,
    fit_regressor,
    predict_regression,
    regression_components,
)
from trkm.selection import GridSpec, SplitSpec, grid_search, split
from trkm.stats import friedman_test, nemenyi_cd, rank_models, win_tie_loss
from trkm.synthetic import blobs, crossplane, sine, write_classification_csv

from conftest import DATA_DIR
from oracles import classifier_slacks, regressor_slacks

UCI_DIR = DATA_DIR / "uci"


def report(criterion: str, passed: bool, detail: str = ""):
    status = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] {criterion}: {status}{suffix}")
    return passed


def load_reference(name):
    with open(DATA_DIR / "reference" / name, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0][1:], np.array([[float(v) for v in r[1:]] for r in rows[1:]])


def random_classification_problem(rng):
    n = int(rng.integers(4, 61))
    m = int(rng.integers(1, 11))
    x = rng.normal(size=(n, m))
    y = rng.choice([-1, 1], size=n)
    y[0], y[1] = 1, -1
    return x[y == 1], x[y == -1]


# -- criterion 1 ------------------------------------------------------------

def test_criterion_1_stationarity_and_balance_suite():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst_stat = worst_bal = 0.0
    for _ in range(50):
        a, b = random_classification_problem(rng)
        hp = TrkmClassifierHyperparams.equal_penalty(
            float(rng.choice([1e-3, 1.0, 1e3])),
            float(rng.choice([1e-3, 1.0, 1e3])),
            gaussian(float(rng.choice([0.5, 2.0]))),
        )
        model = fit_classifier(a, b, hp)
        xi1, xi2 = classifier_slacks(model)
        worst_stat = max(
            worst_stat,
            float(np.max(np.abs(hp.eta1 * model.h1 - xi1))),
            float(np.max(np.abs(hp.eta2 * model.h2 - xi2))),
        )
        worst_bal = max(
            worst_bal,
            abs(model.h1.sum() - len(b)),
            abs(model.h2.sum() + len(a)),
        )
    elapsed = time.perf_counter() - start
    ok = worst_stat <= 1e-6 and worst_bal <= 1e-6 and elapsed < 10.0
    report(
        "criterion 1 stationarity suite", ok,
        f"worst stationarity {worst_stat:.2e}, worst balance {worst_bal:.2e}, {elapsed:.2f}s",
    )
    assert worst_stat <= 1e-6
    assert worst_bal <= 1e-6
    assert elapsed < 10.0


# -- criterion 2 ------------------------------------------------------------

def test_criterion_2_fenchel_young_suite():
    rng = np.random.default_rng(202)
    worst_violation = 0.0
    worst_equality_gap = 0.0
    for i in range(20):
        if i % 2 == 0:
            a, b = random_classification_problem(rng)
            hp = TrkmClassifierHyperparams.equal_penalty(
                float(rng.uniform(0.1, 10)), float(rng.uniform(0.1, 10)), gaussian(1.0)
            )
            model = fit_classifier(a, b, hp)
            slack_pairs = zip(classifier_slacks(model), (hp.eta1, hp.eta2))
        else:
            n = int(rng.integers(5, 40))
            x = rng.normal(size=(n, 3))
            y = rng.normal(size=n)
            hp = TrkmRegressorHyperparams.equal_penalty(
                float(rng.uniform(0.1, 10)), float(rng.uniform(0.1, 10)), gaussian(1.0)
            )
            model = fit_regressor(x, y, hp)
            slack_pairs = zip(regressor_slacks(model), (hp.eta1, hp.eta2))
        for xi, eta in slack_pairs:
            lhs = xi @ xi / (2.0 * eta)
            for _ in range(100):
                h = rng.normal(size=xi.shape)
                gap = lhs - (xi @ h - eta / 2.0 * (h @ h))
                worst_violation = max(worst_violation, -gap)
            h_star = xi / eta
            eq_gap = abs(lhs - (xi @ h_star - eta / 2.0 * (h_star @ h_star)))
            worst_equality_gap = max(worst_equality_gap, eq_gap)
    ok = worst_violation <= 1e-9 and worst_equality_gap <= 1e-9
    report(
        "criterion 2 Fenchel-Young suite", ok,
        f"worst violation {worst_violation:.2e}, equality gap {worst_equality_gap:.2e}",
    )
    assert worst_violation <= 1e-9
    assert worst_equality_gap <= 1e-9


# -- criterion 3 ------------------------------------------------------------

def test_criterion_3_linear_kernel_primal_dual_oracle():
    rng = np.random.default_rng(303)
    worst = 0.0
    for i in range(20):
        m = int(rng.integers(1, 6))
        queries = rng.normal(size=(8, m))
        if i % 2 == 0:
            n1, n2 = int(rng.integers(3, 16)), int(rng.integers(3, 16))
            a, b = rng.normal(size=(n1, m)), rng.normal(size=(n2, m))
            hp = TrkmClassifierHyperparams(
                *(float(rng.uniform(0.5, 5)) for _ in range(4)), kernel=linear()
            )
            model = fit_classifier(a, b, hp)
            g1, g2 = decision_values(model, queries)
            w1 = (a.T @ model.h1 - b.T @ np.ones(n2)) / hp.gamma1
            w2 = (b.T @ model.h2 + a.T @ np.ones(n1)) / hp.gamma2
        else:
            n = int(rng.integers(4, 31))
            x, y = rng.normal(size=(n, m)), rng.normal(size=n)
            hp = TrkmRegressorHyperparams(
                *(float(rng.uniform(0.5, 5)) for _ in range(4)), kernel=linear()
            )
            model = fit_regressor(x, y, hp)
            g1, g2 = regression_components(model, queries)
            e = np.ones(n)
            w1 = x.T @ (e - model.h1) / hp.gamma1
            w2 = x.T @ (model.h2 - e) / hp.gamma2
        worst = max(
            worst,
            float(np.max(np.abs(g1 - (queries @ w1 + model.b1)))),
            float(np.max(np.abs(g2 - (queries @ w2 + model.b2)))),
        )
    ok = worst <= 1e-10
    report("criterion 3 primal-dual oracle", ok, f"worst gap {worst:.2e}")
    assert worst <= 1e-10


# -- criterion 4 ------------------------------------------------------------

def test_criterion_4_small_system_brute_force_oracle():
    from oracles import augmented, solve_full_pivot

    rng = np.random.default_rng(404)
    worst = 0.0
    for _ in range(12):
        n1, n2, m = int(rng.integers(1, 9)), int(rng.integers(1, 9)), int(rng.integers(1, 4))
        a, b = rng.normal(size=(n1, m)), rng.normal(size=(n2, m))
        hp = TrkmClassifierHyperparams.equal_penalty(1.4, 0.7, gaussian(1.0))
        model = fit_classifier(a, b, hp)
        k_aa = gram(hp.kernel, a, a)
        k_ab = gram(hp.kernel, a, b)
        k_bb = gram(hp.kernel, b, b)
        e1, e2 = np.ones(n1), np.ones(n2)
        # positive-class system
        aug, rhs = augmented(
            k_aa / hp.gamma1 + hp.eta1 * np.eye(n1), e1, +1,
            e1 + k_ab @ e2 / hp.gamma1, n2,
        )
        ref = solve_full_pivot(aug, rhs)
        worst = max(worst, float(np.max(np.abs(model.h1 - ref[:n1]))), abs(model.b1 - ref[n1]))
        # negative-class system
        aug, rhs = augmented(
            k_bb / hp.gamma2 + hp.eta2 * np.eye(n2), e2, +1,
            -(e2 + k_ab.T @ e1 / hp.gamma2), -float(n1),
        )
        ref = solve_full_pivot(aug, rhs)
        worst = max(worst, float(np.max(np.abs(model.h2 - ref[:n2]))), abs(model.b2 - ref[n2]))

        n = int(rng.integers(2, 9))
        x, y = rng.normal(size=(n, m)), rng.normal(size=n)
        rhp = TrkmRegressorHyperparams.equal_penalty(0.9, 1.8, gaussian(1.0))
        rmodel = fit_regressor(x, y, rhp)
        k = gram(rhp.kernel, x, x)
        e = np.ones(n)
        # lower-function system (negated border column)
        aug, rhs = augmented(
            k / rhp.gamma1 + rhp.eta1 * np.eye(n), e, -1, -y + k @ e / rhp.gamma1, n
        )
        ref = solve_full_pivot(aug, rhs)
        worst = max(worst, float(np.max(np.abs(rmodel.h1 - ref[:n]))), abs(rmodel.b1 - ref[n]))
        # upper-function system
        aug, rhs = augmented(
            k / rhp.gamma2 + rhp.eta2 * np.eye(n), e, +1, y + k @ e / rhp.gamma2, n
        )
        ref = solve_full_pivot(aug, rhs)
        worst = max(worst, float(np.max(np.abs(rmodel.h2 - ref[:n]))), abs(rmodel.b2 - ref[n]))
    ok = worst <= 1e-9
    report("criterion 4 brute-force oracle", ok, f"worst gap {worst:.2e}")
    assert worst <= 1e-9


# -- criterion 5 ------------------------------------------------------------

def test_criterion_5_classification_ranks_chi2_cd_signtest():
    models, matrix = load_reference("classification_accuracy.csv")
    table = rank_models(matrix, better="higher")
    published = [4.98, 4.00, 3.86, 2.77, 3.16, 2.20]
    rank_gap = float(np.max(np.abs(table.average_ranks - published)))
    fr = friedman_test(table)
    cd = nemenyi_cd(6, 36, 2.850)
    w = win_tie_loss(matrix[:, models.index("TRKM-C")], matrix[:, models.index("SVM")],
                     better="higher")
    ok = (
        rank_gap <= 0.05
        and abs(fr.chi2 - 48.95) <= 0.03 * 48.95
        and abs(cd - 1.2567) <= 0.0005
        and (w.wins, w.ties, w.losses) == (31, 1, 4)
    )
    report(
        "criterion 5 classification ranks/chi2/CD/sign-test", ok,
        f"rank gap {rank_gap:.4f}, chi2 {fr.chi2:.2f}, CD {cd:.4f}, "
        f"wtl ({w.wins},{w.ties},{w.losses})",
    )
    assert rank_gap <= 0.05
    assert abs(fr.chi2 - 48.95) <= 0.03 * 48.95
    assert abs(cd - 1.2567) <= 0.0005
    assert (w.wins, w.ties, w.losses) == (31, 1, 4)


def test_criterion_5_classification_f_statistic():
    """Expected red: midranks on the published matrix give F = 13.57 (+3.8%).

    The criterion allows 3% around the published 13.07. The F transform
    amplifies the chi-square deviation (itself within tolerance), so no
    tie-handling consistent with the published average ranks can land
    inside 3%. Kept at the stated tolerance rather than widened.
    """
    _, matrix = load_reference("classification_accuracy.csv")
    fr = friedman_test(rank_models(matrix, better="higher"))
    ok = abs(fr.ff - 13.07) <= 0.03 * 13.07
    report("criterion 5 classification F statistic", ok, f"F {fr.ff:.4f} vs 13.07 +/- 3%")
    assert ok, f"F = {fr.ff:.4f} outside 13.07 +/- 3%"


def test_criterion_5_regression_ranks_and_chi2():
    models, matrix = load_reference("regression_rmse.csv")
    table = rank_models(matrix, better="lower")
    published = {"SVR": 3.2, "TSVR": 4.0, "TSVQR": 4.8, "RKM": 1.7, "TRKM-R": 1.3}
    rank_gap = max(
        abs(avg - published[name]) for name, avg in zip(models, table.average_ranks)
    )
    fr = friedman_test(table)
    ok = rank_gap <= 0.05 and abs(fr.chi2 - 35.44) <= 0.03 * 35.44
    report(
        "criterion 5 regression ranks/chi2", ok,
        f"rank gap {rank_gap:.4f}, chi2 {fr.chi2:.4f}",
    )
    assert rank_gap <= 0.05
    assert abs(fr.chi2 - 35.44) <= 0.03 * 35.44


# -- criterion 6 ------------------------------------------------------------

def fit_and_score(train, test, hp):
    model = fit_classifier(train.X[train.target == 1], train.X[train.target == -1], hp)
    return classification_accuracy(predict_labels(model, test.X), test.target)


def test_criterion_6_crossplane_reproduction():
    start = time.perf_counter()
    x, y = crossplane()
    ds = Dataset(X=x, target=y, task=CLASSIFY)
    hp = TrkmClassifierHyperparams.equal_penalty(1e-5, 1e-5, gaussian(2.0**-5))
    accs = []
    for seed in range(5):
        train, test = split(ds, SplitSpec(0.7, seed=seed, stratified=True))
        train = normalize_minmax(train)
        test = apply_normalization(test, train.normalization)
        accs.append(fit_and_score(train, test, hp))
    elapsed = time.perf_counter() - start
    ok = all(a == 100.0 for a in accs)
    report("criterion 6 crossplane130", ok, f"accuracies {accs}, {elapsed:.2f}s")
    assert accs == [100.0] * 5


@pytest.mark.parametrize(
    "filename,label_column,published",
    [("haberman.csv", "label", 80.43), ("new-thyroid1.csv", "label", 96.92)],
)
def test_criterion_6_uci_grid_search_reproduction(filename, label_column, published):
    """Runs the full tuned protocol when the real dataset files are present.

    The raw UCI/KEEL files cannot be fetched in this offline sandbox (no
    general network; the package mirror carries no dataset bundles), so this
    is red here; place the CSVs under data/uci/ as described in the README
    to execute it.
    """
    path = UCI_DIR / filename
    if not path.exists():
        report(f"criterion 6 {filename}", False, "dataset file not available")
        pytest.fail(
            f"{path} not found: supply the real dataset to run this criterion "
            "(see README, Datasets section)"
        )
    start = time.perf_counter()
    ds = load_csv(str(path), label_column=label_column)
    train, test = split(ds, SplitSpec(0.7, seed=0, stratified=True))
    train = normalize_minmax(train)
    test = apply_normalization(test, train.normalization)
    result = grid_search(train, GridSpec(), CLASSIFY, seed=0)
    hp = TrkmClassifierHyperparams.equal_penalty(
        result.best_params["gamma"], result.best_params["eta"],
        gaussian(result.best_params["sigma"]),
    )
    acc = fit_and_score(train, test, hp)
    elapsed = time.perf_counter() - start
    ok = abs(acc - published) <= 4.0 and elapsed < 300.0
    report(f"criterion 6 {filename}", ok, f"accuracy {acc:.2f} vs {published}, {elapsed:.1f}s")
    assert abs(acc - published) <= 4.0
    assert elapsed < 300.0


# -- criterion 7 ------------------------------------------------------------

def test_criterion_7_regression_substitute():
    x, y = sine(50, seed=3)
    model = fit_regressor(x, y, TrkmRegressorHyperparams.equal_penalty(1e-3, 1e-3, gaussian(1.0)))
    rmse = regression_errors(predict_regression(model, x), y).rmse

    rng = np.random.default_rng(707)
    worst_shift = 0.0
    for _ in range(10):
        n = int(rng.integers(5, 30))
        xr = rng.normal(size=(n, 2))
        yr = rng.normal(size=n)
        c = float(rng.uniform(-10, 10))
        hp = TrkmRegressorHyperparams.equal_penalty(1.0, 0.1, gaussian(1.0))
        base = predict_regression(fit_regressor(xr, yr, hp), xr)
        shifted = predict_regression(fit_regressor(xr, yr + c, hp), xr)
        worst_shift = max(worst_shift, float(np.max(np.abs(shifted - (base + c)))))
    ok = rmse < 0.05 and worst_shift <= 1e-8
    report(
        "criterion 7 regression substitute", ok,
        f"sine rmse {rmse:.2e}, worst translation gap {worst_shift:.2e}",
    )
    assert rmse < 0.05
    assert worst_shift <= 1e-8


# -- criterion 8 ------------------------------------------------------------

def time_fit(n: int, rng) -> float:
    x = rng.normal(size=(n, 8))
    y = rng.normal(size=n)
    hp = TrkmRegressorHyperparams.equal_penalty(1.0, 0.1, gaussian(1.0))
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        fit_regressor(x, y, hp)
        best = min(best, time.perf_counter() - start)
    return best


def test_criterion_8_cubic_scaling_check():
    rng = np.random.default_rng(808)
    time_fit(100, rng)  # warm up BLAS/LAPACK paths
    t400 = time_fit(400, rng)
    t800 = time_fit(800, rng)
    ratio = t800 / t400
    ok = ratio <= 10.0
    report("criterion 8 scaling check", ok, f"t(800)/t(400) = {ratio:.2f}")
    assert ratio <= 10.0


# -- criterion 9 ------------------------------------------------------------

def test_criterion_9_benchmark_determinism(tmp_path):
    from trkm.cli import main

    paths = []
    for i in range(3):
        x, y = blobs(10 + 2 * i, 4.0 + i, seed=i)
        p = tmp_path / f"ds{i}.csv"
        write_classification_csv(str(p), x, y)
        paths.append(str(p))
    cfg = {
        "task": "classify",
        "split": {"train_fraction": 0.7, "stratified": True, "seeds": [0, 1]},
        "datasets": [
            {"name": f"ds{i}", "path": p, "label_column": "label"}
            for i, p in enumerate(paths)
        ],
        "models": [
            {"name": "TRKM-C", "kind": "trkm",
             "grid": {"gamma": [0.1, 1.0], "eta": [0.01], "sigma": [1.0, 2.0], "folds": 3}},
            {"name": "RKM", "kind": "rkm",
             "fixed": {"gamma": 0.1, "eta": 0.01, "sigma": 1.0}},
        ],
    }
    cfg_path = tmp_path / "bench.json"
    cfg_path.write_text(json.dumps(cfg))
    outputs = []
    for name in ("run1", "run2"):
        out = tmp_path / name
        code = main(["--seed", "7", "--output-dir", str(out),
                     "benchmark", "--config", str(cfg_path)])
        assert code == 0
        outputs.append(out)
    identical = all(
        (outputs[0] / f).read_bytes() == (outputs[1] / f).read_bytes()
        for f in ("scores.csv", "stats_report.txt", "stats_report.json")
    )
    report("criterion 9 benchmark determinism", identical)
    assert identical
