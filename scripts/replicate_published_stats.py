#!/usr/bin/env python3
"""Feed the published benchmark score tables through the statistics harness
and compare the outputs against the values reported alongside those tables.

No training happens here; this replays the rank / Friedman / Nemenyi /
sign-test pipeline on fixed score matrices (see data/reference/).
"""

from pathlib import Path

from trkm.data import parse_feature_table
from trkm.stats import friedman_test, nemenyi_cd, rank_models, win_tie_loss

REFERENCE = Path(__file__).resolve().parent.parent / "data" / "reference"


def load(name):
    """(model names, dataset-by-model score matrix) of a table in data/reference/."""
    matrix, _, models = parse_feature_table(str(REFERENCE / name), 0)
    return models, matrix


def show(label, computed, published, tolerance):
    flag = "ok" if abs(computed - published) <= tolerance else "MISMATCH"
    print(f"  {label:<28s} computed {computed:10.4f}   published {published:10.4f}   [{flag}]")


def main():
    print("classification accuracy table (36 datasets x 6 models)")
    models, matrix = load("classification_accuracy.csv")
    table = rank_models(matrix, better="higher")
    published_ranks = dict(zip(
        ["SVM", "TSVM", "Pin-GTSVM", "RKM", "GBTSVM", "TRKM-C"],
        [4.98, 4.00, 3.86, 2.77, 3.16, 2.20],
    ))
    for name, avg in zip(models, table.average_ranks):
        show(f"avg rank {name}", avg, published_ranks[name], 0.05)
    fr = friedman_test(table, critical_value=2.2657)
    show("friedman chi2", fr.chi2, 48.95, 0.03 * 48.95)
    show("friedman F", fr.ff, 13.0732, 0.03 * 13.0732)
    print(f"  null hypothesis rejected at F(5,175)=2.2657: {fr.reject_null}")
    show("nemenyi CD", nemenyi_cd(6, 36, 2.850), 1.2567, 0.0005)
    trkm = matrix[:, models.index("TRKM-C")]
    for rival in ("SVM", "TSVM", "Pin-GTSVM", "RKM", "GBTSVM"):
        w = win_tie_loss(trkm, matrix[:, models.index(rival)], better="higher")
        print(f"  TRKM-C vs {rival:<10s} win-tie-loss [{w.wins}, {w.ties}, {w.losses}]"
              f"   (significance needs > {w.threshold:.2f} wins)")

    print()
    print("regression RMSE table (10 datasets x 5 models)")
    models, matrix = load("regression_rmse.csv")
    table = rank_models(matrix, better="lower")
    published_ranks = dict(zip(
        ["SVR", "TSVR", "TSVQR", "RKM", "TRKM-R"], [3.2, 4.0, 4.8, 1.7, 1.3]
    ))
    for name, avg in zip(models, table.average_ranks):
        show(f"avg rank {name}", avg, published_ranks[name], 0.05)
    fr = friedman_test(table, critical_value=2.6335)
    show("friedman chi2", fr.chi2, 35.44, 0.03 * 35.44)
    show("friedman F", fr.ff, 69.947, 0.03 * 69.947)
    print(f"  null hypothesis rejected at F(4,36)=2.6335: {fr.reject_null}")


if __name__ == "__main__":
    main()
