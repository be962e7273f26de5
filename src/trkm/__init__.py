"""Twin restricted kernel machines (TRKM) for classification and regression.

Both tasks reduce to a pair of bordered linear systems over a regularized
kernel block; the package also carries the single-machine RKM baseline,
the 70:30 split / five-fold grid-search protocol, and the rank-based
comparison statistics used to benchmark the models.
"""

from .classifier import (
    TrkmClassifierHyperparams,
    TrkmClassifierModel,
    decision_values,
    fit_classifier,
    predict_labels,
)
from .data import (
    Dataset,
    apply_normalization,
    load_csv,
    load_feature_matrix,
    map_labels,
    normalize_minmax,
)
from .kernels import KernelSpec, gaussian, gram, linear
from .metrics import RegressionErrors, classification_accuracy, regression_errors
from .model_io import SavedModel, load_model, save_model
from .regressor import (
    TrkmRegressorHyperparams,
    TrkmRegressorModel,
    fit_regressor,
    predict_regression,
    regression_components,
)
from .rkm import RkmModel, fit_rkm, predict_rkm, rkm_scores
from .selection import (
    PENALTY_GRID,
    SIGMA_GRID,
    GridCell,
    GridResult,
    GridSpec,
    SplitSpec,
    grid_search,
    kfold_indices,
    split,
)
from .solver import BorderedSystem, SolveReport, solve_bordered
from .stats import (
    NEMENYI_Q_05,
    FriedmanReport,
    RankTable,
    WinTieLoss,
    friedman_test,
    nemenyi_cd,
    rank_models,
    win_tie_loss,
)

__all__ = [
    "BorderedSystem",
    "Dataset",
    "FriedmanReport",
    "GridCell",
    "GridResult",
    "GridSpec",
    "KernelSpec",
    "NEMENYI_Q_05",
    "PENALTY_GRID",
    "RankTable",
    "RegressionErrors",
    "RkmModel",
    "SavedModel",
    "SIGMA_GRID",
    "SolveReport",
    "SplitSpec",
    "TrkmClassifierHyperparams",
    "TrkmClassifierModel",
    "TrkmRegressorHyperparams",
    "TrkmRegressorModel",
    "WinTieLoss",
    "apply_normalization",
    "classification_accuracy",
    "decision_values",
    "fit_classifier",
    "fit_regressor",
    "fit_rkm",
    "friedman_test",
    "gaussian",
    "gram",
    "grid_search",
    "kfold_indices",
    "linear",
    "load_csv",
    "load_feature_matrix",
    "load_model",
    "map_labels",
    "nemenyi_cd",
    "normalize_minmax",
    "predict_labels",
    "predict_regression",
    "predict_rkm",
    "rank_models",
    "regression_components",
    "regression_errors",
    "rkm_scores",
    "save_model",
    "solve_bordered",
    "split",
    "win_tie_loss",
]

__version__ = "0.1.0"
