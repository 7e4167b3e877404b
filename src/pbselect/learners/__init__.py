"""Native classifier families: random forest, gradient boosting, KNN."""

from .boosting import GradientBoostingModel, SingleClassError, fit_gradient_boosting, softmax
from .forest import ForestModel, fit_random_forest, tree_rng
from .knn import KnnModel, fit_knn
from .model_io import (
    FAMILIES,
    GB,
    KNN,
    RF,
    SchemaMismatchError,
    TrainedModel,
    mdi_importance,
)
from .train import DEFAULT_HYPERPARAMS, hyperparams_for, train_model
from .tree import TreeEnsemble, gini_impurity
from .weights import INVERSE_FREQUENCY, MODES, UNIFORM, class_weights

__all__ = [
    "DEFAULT_HYPERPARAMS",
    "FAMILIES",
    "ForestModel",
    "GB",
    "GradientBoostingModel",
    "INVERSE_FREQUENCY",
    "KNN",
    "KnnModel",
    "MODES",
    "RF",
    "SchemaMismatchError",
    "SingleClassError",
    "TrainedModel",
    "TreeEnsemble",
    "UNIFORM",
    "class_weights",
    "fit_gradient_boosting",
    "fit_knn",
    "fit_random_forest",
    "gini_impurity",
    "hyperparams_for",
    "mdi_importance",
    "softmax",
    "train_model",
    "tree_rng",
]
