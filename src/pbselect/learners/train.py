"""Training entry point tying datasets to the three model families.

Default hyperparameters per (family, schema) variant:

    rf   (all schemas)  n_estimators=100, max_features="sqrt"
    gb   basic          n_estimators=100, learning_rate=0.5,  max_depth=3, max_features="sqrt"
    gb   nonlinear      n_estimators=100, learning_rate=0.25, max_depth=3, max_features="sqrt"
    gb   linear         n_estimators=100, learning_rate=0.1,  max_depth=3, max_features="sqrt"
    knn  basic          n_neighbors=13
    knn  nonlinear      n_neighbors=21
    knn  linear         n_neighbors=21
"""

from __future__ import annotations

from ..dataset import NO_SOLUTION, TRAIN, LabeledDataset
from .boosting import fit_gradient_boosting
from .forest import fit_random_forest
from .knn import fit_knn
from .model_io import GB, KNN, RF, TrainedModel, mdi_importance
from .weights import INVERSE_FREQUENCY, class_weights

_RF_DEFAULTS = {"n_estimators": 100, "max_features": "sqrt"}

DEFAULT_HYPERPARAMS: dict[tuple[str, str], dict] = {
    (RF, "basic"): dict(_RF_DEFAULTS),
    (RF, "nonlinear"): dict(_RF_DEFAULTS),
    (RF, "linear"): dict(_RF_DEFAULTS),
    (GB, "basic"): {"n_estimators": 100, "learning_rate": 0.5, "max_depth": 3, "max_features": "sqrt"},
    (GB, "nonlinear"): {"n_estimators": 100, "learning_rate": 0.25, "max_depth": 3, "max_features": "sqrt"},
    (GB, "linear"): {"n_estimators": 100, "learning_rate": 0.1, "max_depth": 3, "max_features": "sqrt"},
    (KNN, "basic"): {"n_neighbors": 13},
    (KNN, "nonlinear"): {"n_neighbors": 21},
    (KNN, "linear"): {"n_neighbors": 21},
}


def hyperparams_for(family: str, schema: str) -> dict:
    try:
        return dict(DEFAULT_HYPERPARAMS[(family, schema)])
    except KeyError:
        raise ValueError(f"no defaults for family {family!r} with schema {schema!r}") from None


def train_model(
    ds: LabeledDataset,
    family: str,
    seed: int = 0,
    class_weight_mode: str = INVERSE_FREQUENCY,
    include_no_solution: bool = True,
) -> TrainedModel:
    """Fit one model family on the dataset's training rows.

    The label vocabulary is the portfolio declaration order with
    NO_SOLUTION last; ``include_no_solution=False`` drops those rows before
    fitting.  Tree families receive inverse-frequency class weights by
    default, KNN ignores weighting (it has no per-row weights).
    """
    X, y = ds.matrix(TRAIN if ds.split else None)
    vocab = ds.vocabulary()
    if not include_no_solution:
        keep = y != vocab.index(NO_SOLUTION)
        X, y = X[keep], y[keep]
    if not len(y):
        raise ValueError("no training rows (is the dataset split and non-empty?)")
    weights = class_weights(y, class_weight_mode, len(vocab))
    params = hyperparams_for(family, ds.schema)

    mdi = None
    if family == RF:
        model = fit_random_forest(
            X, y, len(vocab),
            n_estimators=params["n_estimators"],
            max_features=params["max_features"],
            seed=seed,
            class_weight=weights,
        )
        mdi = mdi_importance(model).tolist()
    elif family == GB:
        model = fit_gradient_boosting(
            X, y, len(vocab),
            n_estimators=params["n_estimators"],
            learning_rate=params["learning_rate"],
            max_depth=params["max_depth"],
            max_features=params["max_features"],
            seed=seed,
            class_weight=weights,
        )
        mdi = mdi_importance(model).tolist()
    elif family == KNN:
        model = fit_knn(X, y, params["n_neighbors"], len(vocab))
    else:
        raise ValueError(f"unknown model family {family!r}")

    return TrainedModel(
        family=family,
        schema=ds.schema,
        encoding=ds.encoding,
        vocabulary=vocab,
        params={
            **params,
            "class_weight_mode": class_weight_mode,
            "include_no_solution": include_no_solution,
            "grid": ds.grid.params(),
        },
        seed=seed,
        model=model,
        mdi=mdi,
    )
