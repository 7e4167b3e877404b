"""Random forest classifier built on the CART trees in :mod:`tree`."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .tree import EnsembleBuilder, Gini, TreeEnsemble


def tree_rng(seed: int, *index: int) -> np.random.Generator:
    """Per-tree generator derived deterministically from (seed, index)."""
    return np.random.default_rng([seed, *index])


@dataclass
class ForestModel:
    trees: TreeEnsemble  # leaf values are class distributions
    n_features: int
    n_classes: int
    n_estimators: int
    max_features: str = "sqrt"
    seed: int = 0
    class_weight: list[float] = field(default_factory=list)

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        n_trees = len(self.trees.roots)
        return self.trees.apply(X, lambda dist: dist.sum(axis=0) / n_trees)

    def predict(self, X: np.ndarray) -> np.ndarray:
        return np.argmax(self.predict_proba(X), axis=1)


def fit_random_forest(
    X: np.ndarray,
    y: np.ndarray,
    n_classes: int,
    n_estimators: int = 100,
    max_features: str = "sqrt",
    max_depth: int | None = None,
    seed: int = 0,
    class_weight: np.ndarray | None = None,
) -> ForestModel:
    """Bag of trees on seeded bootstraps, grown to purity by default.

    Class weights multiply row weights, so misclassifying rare classes
    costs more during split selection.  The per-tree bootstrap and feature
    sampling streams depend only on (seed, tree index), which makes the fit
    reproducible regardless of scheduling.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.intp)
    if len(X) == 0:
        raise ValueError("training set is empty")
    if class_weight is None:
        class_weight = np.ones(n_classes)
    class_weight = np.asarray(class_weight, dtype=np.float64)
    if len(class_weight) != n_classes:
        raise ValueError("class_weight length must equal the number of classes")

    n = len(X)
    builder = EnsembleBuilder(X.shape[1], n_classes)
    for i in range(n_estimators):
        rng = tree_rng(seed, i)
        idx = rng.integers(0, n, size=n)
        Xb, yb = X[idx], y[idx]
        builder.grow(
            Xb, Gini(yb, class_weight[yb], n_classes), rng,
            max_depth=max_depth, max_features=max_features,
        )
    return ForestModel(
        trees=builder.build(),
        n_features=X.shape[1],
        n_classes=n_classes,
        n_estimators=n_estimators,
        max_features=max_features,
        seed=seed,
        class_weight=class_weight.tolist(),
    )
