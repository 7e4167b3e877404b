"""Random forest classifier built on the CART trees in :mod:`tree`.

All of a forest's bootstrap trees grow as one batch of
:meth:`EnsembleBuilder.grow`, as many at a time as ``_BATCH_ROWS`` admits;
each tree draws its bootstrap from its own generator as it joins.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tree import EnsembleBuilder, Gini, TreeEnsemble
from .weights import checked_class_weight


def tree_rng(seed: int, *index: int) -> np.random.Generator:
    """Per-tree generator derived deterministically from (seed, index)."""
    return np.random.default_rng([seed, *index])


@dataclass
class ForestModel:
    trees: TreeEnsemble  # leaf values are class distributions

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        n_trees = len(self.trees.roots)
        return self.trees.apply(X, lambda dist: dist.sum(axis=0) / n_trees)


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
    if isinstance(n_estimators, bool) or not isinstance(n_estimators, (int, np.integer)) or n_estimators < 1:
        raise ValueError(f"n_estimators must be an int >= 1, got {n_estimators!r}")
    class_weight = checked_class_weight(class_weight, n_classes)

    n = len(X)

    def bootstraps():
        for i in range(n_estimators):
            rng = tree_rng(seed, i)
            yield rng, rng.integers(0, n, size=n)

    builder = EnsembleBuilder(X, n_classes)
    builder.grow(
        Gini(y, class_weight, builder.codes), bootstraps(), max_depth=max_depth, max_features=max_features
    )
    return ForestModel(trees=builder.build())
