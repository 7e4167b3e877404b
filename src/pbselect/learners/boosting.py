"""Multiclass gradient boosting with the softmax cross-entropy loss.

Scores start at the class log-priors.  Each stage fits one shallow
regression tree per class to that class's negative gradient (one-hot minus
softmax probability, scaled by the row weight); leaf values are a single
Newton step, and the learning rate scales every update.  The class trees
of a stage depend only on the stage's probabilities, so they grow as one
batch of :meth:`EnsembleBuilder.grow`; stages grow one after another.  The
fit keeps only the initial scores, the learning rate and the trees; the
model cut after any stage's trees scores as the fit did after that stage.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .forest import tree_rng
from .tree import EnsembleBuilder, Sse, TreeEnsemble
from .weights import checked_class_weight

_PRIOR_FLOOR = 1e-12


class SingleClassError(ValueError):
    """Boosting needs at least two classes present in the training labels."""


def softmax(scores: np.ndarray) -> np.ndarray:
    z = scores - scores.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


@dataclass
class GradientBoostingModel:
    init_scores: list[float]
    trees: TreeEnsemble  # stage-major, one regression tree per class per stage
    learning_rate: float

    def _scores(self, values: np.ndarray) -> np.ndarray:
        # (stage, class, row) terms after the initial scores, summed in stage order
        n_rows = values.shape[1]
        classes = len(self.init_scores)
        stages = len(self.trees.roots) // classes
        terms = np.empty((stages + 1, classes, n_rows))
        terms[0] = np.asarray(self.init_scores)[:, None]
        terms[1:] = self.learning_rate * values.reshape(stages, classes, n_rows)
        return terms.sum(axis=0).T

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        return softmax(self.trees.apply(X, self._scores))


def fit_gradient_boosting(
    X: np.ndarray,
    y: np.ndarray,
    n_classes: int,
    n_estimators: int = 100,
    learning_rate: float = 0.1,
    max_depth: int = 3,
    max_features: str = "sqrt",
    seed: int = 0,
    class_weight: np.ndarray | None = None,
) -> GradientBoostingModel:
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.intp)
    if len(np.unique(y)) < 2:
        raise SingleClassError("gradient boosting needs at least two classes")
    w = checked_class_weight(class_weight, n_classes)[y]

    n = len(X)
    counts = np.bincount(y, weights=w, minlength=n_classes)
    priors = counts / counts.sum()
    init_scores = np.log(np.clip(priors, _PRIOR_FLOOR, None))
    onehot = np.zeros((n, n_classes))
    onehot[np.arange(n), y] = 1.0

    scores = np.tile(init_scores, (n, 1))
    probs = softmax(scores)
    builder = EnsembleBuilder(X, 1)
    rows = np.arange(n)
    newton_scale = (n_classes - 1) / n_classes
    for m in range(n_estimators):
        residuals = np.subtract(onehot.T, probs.T, out=np.empty((n_classes, n)))
        stage = Sse(residuals, w)
        first = len(builder.trees)
        builder.grow(
            stage, [(tree_rng(seed, m, c), rows) for c in range(n_classes)],
            max_depth=max_depth, max_features=max_features,
        )
        for c in range(n_classes):
            residual, leaf_of = residuals[c], stage.leaf_of[c]
            # one Newton step per leaf, written into the tree's zero values
            values = builder.trees[first + c].values[:, 0]
            num = np.bincount(leaf_of, weights=w * residual, minlength=len(values))
            hess = np.abs(residual) * (1.0 - np.abs(residual))
            den = np.bincount(leaf_of, weights=w * hess, minlength=len(values))
            nz = den > 1e-150
            values[nz] = newton_scale * num[nz] / den[nz]
            scores[:, c] += learning_rate * values[leaf_of]
        probs = softmax(scores)

    return GradientBoostingModel(init_scores=init_scores.tolist(), trees=builder.build(), learning_rate=learning_rate)
