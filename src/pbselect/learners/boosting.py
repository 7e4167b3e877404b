"""Multiclass gradient boosting with the softmax cross-entropy loss.

Scores start at the class log-priors.  Each stage fits one shallow
regression tree per class to that class's negative gradient (one-hot minus
softmax probability, scaled by the row weight); leaf values are a single
Newton step, and the learning rate scales every update.  The weighted
training loss after each stage is kept on the model so the expected
monotone decrease can be checked.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .forest import tree_rng
from .tree import EnsembleBuilder, Sse, TreeEnsemble

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
    n_features: int
    n_classes: int
    n_estimators: int
    learning_rate: float
    max_depth: int = 3
    max_features: str = "sqrt"
    seed: int = 0
    class_weight: list[float] = field(default_factory=list)
    train_losses: list[float] = field(default_factory=list, repr=False)

    def _scores(self, values: np.ndarray) -> np.ndarray:
        # (stage, class, row) terms after the initial scores, summed in stage order
        n_rows = values.shape[1]
        terms = np.empty((self.n_estimators + 1, self.n_classes, n_rows))
        terms[0] = np.asarray(self.init_scores)[:, None]
        terms[1:] = self.learning_rate * values.reshape(self.n_estimators, self.n_classes, n_rows)
        return terms.sum(axis=0).T

    def decision_scores(self, X: np.ndarray) -> np.ndarray:
        return self.trees.apply(X, self._scores)

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        return softmax(self.decision_scores(X))

    def predict(self, X: np.ndarray) -> np.ndarray:
        return np.argmax(self.predict_proba(X), axis=1)

    def to_dict(self) -> dict:
        return {
            "init_scores": self.init_scores,
            "n_features": self.n_features,
            "n_classes": self.n_classes,
            "n_estimators": self.n_estimators,
            "learning_rate": self.learning_rate,
            "max_depth": self.max_depth,
            "max_features": self.max_features,
            "seed": self.seed,
            "class_weight": self.class_weight,
            "trees": self.trees.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "GradientBoostingModel":
        return cls(
            init_scores=list(data["init_scores"]),
            trees=TreeEnsemble.from_dict(data["trees"], 1, data["n_features"]),
            n_features=data["n_features"],
            n_classes=data["n_classes"],
            n_estimators=data["n_estimators"],
            learning_rate=data["learning_rate"],
            max_depth=data["max_depth"],
            max_features=data["max_features"],
            seed=data["seed"],
            class_weight=list(data["class_weight"]),
        )


def _weighted_cross_entropy(probs: np.ndarray, y: np.ndarray, w: np.ndarray) -> float:
    p = np.clip(probs[np.arange(len(y)), y], 1e-15, None)
    return float((w * -np.log(p)).sum() / w.sum())


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
    if class_weight is None:
        class_weight = np.ones(n_classes)
    class_weight = np.asarray(class_weight, dtype=np.float64)
    w = class_weight[y]

    n = len(X)
    counts = np.bincount(y, weights=w, minlength=n_classes)
    priors = counts / counts.sum()
    init_scores = np.log(np.clip(priors, _PRIOR_FLOOR, None))
    onehot = np.zeros((n, n_classes))
    onehot[np.arange(n), y] = 1.0

    scores = np.tile(init_scores, (n, 1))
    losses = [_weighted_cross_entropy(softmax(scores), y, w)]
    builder = EnsembleBuilder(X.shape[1], 1)
    newton_scale = (n_classes - 1) / n_classes
    for m in range(n_estimators):
        probs = softmax(scores)
        for c in range(n_classes):
            residual = onehot[:, c] - probs[:, c]
            rng = tree_rng(seed, m, c)
            leaf_of = builder.grow(
                X, Sse(residual, w), rng, max_depth=max_depth, max_features=max_features
            )
            root = builder.roots[-1]
            leaf_of -= root
            # one Newton step per leaf
            values = np.zeros(len(builder.feature) - root)
            num = np.bincount(leaf_of, weights=w * residual, minlength=len(values))
            hess = np.abs(residual) * (1.0 - np.abs(residual))
            den = np.bincount(leaf_of, weights=w * hess, minlength=len(values))
            nz = den > 1e-150
            values[nz] = newton_scale * num[nz] / den[nz]
            builder.values[root:] = values[:, None].tolist()
            scores[:, c] += learning_rate * values[leaf_of]
        losses.append(_weighted_cross_entropy(softmax(scores), y, w))

    return GradientBoostingModel(
        init_scores=init_scores.tolist(),
        trees=builder.build(),
        n_features=X.shape[1],
        n_classes=n_classes,
        n_estimators=n_estimators,
        learning_rate=learning_rate,
        max_depth=max_depth,
        max_features=max_features,
        seed=seed,
        class_weight=class_weight.tolist(),
        train_losses=losses,
    )
