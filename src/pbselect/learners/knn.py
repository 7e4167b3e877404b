"""k-nearest-neighbors classifier with per-feature standardization."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# (queries x training rows x features) cells of one chunk's differences
_CHUNK_CELLS = 1 << 16


@dataclass
class KnnModel:
    X: np.ndarray  # stored standardized when standardize is set
    y: np.ndarray
    k: int
    n_classes: int
    mean: np.ndarray
    std: np.ndarray
    standardize: bool = True

    def _transform(self, X: np.ndarray) -> np.ndarray:
        return (X - self.mean) / self.std if self.standardize else X

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """Vote shares of the k nearest training rows, a chunk of queries at a time."""
        Q = self._transform(np.asarray(X, dtype=np.float64))
        chunk = max(1, _CHUNK_CELLS // self.X.size)
        parts = []
        for start in range(0, max(len(Q), 1), chunk):
            q = Q[start:start + chunk]
            distances = np.sqrt(((self.X[None, :, :] - q[:, None, :]) ** 2).sum(axis=2))
            # stable sort keeps the earlier-indexed row on distance ties
            nearest = np.argsort(distances, axis=1, kind="stable")[:, : self.k]
            votes = self.y[nearest][:, :, None] == np.arange(self.n_classes)
            parts.append(votes.sum(axis=1) / self.k)
        return np.concatenate(parts)

    def predict(self, X: np.ndarray) -> np.ndarray:
        # argmax takes the lowest class index on a vote tie
        return np.argmax(self.predict_proba(X), axis=1)

    def to_dict(self) -> dict:
        return {
            "X": self.X.tolist(),
            "y": self.y.tolist(),
            "k": self.k,
            "n_classes": self.n_classes,
            "mean": self.mean.tolist(),
            "std": self.std.tolist(),
            "standardize": self.standardize,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "KnnModel":
        return cls(
            X=np.array(data["X"], dtype=np.float64),
            y=np.array(data["y"], dtype=np.intp),
            k=data["k"],
            n_classes=data["n_classes"],
            mean=np.array(data["mean"]),
            std=np.array(data["std"]),
            standardize=data["standardize"],
        )


def fit_knn(
    X: np.ndarray, y: np.ndarray, k: int, n_classes: int, standardize: bool = True
) -> KnnModel:
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.intp)
    if not 1 <= k <= len(X):
        raise ValueError(f"k={k} must be between 1 and the training size {len(X)}")
    if standardize:
        mean = X.mean(axis=0)
        std = X.std(axis=0)
        std[std == 0.0] = 1.0  # constant features pass through unscaled
    else:
        mean = np.zeros(X.shape[1])
        std = np.ones(X.shape[1])
    stored = (X - mean) / std if standardize else X
    return KnnModel(
        X=stored, y=y, k=k, n_classes=n_classes, mean=mean, std=std, standardize=standardize
    )
