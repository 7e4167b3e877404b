"""k-nearest-neighbors classifier with per-feature standardization."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# (queries x training rows x features) cells of one chunk's differences
_CHUNK_CELLS = 1 << 16


@dataclass
class KnnModel:
    X: np.ndarray  # stored as (X - mean) / std
    y: np.ndarray
    k: int
    n_classes: int
    mean: np.ndarray  # zeros and ones when fitted without standardization,
    std: np.ndarray  # so that the transform returns the rows exactly

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """Vote shares of the k nearest training rows, a chunk of queries at a time."""
        Q = (np.asarray(X, dtype=np.float64) - self.mean) / self.std
        chunk = max(1, _CHUNK_CELLS // self.X.size)
        one_hot = np.eye(self.n_classes)[self.y]
        parts = []
        for start in range(0, max(len(Q), 1), chunk):
            q = Q[start:start + chunk]
            distances = np.sqrt(((self.X[None, :, :] - q[:, None, :]) ** 2).sum(axis=2))
            kth = np.partition(distances, self.k - 1, axis=1)[:, self.k - 1, None]
            # every row strictly closer than the k-th distance, then the
            # earliest-indexed rows at exactly that distance, as a stable
            # sort of the distances would take them
            closer = distances < kth
            tied = distances == kth
            room = self.k - closer.sum(axis=1, keepdims=True)
            nearest = closer | (tied & (np.cumsum(tied, axis=1) <= room))
            parts.append((nearest @ one_hot) / self.k)
        return np.concatenate(parts)


def fit_knn(
    X: np.ndarray, y: np.ndarray, k: int, n_classes: int, standardize: bool = True
) -> KnnModel:
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.intp)
    if not 1 <= k <= len(X):
        raise ValueError(f"k={k} must be between 1 and the training size {len(X)}")
    mean, std = np.zeros(X.shape[1]), np.ones(X.shape[1])
    if standardize:
        mean, std = X.mean(axis=0), X.std(axis=0)
        std[std == 0.0] = 1.0  # constant features pass through unscaled
    return KnnModel(X=(X - mean) / std, y=y, k=k, n_classes=n_classes, mean=mean, std=std)
