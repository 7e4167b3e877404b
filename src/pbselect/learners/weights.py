"""Class-weighting schemes to counter dominant-class bias."""

from __future__ import annotations

import numpy as np

UNIFORM = "uniform"
INVERSE_FREQUENCY = "inverse-frequency"

MODES = (UNIFORM, INVERSE_FREQUENCY)


def class_weights(y: np.ndarray, mode: str, n_classes: int) -> np.ndarray:
    """Per-class weights: all ones, or N / (K * count(c)) over present classes.

    K counts only the classes that actually occur; classes absent from the
    labels get weight 1.0 (they carry no rows, so the value is inert).
    """
    if mode == UNIFORM:
        return np.ones(n_classes)
    if mode != INVERSE_FREQUENCY:
        raise ValueError(f"unknown class-weight mode {mode!r}")
    y = np.asarray(y, dtype=np.intp)
    counts = np.bincount(y, minlength=n_classes)
    present = counts > 0
    k = int(present.sum())
    out = np.ones(n_classes)
    out[present] = len(y) / (k * counts[present])
    return out


def checked_class_weight(class_weight, n_classes: int) -> np.ndarray:
    """The per-class weights a fit uses: ones when None, else one positive
    finite weight per class."""
    if class_weight is None:
        return np.ones(n_classes)
    class_weight = np.asarray(class_weight, dtype=np.float64)
    if class_weight.shape != (n_classes,):
        raise ValueError("class_weight length must equal the number of classes")
    if not np.all(np.isfinite(class_weight) & (class_weight > 0)):
        raise ValueError("class weights must be positive and finite")
    return class_weight
