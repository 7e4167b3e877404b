"""Native classifier families: random forest, gradient boosting, KNN."""

from .model_io import FAMILIES, TrainedModel
from .train import train_model
from .weights import INVERSE_FREQUENCY, MODES

__all__ = ["FAMILIES", "INVERSE_FREQUENCY", "MODES", "TrainedModel", "train_model"]
