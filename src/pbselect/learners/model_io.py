"""Trained-model container with schema checks and versioned persistence.

The saved file is a JSON document holding the feature schema, the label
vocabulary, the hyperparameters (including the timestep grid the model was
trained against) and the full model structure.  In format 2 a tree model
stores its whole ensemble as one flat node table under ``model.trees``
(``feature``, ``threshold``, ``left``, ``right`` and ``roots`` per node or
tree, ``leaf_values`` for the leaves only, in node order, and one row of
``raw_importances`` per tree); KNN stores its standardized training rows.
Loading a file with a different format name or version is an error:
format 1, which stored one node list per tree, is no longer read, so its
models must be trained again.  Wall-clock timings gathered during training
stay in memory only, so two fits with the same seed write byte-identical
files.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..features import SCHEMAS, FeatureVector
from .boosting import GradientBoostingModel
from .forest import ForestModel
from .knn import KnnModel

FORMAT_NAME = "pbselect-model"
FORMAT_VERSION = 2

RF = "rf"
GB = "gb"
KNN = "knn"

FAMILIES = (RF, GB, KNN)


class SchemaMismatchError(ValueError):
    """Feature vector does not match the schema the model was trained on."""


@dataclass
class TrainedModel:
    family: str
    schema: str
    encoding: str
    vocabulary: list[str]
    params: dict
    seed: int
    model: ForestModel | GradientBoostingModel | KnnModel
    mdi: list[float] | None = None
    timings: dict = field(default_factory=dict, compare=False)

    @property
    def n_features(self) -> int:
        return len(SCHEMAS[self.schema]) + 1  # plus the timestep feature

    def _check_width(self, width: int) -> None:
        if width != self.n_features:
            raise SchemaMismatchError(
                f"model expects {self.n_features} features "
                f"(schema {self.schema!r} plus timestep), got {width}"
            )

    def predict_vector(self, fv: FeatureVector) -> tuple[str, dict[str, float]]:
        """Predict from a FeatureVector; its schema must match and carry a timestep."""
        if fv.schema != self.schema:
            raise SchemaMismatchError(
                f"model was trained on schema {self.schema!r}, vector has {fv.schema!r}"
            )
        if fv.timestep is None:
            raise SchemaMismatchError("feature vector is missing the timestep feature")
        return self.predict_values(fv.full())

    def predict_values(self, values) -> tuple[str, dict[str, float]]:
        """Predict one row through the batch path: a one-row matrix."""
        X = np.asarray(values, dtype=np.float64).reshape(1, -1)
        self._check_width(X.shape[1])
        probs = self.model.predict_proba(X)[0]
        return self.vocabulary[int(np.argmax(probs))], dict(zip(self.vocabulary, probs.tolist()))

    def predict_batch(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        self._check_width(X.shape[1])
        return self.model.predict(X)

    def save(self, path: str | Path) -> None:
        payload = {
            "format": FORMAT_NAME,
            "version": FORMAT_VERSION,
            "family": self.family,
            "schema": self.schema,
            "encoding": self.encoding,
            "vocabulary": self.vocabulary,
            "params": self.params,
            "seed": self.seed,
            "mdi": self.mdi,
            "model": self.model.to_dict(),
        }
        Path(path).write_text(json.dumps(payload) + "\n")

    @classmethod
    def load(cls, path: str | Path) -> "TrainedModel":
        data = json.loads(Path(path).read_text())
        if data.get("format") != FORMAT_NAME:
            raise ValueError(f"{path} is not a {FORMAT_NAME} file")
        if data.get("version") != FORMAT_VERSION:
            raise ValueError(
                f"unsupported model file version {data.get('version')} "
                f"(expected {FORMAT_VERSION})"
            )
        family = data["family"]
        if family == RF:
            model = ForestModel.from_dict(data["model"])
        elif family == GB:
            model = GradientBoostingModel.from_dict(data["model"])
        elif family == KNN:
            model = KnnModel.from_dict(data["model"])
        else:
            raise ValueError(f"unknown model family {family!r}")
        return cls(
            family=family,
            schema=data["schema"],
            encoding=data["encoding"],
            vocabulary=list(data["vocabulary"]),
            params=dict(data["params"]),
            seed=data["seed"],
            model=model,
            mdi=data["mdi"],
        )


def mdi_importance(model: ForestModel | GradientBoostingModel) -> np.ndarray:
    """Mean decrease in impurity: per-tree weighted impurity decreases summed
    per split feature, averaged across trees, normalized to sum to one."""
    per_tree = model.trees.raw_importances
    avg = per_tree.mean(axis=0)
    total = avg.sum()
    return avg / total if total > 0 else avg
