"""Trained-model container with schema checks and versioned persistence.

A model file (format 3) is a zip archive: one ``.npy`` member per numpy
array of the model, named after its dataclass field (``trees.`` prefixes
the :class:`TreeEnsemble` fields) and read with ``allow_pickle=False``,
and ``header.json`` with the rest: format name and version, family,
feature schema, timestep encoding, label vocabulary, hyperparameters (with
the timestep grid), seed and the model's other fields.  Fields computed
from others (``init=False``) and the MDI importances, which come from the
trees, are not stored; the loader reads only the keys it knows.  Another
format name or version is rejected; formats 1 and 2 were one JSON
document, read only to name its version, so their models must be trained
again.  Members carry a fixed timestamp, so two fits with the same seed
write byte-identical files.
"""

from __future__ import annotations

import dataclasses
import functools
import io
import json
import typing
import zipfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..features import SCHEMAS
from .boosting import GradientBoostingModel
from .forest import ForestModel
from .knn import KnnModel

FORMAT_NAME = "pbselect-model"
FORMAT_VERSION = 3
HEADER = "header.json"
_HEADER_FIELDS = ("family", "schema", "encoding", "vocabulary", "params", "seed")
_MEMBER_TIME = (1980, 1, 1, 0, 0, 0)  # np.savez would stamp the current time

RF = "rf"
GB = "gb"
KNN = "knn"

FAMILIES = (RF, GB, KNN)
_MODEL_TYPES = {RF: ForestModel, GB: GradientBoostingModel, KNN: KnnModel}
# resolving a class's string annotations takes a quarter of a millisecond
_field_types = functools.cache(typing.get_type_hints)


class SchemaMismatchError(ValueError):
    """Feature vector does not match the schema the model was trained on."""


def _flatten(obj, prefix: str = ""):
    """(name, value) of each stored field of a model dataclass, nested
    dataclasses flattened under their field name."""
    for f in dataclasses.fields(obj):
        if f.init:
            value = getattr(obj, f.name)
            if dataclasses.is_dataclass(value):
                yield from _flatten(value, f"{prefix}{f.name}.")
            else:
                yield prefix + f.name, value


def _unflatten(cls, stored: dict, prefix: str = ""):
    """The ``cls`` instance whose fields ``_flatten`` gave as ``stored``."""
    types = _field_types(cls)
    kwargs = {}
    for f in dataclasses.fields(cls):
        if f.init:
            name = prefix + f.name
            if dataclasses.is_dataclass(types[f.name]):
                kwargs[f.name] = _unflatten(types[f.name], stored, name + ".")
            else:
                kwargs[f.name] = stored[name]
    return cls(**kwargs)


def _check_header(header: dict, path) -> None:
    if header.get("format") != FORMAT_NAME:
        raise ValueError(f"{path} is not a {FORMAT_NAME} file")
    if (version := header.get("version")) != FORMAT_VERSION:
        raise ValueError(f"unsupported model file version {version} (expected {FORMAT_VERSION})")


@dataclass
class TrainedModel:
    family: str
    schema: str
    encoding: str
    vocabulary: list[str]
    params: dict
    seed: int
    model: ForestModel | GradientBoostingModel | KnnModel

    @property
    def mdi(self) -> list[float] | None:
        """MDI importance of each feature, None for a KNN model."""
        return None if self.family == KNN else mdi_importance(self.model).tolist()

    @property
    def n_features(self) -> int:
        return len(SCHEMAS[self.schema]) + 1  # plus the timestep feature

    def _check_width(self, width: int) -> None:
        if width != self.n_features:
            raise SchemaMismatchError(
                f"model expects {self.n_features} features "
                f"(schema {self.schema!r} plus timestep), got {width}"
            )

    def predict_values(self, values) -> tuple[str, dict[str, float]]:
        """Predict one row through the batch path: a one-row matrix."""
        X = np.asarray(values, dtype=np.float64).reshape(1, -1)
        self._check_width(X.shape[1])
        probs = self.model.predict_proba(X)[0]
        return self.vocabulary[int(np.argmax(probs))], dict(zip(self.vocabulary, probs.tolist()))

    def predict_batch(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        self._check_width(X.shape[1])
        # argmax takes the lowest class index on a tie
        return np.argmax(self.model.predict_proba(X), axis=1)

    def save(self, path: str | Path) -> None:
        members, rest = {}, {}
        for name, value in _flatten(self.model):
            if isinstance(value, np.ndarray):
                members[name + ".npy"] = buf = io.BytesIO()
                np.save(buf, value, allow_pickle=False)
            else:
                rest[name] = value
        header = {"format": FORMAT_NAME, "version": FORMAT_VERSION,
                  **{key: getattr(self, key) for key in _HEADER_FIELDS}, "model": rest}
        with zipfile.ZipFile(path, "w") as archive:
            archive.writestr(zipfile.ZipInfo(HEADER, date_time=_MEMBER_TIME), json.dumps(header))
            for name, buf in members.items():
                archive.writestr(zipfile.ZipInfo(name, date_time=_MEMBER_TIME), buf.getvalue())

    @classmethod
    def load(cls, path: str | Path) -> "TrainedModel":
        try:
            archive = zipfile.ZipFile(path)
        except zipfile.BadZipFile:
            # formats 1 and 2 were one JSON document: read it to name its version
            _check_header(json.loads(Path(path).read_bytes()), path)
            raise ValueError(f"{path} is not a zip archive") from None
        with archive:
            names = archive.namelist()
            header = json.loads(archive.read(HEADER)) if HEADER in names else {}
            _check_header(header, path)
            stored = dict(header["model"])
            for name in names:
                if name != HEADER:
                    data = io.BytesIO(archive.read(name))
                    stored[name.removesuffix(".npy")] = np.load(data, allow_pickle=False)
        if header["family"] not in _MODEL_TYPES:
            raise ValueError(f"unknown model family {header['family']!r}")
        model = _unflatten(_MODEL_TYPES[header["family"]], stored)
        return cls(model=model, **{key: header[key] for key in _HEADER_FIELDS})


def mdi_importance(model: ForestModel | GradientBoostingModel) -> np.ndarray:
    """Mean decrease in impurity: per-tree weighted impurity decreases summed
    per split feature, averaged across trees, normalized to sum to one."""
    per_tree = model.trees.raw_importances
    avg = per_tree.mean(axis=0)
    total = avg.sum()
    return avg / total if total > 0 else avg
