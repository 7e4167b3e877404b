"""Trained-model container with schema checks and versioned persistence.

A model file (format 4) is a header line of JSON, then the raw C-order
bytes of each numpy array of the model, each 8-byte aligned.  The header
holds the format name and version, family, feature schema, timestep
encoding, label vocabulary, hyperparameters (with the timestep grid),
seed, the model's other fields under ``model``, and under ``arrays`` the
``[dtype, shape, offset]`` of each array by dataclass field (``trees.``
prefixes the :class:`TreeEnsemble` fields), offsets counted from the end
of the header line.  A loaded model's arrays are read-only views of the
file's bytes.  Fields computed from others (``init=False``) and the MDI
importances, which come from the trees, are not stored; the loader reads
only the keys it knows.  Another format name or version is rejected;
formats 1 and 2 (one JSON document) and 3 (a zip archive) are read only to
name their version, so their models must be trained again.  Two fits with
the same seed write byte-identical files.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import re
import typing
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..features import SCHEMAS
from ..grid import make_grid
from .boosting import GradientBoostingModel
from .forest import ForestModel
from .knn import KnnModel

FORMAT_NAME = "pbselect-model"
FORMAT_VERSION = 4
_HEADER_FIELDS = ("family", "schema", "encoding", "vocabulary", "params", "seed")
_ALIGN = 8
# format 3 was a zip archive whose first member, stored as is, held its JSON header
_ZIP_HEADER_RE = re.compile(rb'PK\x03\x04.{26}header\.json\{"format": "pbselect-model", "version": (\d+)', re.S)

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


def _read_header(line: bytes, data: bytes, path) -> dict:
    """The header on ``line``, the first line of ``data``, if of this format and version."""
    try:
        header = json.loads(line)
    except ValueError:  # not UTF-8 text, or not JSON: perhaps a format-3 zip archive
        old = _ZIP_HEADER_RE.match(data)
        header = old and {"format": FORMAT_NAME, "version": int(old[1])}
    if not isinstance(header, dict) or header.get("format") != FORMAT_NAME:
        raise ValueError(f"{path} is not a {FORMAT_NAME} file")
    if (version := header.get("version")) != FORMAT_VERSION:
        raise ValueError(f"unsupported model file version {version} (expected {FORMAT_VERSION})")
    return header


def _views(data: bytes, start: int, arrays: dict, path) -> dict:
    """Read-only views of the arrays that ``arrays`` lays out from ``start`` on."""
    views, end = {}, start
    for name, (dtype, shape, offset) in arrays.items():
        try:
            dtype = np.dtype(dtype)
        except TypeError:
            raise ValueError(f"{path}: array {name} has no dtype {dtype!r}") from None
        if dtype.kind not in "biuf" or not all(type(n) is int and n >= 0 for n in [*shape, offset]):
            raise ValueError(f"{path}: array {name} has dtype {dtype.str}, shape {shape} and offset {offset}")
        count = math.prod(shape)
        if (stop := start + offset + count * dtype.itemsize) > len(data):
            raise ValueError(f"{path}: array {name} runs past the end of the file")
        views[name] = np.frombuffer(data, dtype, count, start + offset).reshape(shape)
        end = max(end, stop)
    if end != len(data):
        raise ValueError(f"{path}: {len(data) - end} bytes follow the last array")
    return views


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
        arrays, rest, chunks, size = {}, {}, [], 0
        for name, value in _flatten(self.model):
            if isinstance(value, np.ndarray):
                pad = -size % _ALIGN
                arrays[name] = [value.dtype.str, list(value.shape), size + pad]
                chunks += [bytes(pad), np.ascontiguousarray(value)]
                size += pad + value.nbytes
            else:
                rest[name] = value
        header = json.dumps({"format": FORMAT_NAME, "version": FORMAT_VERSION,
                             **{key: getattr(self, key) for key in _HEADER_FIELDS},
                             "model": rest, "arrays": arrays}).encode()
        with open(path, "wb") as fh:  # the arrays' own buffers, not copies
            fh.writelines([header, b" " * (-(len(header) + 1) % _ALIGN) + b"\n", *chunks])

    @classmethod
    def load(cls, path: str | Path) -> "TrainedModel":
        data = Path(path).read_bytes()
        line = data.partition(b"\n")[0]
        header = _read_header(line, data, path)
        stored = {**header["model"], **_views(data, len(line) + 1, header["arrays"], path)}
        if header["family"] not in _MODEL_TYPES:
            raise ValueError(f"unknown model family {header['family']!r}")
        try:
            make_grid(**header["params"]["grid"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"{path}: params hold no valid timestep grid ({type(exc).__name__}: {exc})") from None
        model = _unflatten(_MODEL_TYPES[header["family"]], stored)
        return cls(model=model, **{key: header[key] for key in _HEADER_FIELDS})


def mdi_importance(model: ForestModel | GradientBoostingModel) -> np.ndarray:
    """Mean decrease in impurity: per-tree weighted impurity decreases summed
    per split feature, averaged across trees, normalized to sum to one."""
    per_tree = model.trees.raw_importances
    avg = per_tree.mean(axis=0)
    total = avg.sum()
    return avg / total if total > 0 else avg
