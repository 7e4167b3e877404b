"""CART trees grown from scratch on numpy, kept one flat table per ensemble.

Every tree grows by the same loop: at every node a seeded sample of
ceil(sqrt(d)) candidate features is scanned, thresholds sit at midpoints
of consecutive distinct sorted values, rows go left when ``x <= threshold``,
and a node becomes a leaf when it is pure, the depth cap is hit, or no
candidate split has positive gain.  Classification trees (:class:`Gini`)
maximize weighted Gini impurity decrease; regression trees (:class:`Sse`)
maximize weighted variance (sum-of-squares) decrease.  Every accepted split
adds its weighted impurity decrease to its tree's per-feature ledger, which
feeds MDI importances.

A fitted ensemble is one :class:`TreeEnsemble`: node arrays holding every
tree, where node i sends a row to ``left[i]`` when ``x[feature[i]] <=
threshold[i]`` and to ``right[i]`` otherwise.  A leaf has feature -1 and
both children equal to itself, so ``depth`` steps from ``roots`` bring a
row to its leaf in every tree at once.  ``values`` has one row per node:
the class distribution for a forest, a single column for boosting, zeros
at internal nodes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

_GAIN_EPS = 1e-12
# (trees x rows) cells descended together: a chunk's gathers stay a few MB
_CHUNK_CELLS = 1 << 14


def sample_features(rng: np.random.Generator, n_features: int, max_features) -> np.ndarray:
    """Candidate feature indices for one node, sampled without replacement."""
    if max_features is None:
        return np.arange(n_features)
    if max_features == "sqrt":
        m = math.isqrt(n_features)
        if m * m < n_features:
            m += 1
    else:
        m = min(int(max_features), n_features)
    return rng.choice(n_features, size=m, replace=False)


def gini_impurity(class_weights: np.ndarray) -> float:
    total = class_weights.sum()
    if total <= 0:
        return 0.0
    p = class_weights / total
    return float(1.0 - (p * p).sum())


def _best_threshold_gini(x: np.ndarray, cw: np.ndarray):
    """Best (score, threshold) for one feature of a classification node.

    ``cw`` holds per-row one-hot class weights aligned with ``x``.  The
    maximized score is sum_c(L_c^2)/W_L + sum_c(R_c^2)/W_R, which orders
    splits identically to weighted Gini decrease.
    """
    order = np.argsort(x, kind="stable")
    xs = x[order]
    pre = np.cumsum(cw[order], axis=0)
    total = pre[-1]
    cut = np.nonzero(xs[:-1] < xs[1:])[0]
    if cut.size == 0:
        return None
    left = pre[cut]
    right = total - left
    wl = left.sum(axis=1)
    wr = right.sum(axis=1)
    score = (left * left).sum(axis=1) / wl + (right * right).sum(axis=1) / wr
    k = int(np.argmax(score))
    threshold = (xs[cut[k]] + xs[cut[k] + 1]) / 2.0
    return float(score[k]), threshold


def _best_threshold_sse(x: np.ndarray, w: np.ndarray, t: np.ndarray):
    """Best (SSE_left + SSE_right, threshold) for one regression feature."""
    order = np.argsort(x, kind="stable")
    xs = x[order]
    ws = w[order]
    ts = t[order]
    cw = np.cumsum(ws)
    cwt = np.cumsum(ws * ts)
    cwt2 = np.cumsum(ws * ts * ts)
    cut = np.nonzero(xs[:-1] < xs[1:])[0]
    if cut.size == 0:
        return None
    wl, wr = cw[cut], cw[-1] - cw[cut]
    sl, sr = cwt[cut], cwt[-1] - cwt[cut]
    ql, qr = cwt2[cut], cwt2[-1] - cwt2[cut]
    sse = (ql - sl * sl / wl) + (qr - sr * sr / wr)
    k = int(np.argmin(sse))
    threshold = (xs[cut[k]] + xs[cut[k] + 1]) / 2.0
    return float(sse[k]), threshold


class Gini:
    """Classification criterion: the key of a split is its Gini score."""

    def __init__(self, y: np.ndarray, w: np.ndarray, n_classes: int):
        self.onehot = np.zeros((len(y), n_classes))
        self.onehot[np.arange(len(y)), y] = w

    def node(self, idx: np.ndarray):
        """(key unsplit, whether to try splits, leaf value, per-feature scan)."""
        rows = self.onehot[idx]
        cw = rows.sum(axis=0)
        total = cw.sum()
        return (
            float((cw * cw).sum()) / total,
            int((cw > 0).sum()) > 1,
            (cw / total).tolist(),
            lambda col: _best_threshold_gini(col, rows),
        )


class Sse:
    """Regression criterion: the key of a split is minus its weighted SSE.

    Leaf values stay zero; the caller sets them from the returned leaf of
    each row.
    """

    def __init__(self, targets: np.ndarray, w: np.ndarray):
        self.targets = targets
        self.w = w

    def node(self, idx: np.ndarray):
        wi = self.w[idx]
        ti = self.targets[idx]
        wt = float(wi.sum())
        mean = float((wi * ti).sum()) / wt
        parent_sse = float((wi * (ti - mean) ** 2).sum())

        def scan(col):
            found = _best_threshold_sse(col, wi, ti)
            return None if found is None else (-found[0], found[1])

        return -parent_sse, parent_sse > _GAIN_EPS, None, scan


@dataclass
class TreeEnsemble:
    """Every tree of a fitted ensemble in one flat node table."""

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    roots: np.ndarray
    values: np.ndarray  # (nodes, width)
    raw_importances: np.ndarray  # (trees, features)
    depth: int = field(init=False)

    def __post_init__(self):
        self.depth = 0
        level = self.roots[self.feature[self.roots] >= 0]
        while level.size:
            self.depth += 1
            level = np.concatenate([self.left[level], self.right[level]])
            level = level[self.feature[level] >= 0]

    def apply(self, X: np.ndarray, combine) -> np.ndarray:
        """Descend every tree for every row of ``X``, a chunk of rows at a time.

        ``combine`` maps a chunk's (trees, rows, width) leaf values to its
        (rows, k) outputs, which are stacked in row order.
        """
        X = np.ascontiguousarray(X, dtype=np.float64)
        n, d = X.shape
        flat = X.ravel()
        chunk = max(1, _CHUNK_CELLS // max(1, len(self.roots)))
        parts = []
        for start in range(0, max(n, 1), chunk):
            offset = np.arange(start, min(start + chunk, n)) * d
            node = np.repeat(self.roots[:, None], offset.size, axis=1)
            for _ in range(self.depth):
                go_left = flat.take(offset + self.feature.take(node)) <= self.threshold.take(node)
                node = np.where(go_left, self.left.take(node), self.right.take(node))
            parts.append(combine(self.values[node]))
        return np.concatenate(parts)

    def to_dict(self) -> dict:
        leaf = self.feature < 0
        return {
            "feature": self.feature.tolist(),
            "threshold": self.threshold.tolist(),
            "left": self.left.tolist(),
            "right": self.right.tolist(),
            "roots": self.roots.tolist(),
            "leaf_values": self.values[leaf].tolist(),
            "raw_importances": self.raw_importances.tolist(),
        }

    @classmethod
    def from_dict(cls, data: dict, width: int, n_features: int) -> "TreeEnsemble":
        feature = np.array(data["feature"], dtype=np.intp)
        values = np.zeros((len(feature), width))
        values[feature < 0] = np.array(data["leaf_values"], dtype=np.float64).reshape(-1, width)
        return cls(
            feature=feature,
            threshold=np.array(data["threshold"], dtype=np.float64),
            left=np.array(data["left"], dtype=np.intp),
            right=np.array(data["right"], dtype=np.intp),
            roots=np.array(data["roots"], dtype=np.intp),
            values=values,
            raw_importances=np.array(data["raw_importances"], dtype=np.float64).reshape(-1, n_features),
        )


class EnsembleBuilder:
    """Node lists that the trees of one ensemble grow into, one after another."""

    def __init__(self, n_features: int, width: int):
        self.n_features = n_features
        self.feature: list[int] = []
        self.threshold: list[float] = []
        self.left: list[int] = []
        self.right: list[int] = []
        self.values: list = []
        self.roots: list[int] = []
        self.importances: list[np.ndarray] = []
        self._zeros = [0.0] * width

    def _new_node(self) -> int:
        node = len(self.feature)
        self.feature.append(-1)
        self.threshold.append(0.0)
        self.left.append(node)
        self.right.append(node)
        self.values.append(self._zeros)
        return node

    def grow(
        self,
        X: np.ndarray,
        criterion: Gini | Sse,
        rng: np.random.Generator,
        max_depth: int | None = None,
        max_features="sqrt",
    ) -> np.ndarray:
        """Grow one tree on ``X``; returns the leaf node of each row."""
        if len(X) == 0:
            raise ValueError("cannot fit a tree on an empty sample")
        n, d = X.shape
        importances = np.zeros(d)
        leaf_of = np.zeros(n, dtype=np.intp)
        root = self._new_node()
        self.roots.append(root)
        stack = [(np.arange(n), 0, root)]
        while stack:
            idx, depth, node = stack.pop()
            parent_key, splittable, leaf_value, scan = criterion.node(idx)
            depth_ok = max_depth is None or depth < max_depth
            best = None
            if splittable and depth_ok and idx.size >= 2:
                for f in sample_features(rng, d, max_features):
                    col = X[idx, f]
                    if col.min() == col.max():
                        continue
                    found = scan(col)
                    if found is not None and (best is None or found[0] > best[0]):
                        best = (found[0], int(f), found[1])
                if best is not None and best[0] - parent_key <= _GAIN_EPS:
                    best = None
            if best is None:
                leaf_of[idx] = node
                if leaf_value is not None:
                    self.values[node] = leaf_value
                continue
            key, f, threshold = best
            # weighted impurity decrease: W*i_parent - (W_L*i_L + W_R*i_R)
            importances[f] += key - parent_key
            go_left = X[idx, f] <= threshold
            self.feature[node] = f
            self.threshold[node] = threshold
            self.left[node] = left = self._new_node()
            self.right[node] = right = self._new_node()
            stack.append((idx[~go_left], depth + 1, right))
            stack.append((idx[go_left], depth + 1, left))
        self.importances.append(importances)
        return leaf_of

    def build(self) -> TreeEnsemble:
        return TreeEnsemble(
            feature=np.array(self.feature, dtype=np.intp),
            threshold=np.array(self.threshold, dtype=np.float64),
            left=np.array(self.left, dtype=np.intp),
            right=np.array(self.right, dtype=np.intp),
            roots=np.array(self.roots, dtype=np.intp),
            values=np.array(self.values, dtype=np.float64).reshape(len(self.feature), len(self._zeros)),
            raw_importances=np.array(self.importances, dtype=np.float64).reshape(-1, self.n_features),
        )
