"""CART trees grown from scratch on numpy, kept one flat table per ensemble.

At every node a seeded sample of candidate features is scanned; thresholds
sit between consecutive distinct values present in the node; rows go left
when ``x <= threshold``; a node becomes a leaf when it is pure, the depth
cap is hit, or no candidate split has positive gain.  Equal scores go to
the first sampled feature, then the lowest threshold.  Classification
trees (:class:`Gini`) maximize weighted Gini decrease, regression trees
(:class:`Sse`) weighted variance decrease, and every split adds its
weighted impurity decrease to its tree's per-feature (MDI) ledger.

:meth:`EnsembleBuilder.grow` advances a batch of trees in lockstep: each
step pops the next node of every growing tree's own depth-first stack
(left child first) and searches them together.  A tree draws its features
from its own generator, at the nodes and in the preorder that growing it
alone would visit, so its nodes, numbering and random stream do not
depend on the batch.  A batch holds trees while their samples fit in
``_BATCH_ROWS`` rows, taking the next tree as one finishes; a step
searches chunks of about ``_STEP_CELLS`` cells.  The builder keeps one
record per tree, in tree order: a tree joins ``EnsembleBuilder.trees`` as it
joins a batch, keeps node arrays and drops its generator once finished, and
:meth:`EnsembleBuilder.build` concatenates the records into one table.

Both criteria give the scores of a sort-and-cumsum scan of each node bit
for bit, on column codes (each value's rank among its column's distinct
values) computed once per fit:

* Gini: in a node's sorted one-hot rows, class column c holds only 0.0
  and the class weight w_c, and adding 0.0 is exact, so the running sum
  after k rows of class c is ``S[k, c]``, w_c summed k times in sequence,
  tabled once per fit.  One ``bincount`` over (node, feature, code, class)
  and an integer cumsum give every cut's left class counts; ``S`` turns
  them into the exact sums, and a node's class counts ride on its stack.
* Sse: running sums of per-row residuals cannot be rebuilt from bin
  totals, so each (node, feature) sorts the node's rows stably by code and
  takes the sequential cumsums in that order.  Boosting's node rows are
  increasing and distinct, so ties stay in row order.  A node's own sums
  stay per-node pairwise sums.

The threshold is the midpoint of the two values, or the lower value when
the midpoint rounds up to the upper one (adjacent floats, or an overflowing
sum), so ``x <= threshold`` always parts the rows as scored.

A row's *cell code* on feature f is the number of the ensemble's split
thresholds on f that lie below x_f (``searchsorted(T_f, x_f)`` on the
sorted thresholds T_f), so x_f <= T_f[k] exactly when the code is <= k;
NaN, which goes right at every split, sorts past every threshold.  Rows
with equal codes on every feature reach the same leaves, so a batch is
descended one row per distinct cell; a one-row batch is descended as is.

A fitted ensemble is one :class:`TreeEnsemble`: node arrays holding every
tree, where node i sends a row to ``left[i]`` when ``x[feature[i]] <=
threshold[i]`` and to ``right[i]`` otherwise.  A leaf has feature -1 and
both children equal to itself, so ``depth`` steps from ``roots`` bring a
row to its leaf in every tree at once.  ``values`` has one row per node:
the class distribution for a forest, a single column for boosting, zeros
at internal nodes.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

_GAIN_EPS = 1e-12
# (trees x rows) cells descended together: a chunk's gathers stay a few MB
_CHUNK_CELLS = 1 << 14
# Sample rows that the trees growing in one batch hold together
_BATCH_ROWS = 1 << 15
# Cells one chunk of a growth step searches: (row, feature) pairs plus
# count-table entries, so a chunk's arrays stay a few hundred KB
_STEP_CELLS = 1 << 14


def features_per_node(max_features, n_features: int) -> int | None:
    """Candidate features drawn per node; None scans every feature in order."""
    if max_features is None:
        return None
    if isinstance(max_features, str) and max_features == "sqrt":
        m = math.isqrt(n_features)
        return m + 1 if m * m < n_features else m
    if isinstance(max_features, (int, np.integer)) and not isinstance(max_features, bool):
        if 1 <= max_features <= n_features:
            return int(max_features)
    raise ValueError(f"max_features must be None, 'sqrt' or an int in [1, {n_features}], got {max_features!r}")


def _midpoint(lo, hi):
    """Threshold between two adjacent distinct values: their midpoint, or
    ``lo`` where the midpoint rounds up to ``hi`` (adjacent floats, or a sum
    that overflows to inf), so that ``x <= threshold`` parts them."""
    mid = (lo + hi) / 2.0
    return np.where(mid < hi, mid, lo)


class Gini:
    """Classification criterion: the key of a split is its Gini score
    sum_c(L_c^2)/W_L + sum_c(R_c^2)/W_R, which orders splits identically to
    weighted Gini decrease.  Row weights are the weights of their class;
    a node carries its class counts."""

    def __init__(self, y: np.ndarray, class_weight: np.ndarray, codes: np.ndarray):
        self.y = y
        self.n_classes = k = len(class_weight)
        n = codes.shape[1]
        # S: row j holds each class weight summed j times in sequence
        self.sums = np.zeros((n + 1, k))
        np.cumsum(np.broadcast_to(class_weight, (n, k)), axis=0, out=self.sums[1:])
        # a row's count-table cell within its feature's block: code * k + class
        dtype = np.int32 if n * k < 2**31 else np.intp
        self.cells = (codes.astype(dtype) * k + y.astype(dtype)).ravel()

    def root(self, index: int, rows: np.ndarray) -> np.ndarray:
        return np.bincount(self.y[rows], minlength=self.n_classes)

    def _weights(self, counts: np.ndarray) -> np.ndarray:
        return self.sums[counts, np.arange(self.n_classes)]

    def stats(self, nodes: list, searched: list[bool]):
        """(key unsplit, whether to try splits, leaf value) of each node."""
        cw = self._weights(np.array([counts for _, _, counts in nodes]))
        total = cw.sum(axis=1)
        keys = (cw * cw).sum(axis=1) / total
        return keys.tolist(), ((cw > 0).sum(axis=1) > 1).tolist(), (cw / total[:, None]).tolist()

    def leaf(self, index: int, node: int, rows: np.ndarray) -> None:
        pass

    def search(self, builder: EnsembleBuilder, nodes: list) -> list:
        """Best (key, feature, threshold, left counts, right counts) of each
        node, or None when no candidate feature varies in it."""
        # (node, feature) blocks in candidate order; a constant column cannot split
        blocks = np.array(
            [(i, f) for i, (_, _, _, feats) in enumerate(nodes) for f in feats.tolist() if builder.width[f] > 1],
            dtype=np.intp,
        ).reshape(-1, 2)
        sizes = np.array([len(rows) for _, rows, _, _ in nodes])
        # chunks of blocks of about _STEP_CELLS (row, feature) pairs and table cells
        spent = np.cumsum(sizes[blocks[:, 0]] + self.n_classes * builder.width[blocks[:, 1]]) // _STEP_CELLS
        found: list = [None] * len(nodes)
        for chunk in np.split(blocks, np.flatnonzero(np.diff(spent)) + 1):
            if len(chunk):
                self._search(builder, nodes, chunk, found)
        return found

    def _search(self, builder: EnsembleBuilder, nodes: list, blocks: np.ndarray, found: list) -> None:
        k = self.n_classes
        n = builder.codes.shape[1]
        node, f = blocks.T
        sizes = np.array([len(nodes[i][1]) for i in node.tolist()])
        rows = np.concatenate([nodes[i][1] for i in node.tolist()])
        width = builder.width[f]
        start = np.cumsum(width) - width
        # the count table: one block of rows per (node, feature), one row per code
        cells = self.cells.take(np.repeat(f * n, sizes) + rows) + np.repeat(start * k, sizes)
        table = np.bincount(cells, minlength=int(width.sum()) * k).reshape(-1, k)
        block = np.repeat(np.arange(len(blocks)), width)
        cum = np.cumsum(table, axis=0)
        before = cum[start - 1]
        before[0] = 0
        left = cum - before[block]
        present = table.any(axis=1)
        cut = np.flatnonzero(present & (left.sum(axis=1) < sizes[block]))
        if not cut.size:
            return
        counts = np.array([c for _, _, c, _ in nodes])
        lw = self._weights(left[cut])
        rw = self._weights(counts)[node[block[cut]]] - lw
        score = (lw * lw).sum(axis=1) / lw.sum(axis=1) + (rw * rw).sum(axis=1) / rw.sum(axis=1)
        # each node's first best score, in (feature order, code) order
        owner = node[block[cut]]
        edge = np.concatenate(([True], owner[1:] != owner[:-1]))
        winners = owner[edge]
        hits = np.flatnonzero(score == np.maximum.reduceat(score, np.flatnonzero(edge))[np.cumsum(edge) - 1])
        at = hits[np.searchsorted(owner[hits], winners)]
        bins = cut[at]
        fw = f[block[bins]]
        present = np.flatnonzero(present)
        above = present[np.searchsorted(present, bins, side="right")]
        lo = builder.distinct[builder.offset[fw] + bins - start[block[bins]]]
        hi = builder.distinct[builder.offset[fw] + above - start[block[bins]]]
        with np.errstate(over="ignore"):
            threshold = _midpoint(lo, hi)
        goes_left = left[bins]
        for i, w in enumerate(winners.tolist()):
            key = float(score[at[i]])
            if found[w] is None or key > found[w][0]:
                found[w] = (key, int(fw[i]), float(threshold[i]), goes_left[i], counts[w] - goes_left[i])


class Sse:
    """Regression criterion: the key of a split is minus its weighted SSE.

    Tree i of a batch fits ``targets[i]``.  Leaf values stay zero; the
    caller sets them from ``leaf_of``, each tree's leaf (numbered within
    the tree) of every row.
    """

    def __init__(self, targets: np.ndarray, w: np.ndarray):
        self.targets = targets
        self.w = w
        self.leaf_of = np.zeros(targets.shape, dtype=np.int32)

    def root(self, index: int, rows: np.ndarray) -> None:
        return None

    def stats(self, nodes: list, searched: list[bool]):
        keys, splittable = [], []
        for (index, rows, _), go in zip(nodes, searched):
            parent_sse = 0.0
            if go:
                wi = self.w[rows]
                ti = self.targets[index][rows]
                wt = float(wi.sum())
                mean = float((wi * ti).sum()) / wt
                parent_sse = float((wi * (ti - mean) ** 2).sum())
            keys.append(-parent_sse)
            splittable.append(parent_sse > _GAIN_EPS)
        return keys, splittable, None

    def leaf(self, index: int, node: int, rows: np.ndarray) -> None:
        self.leaf_of[index, rows] = node

    def search(self, builder: EnsembleBuilder, nodes: list) -> list:
        """Best (key, feature, threshold, None, None) of each node, or None
        when no candidate feature varies in it."""
        found = []
        for index, rows, _, feats in nodes:
            best = None
            for f in feats[builder.width[feats] > 1].tolist():
                # the node's rows stably sorted by code (rows increase, so ties keep row order)
                srt = rows.take(np.argsort(builder.codes[f].take(rows), kind="stable"))
                code = builder.codes[f].take(srt)
                cut = np.flatnonzero(code[:-1] < code[1:])
                if not cut.size:
                    continue
                # running sums of w, wt and wt^2, left and right of each cut
                run = np.empty((len(srt), 3))
                ts = self.targets[index].take(srt)
                self.w.take(srt, out=run[:, 0])
                np.multiply(run[:, 0], ts, out=run[:, 1])
                np.multiply(run[:, 1], ts, out=run[:, 2])
                np.cumsum(run, axis=0, out=run)
                left = run[cut]
                right = run[-1] - left
                sse = (left[:, 2] - left[:, 1] * left[:, 1] / left[:, 0]) + (
                    right[:, 2] - right[:, 1] * right[:, 1] / right[:, 0]
                )
                k = int(sse.argmin())
                if best is None or -sse[k] > best[0]:
                    best = (-float(sse[k]), f, srt[cut[k]:cut[k] + 2])
            if best is not None:
                lo, hi = builder.X[best[2], best[1]].tolist()  # floats: an overflow is inf, unwarned
                best = (best[0], best[1], float(_midpoint(lo, hi)), None, None)
            found.append(best)
        return found


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
        """Descend every tree for one row of each threshold cell of ``X`` (a
        one-row ``X`` is one cell), a chunk of rows at a time, and give each
        row its cell's output.

        ``combine`` maps a chunk's (trees, rows, width) leaf values to its
        (rows, k) outputs row by row, so rows of one cell get the same bits.
        """
        X = np.ascontiguousarray(X, dtype=np.float64)
        first, inverse = self._cells(X) if len(X) > 1 else (slice(None), slice(None))
        X = X[first]
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
        return np.concatenate(parts)[inverse]

    def _cells(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """One row of each distinct cell of ``X`` and each row's cell, by one mixed-radix key of its codes."""
        inner = self.feature >= 0
        feature, threshold = self.feature[inner], self.threshold[inner]
        order = np.lexsort((threshold, feature))
        used, starts = np.unique(feature[order], return_index=True)
        key, span = np.zeros(len(X), dtype=np.int64), 1  # span: a bound on the keys, as a Python int
        for f, T in zip(used.tolist(), np.split(threshold[order], starts[1:])):
            if span * (len(T) + 1) >= 1 << 62:
                key = np.unique(key, return_inverse=True)[1]
                span = int(key.max()) + 1
            key = key * (len(T) + 1) + np.searchsorted(T, X[:, f], side="left")
            span *= len(T) + 1
        _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
        return first, inverse


class _Tree:
    """One tree of an ensemble, its nodes numbered within the tree.  While
    it grows it holds its generator, its depth-first stack of (rows, depth,
    node, criterion state) and node lists; once its stack is empty it holds
    node arrays and no generator."""

    def __init__(self, index: int, rng: np.random.Generator, root: tuple, n_features: int, zeros: list):
        self.index = index
        self.rng = rng
        self.stack = [root]
        self.feature, self.threshold, self.left, self.right = [-1], [0.0], [0], [0]
        self.values = [zeros]
        self.importances = np.zeros(n_features)
        self._zeros = zeros

    def split(self, node: int, f: int, threshold: float) -> tuple[int, int]:
        left = len(self.feature)
        self.feature[node], self.threshold[node] = f, threshold
        self.left[node], self.right[node] = left, left + 1
        self.feature += [-1, -1]
        self.threshold += [0.0, 0.0]
        self.left += [left, left + 1]
        self.right += [left, left + 1]
        self.values += [self._zeros, self._zeros]
        return left, left + 1

    def finish(self) -> None:
        self.feature = np.array(self.feature, dtype=np.intp)
        self.threshold = np.array(self.threshold, dtype=np.float64)
        self.left = np.array(self.left, dtype=np.intp)
        self.right = np.array(self.right, dtype=np.intp)
        self.values = np.array(self.values, dtype=np.float64).reshape(-1, len(self._zeros))
        self.rng = None


class EnsembleBuilder:
    """The trees of one ensemble, fitted on ``X``, in tree order."""

    def __init__(self, X: np.ndarray, width: int):
        self.X = X = np.asarray(X, dtype=np.float64)
        if np.isnan(X).any():
            raise ValueError("cannot fit a tree on NaN features")
        n, self.n_features = X.shape
        # column codes: each value's rank among its column's sorted distinct values
        self.codes = np.empty((self.n_features, n), dtype=np.int16 if n <= np.iinfo(np.int16).max else np.int32)
        distinct = []
        for f in range(self.n_features):
            values, codes = np.unique(X[:, f], return_inverse=True)
            self.codes[f] = codes.ravel()
            distinct.append(values)
        self.width = np.array([len(values) for values in distinct], dtype=np.intp)
        self.offset = np.cumsum(self.width) - self.width
        self.distinct = np.concatenate(distinct + [np.zeros(0)])
        self.trees: list[_Tree] = []
        self._zeros = [0.0] * width

    def grow(self, criterion: Gini | Sse, trees, max_depth: int | None = None, max_features="sqrt") -> None:
        """Grow ``trees``, an iterable of (generator, sample rows of ``X``),
        in lockstep, and add them to :attr:`trees` in iteration order."""
        m = features_per_node(max_features, self.n_features)
        capacity = max(1, _BATCH_ROWS // max(1, len(self.X)))
        queue = enumerate(trees)
        growing: list[_Tree] = []
        while True:
            for index, (rng, rows) in itertools.islice(queue, capacity - len(growing)):
                if len(rows) == 0:
                    raise ValueError("cannot fit a tree on an empty sample")
                root = (rows, 0, 0, criterion.root(index, rows))
                growing.append(_Tree(index, rng, root, self.n_features, self._zeros))
                self.trees.append(growing[-1])
            if not growing:
                break
            self._step(criterion, growing, m, max_depth)
            for tree in growing:
                if not tree.stack:
                    tree.finish()
            growing = [tree for tree in growing if tree.stack]

    def _step(self, criterion: Gini | Sse, growing: list[_Tree], m: int | None, max_depth: int | None) -> None:
        """Pop one node of every growing tree, then split it or make it a leaf."""
        popped = [tree.stack.pop() for tree in growing]
        searched = [len(rows) >= 2 and (max_depth is None or depth < max_depth) for rows, depth, _, _ in popped]
        keys, splittable, values = criterion.stats(
            [(tree.index, rows, state) for tree, (rows, _, _, state) in zip(growing, popped)], searched
        )
        candidates = [
            (tree.index, rows, state, self._sample(tree.rng, m))
            for tree, (rows, _, _, state), go, ok in zip(growing, popped, searched, splittable)
            if go and ok
        ]
        best = iter(criterion.search(self, candidates) if candidates else ())
        for i, (tree, (rows, depth, node, _)) in enumerate(zip(growing, popped)):
            found = next(best) if searched[i] and splittable[i] else None
            if found is None or found[0] - keys[i] <= _GAIN_EPS:
                if values is not None:
                    tree.values[node] = values[i]
                criterion.leaf(tree.index, node, rows)
                continue
            key, f, threshold, left_state, right_state = found
            # weighted impurity decrease: W*i_parent - (W_L*i_L + W_R*i_R)
            tree.importances[f] += key - keys[i]
            go_left = self.X[rows, f] <= threshold
            left, right = tree.split(node, f, threshold)
            tree.stack.append((rows[~go_left], depth + 1, right, right_state))
            tree.stack.append((rows[go_left], depth + 1, left, left_state))

    def _sample(self, rng: np.random.Generator, m: int | None) -> np.ndarray:
        """Candidate feature indices for one node, sampled without replacement."""
        if m is None:
            return np.arange(self.n_features)
        return rng.choice(self.n_features, size=m, replace=False)

    def build(self) -> TreeEnsemble:
        roots = np.cumsum([0] + [len(tree.feature) for tree in self.trees], dtype=np.intp)
        none = np.zeros(0, dtype=np.intp)
        return TreeEnsemble(
            feature=np.concatenate([tree.feature for tree in self.trees] + [none]),
            threshold=np.concatenate([tree.threshold for tree in self.trees] + [np.zeros(0)]),
            left=np.concatenate([tree.left + root for tree, root in zip(self.trees, roots)] + [none]),
            right=np.concatenate([tree.right + root for tree, root in zip(self.trees, roots)] + [none]),
            roots=roots[:-1],
            values=np.concatenate([tree.values for tree in self.trees] + [np.zeros((0, len(self._zeros)))]),
            raw_importances=np.reshape([tree.importances for tree in self.trees], (-1, self.n_features)),
        )
