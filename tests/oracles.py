"""Independent brute-force reference implementations used by the tests.

These deliberately take different computational routes from the package:
exact rational arithmetic for the metric stack, sort-based winner
selection, min-over-scan sampling, a reference reader of the raw run
log, term-by-term evaluation of an instance under an assignment, and a
tree grower that scans one node and one feature at a time.
They are the ground truth the production code is compared against.
"""

import math
from fractions import Fraction

import numpy as np


def oracle_normalize(o, o_min, o_max):
    """Exact rational version of the per-pair normalization."""
    if o_max is None:
        raise ValueError("bounds undefined")
    if o is None:
        return Fraction(2)
    if o_min == o_max:
        return Fraction(0)
    return Fraction(o - o_min, o_max - o_min)


def oracle_metric(values, bounds):
    """Exact cumulative metric; ``bounds`` is a (o_min, o_max) per pair."""
    return sum(
        (oracle_normalize(o, lo, hi) for o, (lo, hi) in zip(values, bounds)),
        Fraction(0),
    )


def oracle_m_hat(m_ms, m_sbs, m_vbs):
    return Fraction(m_ms - m_vbs, m_sbs - m_vbs)


def oracle_sample(events, t):
    """Best objective among events at time <= t, by direct scan."""
    feasible = [v for et, v in events if et <= t]
    return min(feasible) if feasible else None


def oracle_bounds(events_by_solver):
    """(o_min, o_max) over every event of every solver; (None, None) if none."""
    everything = [v for events in events_by_solver for _, v in events]
    if not everything:
        return None, None
    return min(everything), max(everything)


def oracle_label(candidates):
    """Winner by sorting: (value, achievement time, declaration index).

    ``candidates`` is a list of (solver_id, value, time) with value=None for
    solvers without a solution; returns "NO_SOLUTION" when nothing is
    feasible.
    """
    feasible = [
        (value, at, pos, sid)
        for pos, (sid, value, at) in enumerate(candidates)
        if value is not None
    ]
    if not feasible:
        return "NO_SOLUTION"
    return sorted(feasible)[0][3]


def raw_log_from_text(text):
    """Reference reader of a run's ``.log`` file: the (time, stdout line)
    pairs written as ``[<time>] <line>``; other lines are ignored."""
    out = []
    for raw in text.splitlines():
        if not raw.startswith("["):
            continue
        stamp, _, rest = raw.partition("] ")
        out.append((float(stamp[1:]), rest))
    return out


def oracle_pairs(events_by_instance_solver, solver_order, points):
    """Included (instance, timestep) pairs: some solver feasible there."""
    pairs = []
    for iid in sorted(events_by_instance_solver):
        for j, t in enumerate(points):
            if any(
                oracle_sample(events_by_instance_solver[iid][sid], t) is not None
                for sid in solver_order
            ):
                pairs.append((iid, j))
    return pairs


def assignments(n):
    """All 0/1 assignments over n variables as tuples of bools."""
    for mask in range(1 << n):
        yield tuple(bool(mask >> i & 1) for i in range(n))


def term_value(term, assignment):
    """A term under a 0-based assignment (``assignment[i-1]`` is x_i): its
    coefficient when every literal is true, else 0."""
    for var, negated in term.literals:
        if bool(assignment[var - 1]) == negated:
            return 0
    return term.coefficient


def constraint_satisfied(constraint, assignment):
    """Whether one constraint holds under ``assignment``."""
    lhs = sum(term_value(t, assignment) for t in constraint.terms)
    return lhs >= constraint.rhs if constraint.relation == ">=" else lhs == constraint.rhs


def satisfied(inst, assignment):
    """Whether every constraint of ``inst`` holds under ``assignment``."""
    return all(constraint_satisfied(c, assignment) for c in inst.constraints)


def objective_value(inst, assignment):
    """The objective of ``inst`` under ``assignment``."""
    return sum(term_value(t, assignment) for t in inst.objective)


# --- one node at a time: the reference tree grower ----------------------------
#
# The package grows trees in lockstep batches over column codes; this grower
# visits one node at a time and scans each candidate feature with its own
# stable argsort and cumsums.  Both must give the same node arrays bit for bit.

_GAIN_EPS = 1e-12


def oracle_gini_impurity(class_weights):
    total = class_weights.sum()
    if total <= 0:
        return 0.0
    p = class_weights / total
    return float(1.0 - (p * p).sum())


def oracle_sample_features(rng, n_features, max_features):
    if max_features is None:
        return np.arange(n_features)
    if max_features == "sqrt":
        m = math.isqrt(n_features)
        if m * m < n_features:
            m += 1
    else:
        m = min(int(max_features), n_features)
    return rng.choice(n_features, size=m, replace=False)


def _oracle_midpoint(lo, hi):
    """The midpoint of two consecutive distinct values, or ``lo`` when the
    midpoint rounds up to ``hi``, which would send every row left."""
    with np.errstate(over="ignore"):
        mid = (lo + hi) / 2.0
    return mid if mid < hi else lo


def _best_threshold_gini(x, cw):
    """Best (score, threshold) for one feature of a classification node;
    the score is sum_c(L_c^2)/W_L + sum_c(R_c^2)/W_R."""
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
    return float(score[k]), _oracle_midpoint(xs[cut[k]], xs[cut[k] + 1])


def _best_threshold_sse(x, w, t):
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
    return float(sse[k]), _oracle_midpoint(xs[cut[k]], xs[cut[k] + 1])


def oracle_gini_node(onehot):
    """A classification node's criterion from its per-row one-hot weights."""

    def node(idx):
        rows = onehot[idx]
        cw = rows.sum(axis=0)
        total = cw.sum()
        return (
            float((cw * cw).sum()) / total,
            int((cw > 0).sum()) > 1,
            (cw / total).tolist(),
            lambda col: _best_threshold_gini(col, rows),
        )

    return node


def oracle_sse_node(targets, w):
    """A regression node's criterion; leaf values are left to the caller."""

    def node(idx):
        wi = w[idx]
        ti = targets[idx]
        wt = float(wi.sum())
        mean = float((wi * ti).sum()) / wt
        parent_sse = float((wi * (ti - mean) ** 2).sum())

        def scan(col):
            found = _best_threshold_sse(col, wi, ti)
            return None if found is None else (-found[0], found[1])

        return -parent_sse, parent_sse > _GAIN_EPS, None, scan

    return node


class OracleTrees:
    """Node lists that trees grow into, one tree and one node at a time."""

    def __init__(self, n_features, width):
        self.n_features = n_features
        self.feature, self.threshold, self.left, self.right = [], [], [], []
        self.values, self.roots, self.importances = [], [], []
        self._zeros = [0.0] * width

    def _new_node(self):
        node = len(self.feature)
        self.feature.append(-1)
        self.threshold.append(0.0)
        self.left.append(node)
        self.right.append(node)
        self.values.append(self._zeros)
        return node

    def grow(self, X, node_of, rng, max_depth=None, max_features="sqrt"):
        """Grow one tree on ``X``; returns the leaf (numbered within the
        tree) of each row."""
        n, d = X.shape
        importances = np.zeros(d)
        leaf_of = np.zeros(n, dtype=np.intp)
        root = self._new_node()
        self.roots.append(root)
        stack = [(np.arange(n), 0, root)]
        while stack:
            idx, depth, node = stack.pop()
            parent_key, splittable, leaf_value, scan = node_of(idx)
            depth_ok = max_depth is None or depth < max_depth
            best = None
            if splittable and depth_ok and idx.size >= 2:
                for f in oracle_sample_features(rng, d, max_features):
                    col = X[idx, f]
                    if col.min() == col.max():
                        continue
                    found = scan(col)
                    if found is not None and (best is None or found[0] > best[0]):
                        best = (found[0], int(f), found[1])
                if best is not None and best[0] - parent_key <= _GAIN_EPS:
                    best = None
            if best is None:
                leaf_of[idx] = node - root
                if leaf_value is not None:
                    self.values[node] = leaf_value
                continue
            key, f, threshold = best
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

    def arrays(self):
        """The node table as the arrays of a ``TreeEnsemble``."""
        return {
            "feature": np.array(self.feature, dtype=np.intp),
            "threshold": np.array(self.threshold, dtype=np.float64),
            "left": np.array(self.left, dtype=np.intp),
            "right": np.array(self.right, dtype=np.intp),
            "roots": np.array(self.roots, dtype=np.intp),
            "values": np.array(self.values, dtype=np.float64).reshape(len(self.feature), len(self._zeros)),
            "raw_importances": np.array(self.importances, dtype=np.float64).reshape(-1, self.n_features),
        }


def _tree_rng(seed, *index):
    return np.random.default_rng([seed, *index])


def oracle_forest(X, y, n_classes, n_estimators, class_weight, max_features="sqrt", max_depth=None, seed=0):
    """Node arrays of a random forest: seeded bootstraps, one tree at a time."""
    n = len(X)
    trees = OracleTrees(X.shape[1], n_classes)
    for i in range(n_estimators):
        rng = _tree_rng(seed, i)
        idx = rng.integers(0, n, size=n)
        yb = y[idx]
        onehot = np.zeros((n, n_classes))
        onehot[np.arange(n), yb] = class_weight[yb]
        trees.grow(X[idx], oracle_gini_node(onehot), rng, max_depth=max_depth, max_features=max_features)
    return trees.arrays()


def _softmax(scores):
    z = scores - scores.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def oracle_boosting(X, y, n_classes, n_estimators, learning_rate, class_weight, max_depth=3,
                    max_features="sqrt", seed=0):
    """(node arrays, leaf of every training row per tree) of gradient
    boosting, one tree at a time."""
    w = class_weight[y]
    n = len(X)
    counts = np.bincount(y, weights=w, minlength=n_classes)
    scores = np.tile(np.log(np.clip(counts / counts.sum(), 1e-12, None)), (n, 1))
    onehot = np.zeros((n, n_classes))
    onehot[np.arange(n), y] = 1.0
    trees = OracleTrees(X.shape[1], 1)
    leaves = []
    newton_scale = (n_classes - 1) / n_classes
    for m in range(n_estimators):
        probs = _softmax(scores)
        for c in range(n_classes):
            residual = onehot[:, c] - probs[:, c]
            leaf_of = trees.grow(X, oracle_sse_node(residual, w), _tree_rng(seed, m, c),
                                 max_depth=max_depth, max_features=max_features)
            root = trees.roots[-1]
            values = np.zeros(len(trees.feature) - root)
            num = np.bincount(leaf_of, weights=w * residual, minlength=len(values))
            hess = np.abs(residual) * (1.0 - np.abs(residual))
            den = np.bincount(leaf_of, weights=w * hess, minlength=len(values))
            nz = den > 1e-150
            values[nz] = newton_scale * num[nz] / den[nz]
            trees.values[root:] = values[:, None].tolist()
            scores[:, c] += learning_rate * values[leaf_of]
            leaves.append(leaf_of)
    return trees.arrays(), np.array(leaves).reshape(-1, n)
