"""Independent brute-force reference implementations used by the tests.

These deliberately take different computational routes from the package:
exact rational arithmetic for the metric stack, sort-based winner
selection, min-over-scan sampling, a reference reader of the raw run
log, term-by-term evaluation of an instance under an assignment, a tree
grower that scans one node and one feature at a time, and an OPB reader
that works line by line on ``str`` tokens.
They are the ground truth the production code is compared against.
"""

import math
import re
from fractions import Fraction
from itertools import accumulate, chain, repeat
from operator import itemgetter, mul, sub
from typing import NoReturn

import numpy as np

from pbselect.opb import EQ, GEQ, Instance, OpbParseError, _int_array, _offsets, _within_terms


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


# --- line by line: the reference OPB reader ----------------------------------
#
# The package reads a document in one array pass over its bytes; this reader
# splits it into lines and each line into tokens, as ``str`` objects, and
# walks the lines again to find an error's position.  On an ASCII document
# both must give equal instances, or raise the same error at the same place.
# Its grammar is Unicode: ``str.split`` whitespace, ``str.splitlines`` line
# ends and ``str.isdecimal`` digits.

_HEADER_RE = re.compile(r"\*\s*#variable=\s*(\d+)\s+#constraint=\s*(\d+)")
_RELATIONS = (">=", "<=", "=", ">", "<")
_STORED = {">=": GEQ, "<=": GEQ, "=": EQ}
_TOO_LONG = "integer has more digits than the interpreter converts"
_MAX_INDEX = 2**63 - 1

# a token is its prefix then decimal digits; the prefix gives its kind
_NEGATIVE, _LITERAL, _NEGATED = 2, 3, 4
_PREFIX_KIND = {"": 1, "+": 1, "-": _NEGATIVE, "x": _LITERAL, "~x": _NEGATED}


class _Misplaced(Exception):
    """A parse error as (reason, statement number, token number);
    ``parse_opb`` turns it into an :class:`OpbParseError` with line and
    column."""


def _is_coefficient(tok: str) -> bool:
    """``[+-]?`` then decimal digits, the shape ``int`` reads exactly."""
    return (tok[1:] if tok[0] in "+-" else tok).isdecimal()


def _literal(tok: str) -> tuple[int, bool] | None:
    """``(index, negated)`` of an ``x<i>`` or ``~x<i>`` token, else None."""
    if tok[0] == "x":
        digits, negated = tok[1:], False
    elif tok[:2] == "~x":
        digits, negated = tok[2:], True
    else:
        return None
    return (int(digits), negated) if digits.isdecimal() else None


def _header_counts(text: str, raw: str, m: re.Match) -> tuple[int, int]:
    """The counts of header line ``raw``, matched by ``m`` after its indent."""
    counts = []
    for group in (1, 2):
        try:
            counts.append(int(m.group(group)))
        except ValueError:
            # ``raw`` is the first line equal to itself: an earlier copy
            # would have been the header
            column = len(raw) - len(raw.lstrip()) + m.start(group) + 1
            raise OpbParseError(_TOO_LONG, text.splitlines().index(raw) + 1, column) from None
    return counts[0], counts[1]


def _statements(text: str) -> tuple[list[list[str]], tuple[int, int] | None]:
    """Token lists of the ``;``-terminated statements, and the header counts
    if a standard header comment was seen."""
    header: tuple[int, int] | None = None
    pending: list[str] = []
    statements: list[list[str]] = []
    for raw in text.splitlines():
        tokens = raw.split()
        if not tokens:
            continue
        if tokens[0][0] == "*":
            if header is None:
                m = _HEADER_RE.match(raw.lstrip())
                if m:
                    header = _header_counts(text, raw, m)
            continue
        ends = raw.count(";")
        if not ends:
            pending += tokens
            continue
        last = tokens[-1]
        if ends == 1 and last[-1] == ";":  # the usual line: one statement's end
            pending += tokens
            if last == ";":
                pending.pop()
                if not pending:
                    raise _Misplaced("empty statement", len(statements), 0)
            else:
                pending[-1] = last[:-1]
            statements.append(pending)
            pending = []
            continue
        for tok in tokens:
            if tok != ";" and tok.endswith(";"):
                pending.append(tok[:-1])
                tok = ";"
            if tok == ";":
                if not pending:
                    raise _Misplaced("empty statement", len(statements), 0)
                statements.append(pending)
                pending = []
            else:
                pending.append(tok)
    if pending:
        raise _Misplaced("statement missing ';' terminator", len(statements), len(pending) - 1)
    return statements, header


def _position(text: str, statement: int, token: int) -> tuple[int, int]:
    """Line and column of a statement's token, its ``;`` counting as the
    token after its last; the one scan that tracks positions."""
    s = k = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.lstrip()
        if not stripped or stripped.startswith("*"):
            continue
        for m in re.finditer(r"\S+", raw):
            tok, col = m.group(), m.start() + 1
            if tok != ";" and tok.endswith(";"):
                if (s, k) == (statement, token):
                    return lineno, col
                k += 1
                tok, col = ";", col + len(tok) - 1
            if (s, k) == (statement, token):
                return lineno, col
            s, k = (s + 1, 0) if tok == ";" else (s, k + 1)
    raise ValueError(f"no token {token} in statement {statement}")


def _read(
    statements: list[list[str]], header: tuple[int, int] | None, source_name: str
) -> Instance | None:
    """The instance, with every token classified, converted and checked at
    once; None when any check fails, which leaves the error to
    :func:`_locate`."""
    heads = list(map(itemgetter(0), statements))
    has_objective = "min:" in heads
    objective: list[str] = []
    constraints = statements
    if has_objective:
        if heads.count("min:") > 1:
            return None
        s = heads.index("min:")
        objective = statements[s][1:]
        constraints = statements[:s] + statements[s + 1 :]
    # a constraint is at least one term token, a relation and a right-hand side
    sizes = list(map(len, constraints))
    if min(sizes, default=3) < 3:
        return None
    relations = list(map(itemgetter(-2), constraints))
    if not set(relations).issubset(_STORED):
        return None

    # the term tokens of the objective, then of each constraint, then the
    # right-hand sides; the term tokens of statement s are starts[s]:starts[s + 1]
    tokens = list(
        chain(
            objective,
            chain.from_iterable(map(itemgetter(slice(0, -2)), constraints)),
            map(itemgetter(-1), constraints),
        )
    )
    n = len(tokens) - len(constraints)
    first = (0, len(objective)) if has_objective else (0,)
    starts = np.fromiter(accumulate(chain(first, map(sub, sizes, repeat(2)))), np.int64)
    digits = list(map(str.lstrip, tokens, repeat("+-~x")))
    prefixes = map(str.removesuffix, tokens, digits)
    # one byte per token: its kind, 0 for a token of no kind
    kinds = bytes(map(mul, map(_PREFIX_KIND.get, prefixes, repeat(0)), map(str.isdecimal, digits)))
    if 0 in kinds or max(kinds[n:], default=1) >= _LITERAL:
        return None
    kind = np.frombuffer(kinds, np.int8)
    is_coefficient = kind < _LITERAL
    at = np.flatnonzero(is_coefficient[:n])
    # literals before each term, and after the last
    term_starts = np.append(at - np.arange(len(at)), n - len(at))
    # an empty objective is no region to check
    edges = starts[1:] if has_objective and not objective else starts
    # with every token a coefficient or a literal, and every right-hand side
    # a coefficient, the grammar's (coefficient literal+)+ is every region
    # opened by a coefficient and every term holding a literal
    if not (is_coefficient[edges[:-1]].all() and (term_starts[1:] > term_starts[:-1]).all()):
        return None
    try:
        try:
            values = np.fromiter(map(int, digits), np.int64, len(digits))
        except OverflowError:  # a value outside int64
            values = np.array(list(map(int, digits)), dtype=object)
    except ValueError:  # an integer longer than ``int`` converts
        return None
    is_literal = ~is_coefficient[:n]
    try:
        variables = values[:n][is_literal].astype(np.int64)
    except OverflowError:
        return None
    negated = kind[:n][is_literal] == _NEGATED
    top = int(variables.max(initial=0))
    if variables.min(initial=1) < 1 or (header is not None and top > header[0]):
        return None
    statement_starts = np.searchsorted(at, starts)
    if len(variables) > len(at) and _within_terms(variables[1:] <= variables[:-1], term_starts):
        term_of = np.repeat(np.arange(len(at)), np.diff(term_starts))
        order = np.lexsort((variables, term_of))
        variables, negated = variables[order], negated[order]
        if _within_terms(variables[1:] == variables[:-1], term_starts):
            return None

    # signs: a '-' prefix, and both sides of a '<=' constraint negated
    negative = kind[at] == _NEGATIVE
    rhs_negative = kind[n:] == _NEGATIVE
    if "<=" in relations:
        leq = np.fromiter(map("<=".__eq__, relations), bool, len(relations))
        rhs_negative ^= leq
        first_term = statement_starts[int(has_objective)]
        negative[first_term:] ^= np.repeat(leq, np.diff(statement_starts[int(has_objective) :]))
    coefficients = values[at]
    np.negative(coefficients, out=coefficients, where=negative)
    rhs = values[n:].copy()
    np.negative(rhs, out=rhs, where=rhs_negative)
    if coefficients.dtype == object:
        coefficients = _int_array(coefficients.tolist())
    if not coefficients.all():  # zero-coefficient terms go, after their literals were checked
        kept = coefficients != 0
        degree = np.diff(term_starts)
        keep_literal = np.repeat(kept, degree)
        variables, negated = variables[keep_literal], negated[keep_literal]
        coefficients = coefficients[kept]
        statement_starts = _offsets(kept)[statement_starts]
        term_starts = _offsets(degree[kept])

    num_variables, declared = header if header is not None else (top, len(constraints))
    return Instance(
        coefficients=coefficients,
        term_starts=term_starts,
        variables=variables,
        negated=negated,
        statement_starts=statement_starts,
        relations=tuple(map(_STORED.__getitem__, relations)),
        rhs=tuple(rhs.tolist()),
        has_objective=has_objective,
        num_variables=num_variables,
        declared_constraints=declared,
        source_name=source_name,
    )


def _check_term(stmt: list[str], head: int, s: int) -> None:
    """Raise the first error of the term whose coefficient is token
    ``head``: a coefficient too long to convert, then, in document order,
    an index below 1 or a repeated index among its literals."""
    try:
        int(stmt[head])
    except ValueError:
        raise _Misplaced(_TOO_LONG, s, head) from None
    seen: set[int] = set()
    for k in range(head + 1, len(stmt)):
        lit = _literal(stmt[k])
        if lit is None:
            break
        var = lit[0]
        if var < 1:
            raise _Misplaced("variable index must be >= 1", s, k)
        if var in seen:
            raise _Misplaced(f"variable x{var} appears twice in one term", s, k)
        seen.add(var)


def _check_terms(stmt: list[str], start: int, stop: int, s: int) -> int:
    """Raise the first error in the terms in tokens ``start:stop`` of
    statement ``s``; else return the largest variable index they use."""
    top = 0
    head = -1  # token index of the open term's coefficient
    has_literals = False
    for k in range(start, stop):
        tok = stmt[k]
        try:
            lit = _literal(tok) if head >= 0 else None
        except ValueError:  # an index longer than ``int`` converts
            raise _Misplaced(_TOO_LONG, s, k) from None
        if lit is not None:
            has_literals = True
            if lit[0] > top:
                top = lit[0]
            continue
        if head >= 0:
            if not has_literals:
                raise _Misplaced(f"expected literal, got {tok!r}", s, k)
            _check_term(stmt, head, s)
        if not _is_coefficient(tok):
            raise _Misplaced(f"expected coefficient, got {tok!r}", s, k)
        head, has_literals = k, False
    if head < 0:
        raise _Misplaced("statement has no terms", s, 0)
    if not has_literals:
        raise _Misplaced(f"term with coefficient {stmt[head]} has no literals", s, head)
    _check_term(stmt, head, s)
    return top


def _relation_error(stmt: list[str], s: int) -> _Misplaced | None:
    """The first relation or right-hand-side error of a constraint."""
    at = [k for k, tok in enumerate(stmt) if tok in _RELATIONS]
    if not at:
        return _Misplaced("constraint has no relation", s, 0)
    if len(at) > 1:
        return _Misplaced("multiple relations in one constraint", s, at[1])
    ri, rel = at[0], stmt[at[0]]
    if rel not in _STORED:
        return _Misplaced(f"relation {rel!r} not allowed (use >=, <= or =)", s, ri)
    if ri != len(stmt) - 2:
        return _Misplaced("expected a single right-hand side after the relation", s, ri)
    if not _is_coefficient(stmt[-1]):
        return _Misplaced(f"malformed right-hand side {stmt[-1]!r}", s, len(stmt) - 1)
    return None


def _first_use(statements: list[list[str]], var: int) -> tuple[int, int]:
    """Statement and token number of the first literal of ``var``."""
    for s, stmt in enumerate(statements):
        for k, tok in enumerate(stmt):
            lit = _literal(tok)
            if lit is not None and lit[0] == var:
                return s, k
    raise ValueError(f"x{var} does not occur")


def _locate(statements: list[list[str]], header: tuple[int, int] | None) -> NoReturn:
    """Raise the first error, in document order, of statements that
    :func:`_read` rejected: the one scalar walk of the grammar."""
    seen_objective = False
    top = 0
    for s, stmt in enumerate(statements):
        n = len(stmt)
        if stmt[0] == "min:":
            if seen_objective:
                raise _Misplaced("multiple objective lines", s, 0)
            seen_objective = True
            used = _check_terms(stmt, 1, n, s) if n > 1 else 0
        elif n >= 2 and stmt[-2] in _STORED and _is_coefficient(stmt[-1]):
            try:
                used = _check_terms(stmt, 0, n - 2, s)
            except _Misplaced as exc:
                # a relation error comes first, wherever it is
                raise _relation_error(stmt, s) or exc
            try:
                int(stmt[-1])
            except ValueError:
                raise _Misplaced(_TOO_LONG, s, n - 1) from None
        else:
            # a statement of any other shape has a relation error
            raise _relation_error(stmt, s)
        top = max(top, used)
    if header is not None and top > header[0]:
        raise _Misplaced(
            f"undeclared variable x{top} (header declares {header[0]})",
            *_first_use(statements, top),
        )
    if top > _MAX_INDEX:
        raise _Misplaced(f"variable index x{top} exceeds 2**63 - 1", *_first_use(statements, top))
    raise AssertionError("the array checks rejected a well-formed document")


def _decode(data: bytes) -> str:
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # the lines before the bad byte decode; the '?' stands for it
        lines = (data[: exc.start].decode("utf-8") + "?").splitlines()
        column = len(lines[-1][:-1].encode("utf-8")) + 1
        reason = f"invalid UTF-8 byte 0x{data[exc.start]:02x}"
        raise OpbParseError(reason, len(lines), column) from None


def oracle_parse_opb(text, source_name=""):
    """The instance of an OPB document, or the OpbParseError, by the
    line-by-line reader."""
    if isinstance(text, bytes):
        text = _decode(text)
    try:
        statements, header = _statements(text)
        inst = _read(statements, header, source_name)
        if inst is None:
            _locate(statements, header)
    except _Misplaced as exc:
        reason, statement, token = exc.args
        raise OpbParseError(reason, *_position(text, statement, token)) from None
    return inst
