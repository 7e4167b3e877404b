import json
import random
import time
import tracemalloc
import zipfile
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pbselect import metaselect
from pbselect.dataset import NO_SOLUTION, TRAIN, build_dataset, split_by_benchmark
from pbselect.features import encode_timestep, extract, feature_names
from pbselect.grid import make_grid
from pbselect.learners import INVERSE_FREQUENCY, TrainedModel, train_model
from pbselect.learners.boosting import SingleClassError, fit_gradient_boosting
from pbselect.learners.forest import ForestModel, fit_random_forest, tree_rng
from pbselect.learners.knn import KnnModel, fit_knn
from pbselect.learners.model_io import SchemaMismatchError, _flatten, mdi_importance
from pbselect.learners.train import hyperparams_for
from pbselect.learners import tree as tree_mod
from pbselect.learners.tree import EnsembleBuilder, Gini, Sse, TreeEnsemble
from pbselect.learners.weights import class_weights
from pbselect.opb import parse_opb

from gen import SOLVERS4, synthetic_corpus
from oracles import OracleTrees, oracle_boosting, oracle_forest, oracle_gini_impurity, oracle_sse_node


def _blobs(n=400, d=6, classes=3, seed=0, noise=0.0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    y = np.zeros(n, dtype=np.intp)
    y[X[:, 0] > 0] = 1
    y[(X[:, 0] <= 0) & (X[:, 1] > 0)] = 2 % classes
    if noise:
        flip = rng.random(n) < noise
        y[flip] = rng.integers(0, classes, flip.sum())
    return X, y


def _predict(model, X):
    """Class of each row as ``TrainedModel.predict_batch`` picks it."""
    return np.argmax(model.predict_proba(X), axis=1)


# --- decision tree -------------------------------------------------------------


def test_gini_impurity_value():
    assert oracle_gini_impurity(np.array([2.0, 2.0])) == pytest.approx(0.5)
    assert oracle_gini_impurity(np.array([4.0, 0.0])) == 0.0


def _one_tree(X, y, n_classes=2, max_features="sqrt"):
    builder = EnsembleBuilder(X, n_classes)
    gini = Gini(y, np.ones(n_classes), builder.codes)
    builder.grow(gini, [(tree_rng(0, 0), np.arange(len(y)))], max_features=max_features)
    return builder.build()


def test_tree_perfectly_separable_single_split():
    X = np.array([[0.0], [1.0], [2.0], [3.0]])
    y = np.array([0, 0, 1, 1])
    tree = _one_tree(X, y, max_features=None)
    assert (tree.feature == -1).sum() == 2  # two leaves
    preds = np.argmax(tree.apply(X, lambda dist: dist[0]), axis=1)
    assert np.array_equal(preds, y)
    assert tree.threshold[0] == pytest.approx(1.5)


def test_tree_single_class_is_single_leaf():
    X = np.array([[0.0], [1.0], [2.0]])
    y = np.array([1, 1, 1])
    tree = _one_tree(X, y)
    assert tree.feature.tolist() == [-1]
    assert tree.values[0].tolist() == [0.0, 1.0]


def test_tree_thresholds_are_midpoints():
    X = np.array([[0.0], [4.0], [10.0], [11.0]])
    y = np.array([0, 0, 1, 1])
    tree = _one_tree(X, y, max_features=None)
    assert tree.threshold[0] == pytest.approx(7.0)


def test_tree_positive_gain_required():
    # identical feature values, mixed labels: no split possible
    X = np.zeros((4, 2))
    y = np.array([0, 1, 0, 1])
    tree = _one_tree(X, y)
    assert tree.feature.tolist() == [-1]
    assert tree.values[0].tolist() == [0.5, 0.5]


def test_ensemble_leaves_loop_to_themselves():
    X, y = _blobs(200, seed=4, noise=0.1)
    trees = fit_random_forest(X, y, 3, n_estimators=6, seed=3).trees
    leaf = np.nonzero(trees.feature < 0)[0]
    assert np.array_equal(trees.left[leaf], leaf)
    assert np.array_equal(trees.right[leaf], leaf)
    # every row ends on a leaf of every tree after ``depth`` steps
    dist = trees.apply(X, lambda d: d.transpose(1, 0, 2).reshape(d.shape[1], -1))
    assert np.allclose(dist.reshape(len(X), 6, 3).sum(axis=2), 1.0)


# --- lockstep grower against the one-node-at-a-time oracle ---------------------

# Column values with ties, -0.0 beside 0.0, a subnormal, adjacent floats
# (the midpoint of 1+eps and 1+2eps rounds up to the upper value) and two
# values whose sum overflows
_POOL = [
    -3.0, -0.0, 0.0, 5e-324, 0.5, 1.0, 1.0 + 2.0**-52, 1.0 + 2.0**-51, 2.5, 1e6, 1e308, 1.7e308,
]


@st.composite
def _fit_inputs(draw):
    n = draw(st.integers(1, 40))
    d = draw(st.integers(1, 5))
    k = draw(st.integers(1, 4))
    columns = []
    for _ in range(d):
        pool = draw(st.lists(st.sampled_from(_POOL), min_size=1, max_size=6))
        columns.append([draw(st.sampled_from(pool)) for _ in range(n)])
    X = np.array(columns, dtype=np.float64).T.reshape(n, d)
    if n > 2 and draw(st.booleans()):
        X[n // 2:] = X[: n - n // 2]  # duplicated rows
    y = np.array([draw(st.integers(0, k - 1)) for _ in range(n)], dtype=np.intp)
    weight = np.array([draw(st.sampled_from([1.0, 0.1, 1 / 3, 0.7, 2.0, 1e-3])) for _ in range(k)])
    max_features = draw(st.one_of(st.none(), st.just("sqrt"), st.integers(1, d)))
    max_depth = draw(st.one_of(st.none(), st.integers(0, 4)))
    # step cells and batch rows: the defaults, or small enough that chunks
    # and batches hold a node or a tree at a time, or a few
    step = draw(st.sampled_from([1, 3, 40, tree_mod._STEP_CELLS]))
    batch = draw(st.sampled_from([1, 45, tree_mod._BATCH_ROWS]))
    return X, y, k, weight, max_features, max_depth, step, batch


def _assert_same_arrays(trees, expected):
    for name, want in expected.items():
        got = getattr(trees, name)
        assert got.dtype == want.dtype and got.shape == want.shape, name
        assert got.tobytes() == want.tobytes(), name


@settings(max_examples=120, deadline=None)
@given(_fit_inputs(), st.integers(1, 4), st.integers(0, 3))
def test_forest_matches_one_node_oracle(inputs, n_estimators, seed):
    X, y, k, weight, max_features, max_depth, step, batch = inputs
    with mock.patch.object(tree_mod, "_STEP_CELLS", step), mock.patch.object(tree_mod, "_BATCH_ROWS", batch):
        model = fit_random_forest(X, y, k, n_estimators=n_estimators, max_features=max_features,
                                  max_depth=max_depth, seed=seed, class_weight=weight)
    expected = oracle_forest(X, y, k, n_estimators, weight, max_features, max_depth, seed)
    _assert_same_arrays(model.trees, expected)


@settings(max_examples=80, deadline=None)
@given(_fit_inputs(), st.integers(1, 3), st.integers(0, 3))
def test_boosting_matches_one_node_oracle(inputs, n_estimators, seed):
    X, y, k, weight, max_features, max_depth, step, batch = inputs
    if len(np.unique(y)) < 2:
        return
    with mock.patch.object(tree_mod, "_STEP_CELLS", step), mock.patch.object(tree_mod, "_BATCH_ROWS", batch):
        model = fit_gradient_boosting(X, y, k, n_estimators=n_estimators, learning_rate=0.5,
                                      max_depth=max_depth, max_features=max_features, seed=seed,
                                      class_weight=weight)
    expected, _ = oracle_boosting(X, y, k, n_estimators, 0.5, weight, max_depth, max_features, seed)
    _assert_same_arrays(model.trees, expected)


@settings(max_examples=80, deadline=None)
@given(_fit_inputs(), st.integers(1, 4), st.integers(0, 3))
def test_regression_trees_and_leaves_match_oracle(inputs, n_trees, seed):
    X, y, _, weight, max_features, max_depth, step, batch = inputs
    rng = np.random.default_rng(seed)
    # targets with ties, as residuals of a stage have
    targets = rng.choice([-0.75, -0.25, 0.0, 0.1, 0.5], size=(n_trees, len(X)))
    w = rng.choice(weight, size=len(X))
    builder = EnsembleBuilder(X, 1)
    stage = Sse(targets, w)
    with mock.patch.object(tree_mod, "_STEP_CELLS", step), mock.patch.object(tree_mod, "_BATCH_ROWS", batch):
        builder.grow(stage, [(tree_rng(seed, t), np.arange(len(X))) for t in range(n_trees)],
                     max_depth=max_depth, max_features=max_features)
    oracle = OracleTrees(X.shape[1], 1)
    leaves = [
        oracle.grow(X, oracle_sse_node(targets[t], w), tree_rng(seed, t), max_depth, max_features)
        for t in range(n_trees)
    ]
    _assert_same_arrays(builder.build(), oracle.arrays())
    assert np.array_equal(stage.leaf_of, np.array(leaves))


@pytest.mark.parametrize("n, classes, seed", [(300, 3, 1), (700, 5, 2)])
def test_long_sums_match_oracle(n, classes, seed):
    # node sums over hundreds of rows, class weights whose multiples round
    X, y = _blobs(n, d=5, classes=classes, seed=seed, noise=0.2)
    X = np.round(X, 1)
    weight = np.array([0.1, 1 / 3, 0.7, 1.1, 1 / 7])[:classes]
    rf = fit_random_forest(X, y, classes, n_estimators=3, seed=seed, class_weight=weight)
    _assert_same_arrays(rf.trees, oracle_forest(X, y, classes, 3, weight, seed=seed))
    gb = fit_gradient_boosting(X, y, classes, n_estimators=3, learning_rate=0.25, seed=seed, class_weight=weight)
    expected, _ = oracle_boosting(X, y, classes, 3, 0.25, weight, seed=seed)
    _assert_same_arrays(gb.trees, expected)


@pytest.mark.parametrize("fit", [fit_random_forest, fit_gradient_boosting])
@pytest.mark.parametrize("bad", [0, -1, 7, 2.7, 2.0, "log2", True])
def test_bad_max_features_rejected(fit, bad):
    X, y = _blobs(40, d=6)
    with pytest.raises(ValueError, match=r"max_features must be None, 'sqrt' or an int in \[1, 6\]"):
        fit(X, y, 3, n_estimators=2, max_features=bad)


@pytest.mark.parametrize("bad", [0, -2, 1.5, True])
def test_forest_bad_n_estimators_rejected(bad):
    X, y = _blobs(40, d=3)
    with pytest.raises(ValueError, match="n_estimators must be an int >= 1"):
        fit_random_forest(X, y, 3, n_estimators=bad)


def _offline_fine_like():
    """5,000 rows of 10 instances at 500 timesteps, 15 features: 9 constant
    columns, instance features with few distinct values, the timestep last;
    4 of 5 classes present."""
    rng = np.random.default_rng(2309)
    instance = np.repeat(np.arange(10), 500)
    step = np.tile(np.arange(500), 10)
    X = rng.integers(1, 9, size=(10, 15)).astype(float)[instance]
    X[:, 2:11] = 1.0
    X[:, 13] = instance % 2
    X[:, 14] = np.log(0.01 * (step + 1))
    y = (instance * 3 + step // 90 + (rng.random(5000) < 0.1)) % 4
    return X, y


# tracemalloc peaks of these fits before the lockstep grower (one node at a
# time), on Python 3.11 and numpy 2.4; the bound is 1.5 times that
_FIT_PEAK_MB = {"rf": 2.38, "gb": 2.30}


@pytest.mark.parametrize("family", ["rf", "gb"])
def test_fit_memory_bounded(family):
    X, y = _offline_fine_like()
    weight = class_weights(y, "inverse-frequency", 5)
    if family == "rf":
        fit = lambda: fit_random_forest(X, y, 5, seed=0, class_weight=weight)  # noqa: E731
    else:
        fit = lambda: fit_gradient_boosting(X, y, 5, learning_rate=0.25, seed=0, class_weight=weight)  # noqa: E731
    tracemalloc.start()
    try:
        fit()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * _FIT_PEAK_MB[family] * 1e6


# --- random forest --------------------------------------------------------------


def test_forest_determinism_bit_identical(tmp_path):
    X, y = _blobs(300, seed=3, noise=0.05)
    a = fit_random_forest(X, y, 3, n_estimators=15, seed=11)
    b = fit_random_forest(X, y, 3, n_estimators=15, seed=11)
    assert _saved_bytes(tmp_path, "rf", a) == _saved_bytes(tmp_path, "rf", b)
    c = fit_random_forest(X, y, 3, n_estimators=15, seed=12)
    assert _saved_bytes(tmp_path, "rf", a) != _saved_bytes(tmp_path, "rf", c)


def test_forest_single_class_training():
    X = np.arange(10, dtype=float).reshape(-1, 1)
    y = np.ones(10, dtype=np.intp)
    model = fit_random_forest(X, y, 3, n_estimators=5, seed=0)
    assert np.all(_predict(model, X) == 1)


def test_forest_probabilities_are_distributions():
    X, y = _blobs(200, seed=5, noise=0.1)
    model = fit_random_forest(X, y, 3, n_estimators=10, seed=1)
    probs = model.predict_proba(X)
    assert np.all(probs >= 0)
    assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-9)


def test_forest_majority_vote_and_tie_break():
    # two single-leaf trees voting for different classes: an exact tie,
    # which must go to the lowest class index
    tie = ForestModel(
        trees=TreeEnsemble(
            feature=np.array([-1, -1]),
            threshold=np.zeros(2),
            left=np.array([0, 1]),
            right=np.array([0, 1]),
            roots=np.array([0, 1]),
            values=np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]),
            raw_importances=np.zeros((2, 1)),
        ),
    )
    rows = np.array([[0.0], [5.0]])
    assert tie.predict_proba(rows).tolist() == [[0.0, 0.5, 0.5]] * 2
    assert _predict(tie, rows).tolist() == [1, 1]


def test_forest_class_weights_validated():
    X, y = _blobs(50, seed=7)
    with pytest.raises(ValueError):
        fit_random_forest(X, y, 3, n_estimators=2, class_weight=np.ones(2))
    with pytest.raises(ValueError):
        fit_random_forest(X[:0], y[:0], 3)
    for fit in (fit_random_forest, fit_gradient_boosting):
        with pytest.raises(ValueError, match="positive and finite"):
            fit(X, y, 3, n_estimators=2, class_weight=np.array([1.0, 0.0, 1.0]))
        with pytest.raises(ValueError, match="NaN"):
            fit(np.where(X > 1.5, np.nan, X), y, 3, n_estimators=2)


# --- gradient boosting -----------------------------------------------------------


def test_gb_zero_learning_rate_predicts_prior():
    X, y = _blobs(120, seed=8)
    model = fit_gradient_boosting(X, y, 3, n_estimators=5, learning_rate=0.0, seed=0)
    majority = int(np.bincount(y).argmax())
    assert np.all(_predict(model, X) == majority)


def test_gb_separable_data_high_accuracy():
    X, y = _blobs(300, seed=9)
    model = fit_gradient_boosting(X, y, 3, n_estimators=100, learning_rate=0.25, seed=0)
    assert np.mean(_predict(model, X) == y) >= 0.99


def test_gb_loss_non_increasing_at_quarter_rate():
    X, y = _blobs(250, seed=10, noise=0.1)
    for class_weight in (None, [1.0, 2.5, 0.4]):
        model = fit_gradient_boosting(X, y, 3, n_estimators=60, learning_rate=0.25, seed=3, class_weight=class_weight)
        w = np.asarray(class_weight or [1.0, 1.0, 1.0])[y]
        losses = []
        for stages in range(61):
            # the model cut after a stage scores the training rows as the fit did then
            cut = replace(model, trees=replace(model.trees, roots=model.trees.roots[:3 * stages]))
            p = np.clip(cut.predict_proba(X)[np.arange(len(y)), y], 1e-15, None)
            losses.append(float((w * -np.log(p)).sum() / w.sum()))
        assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))


def test_gb_single_class_rejected():
    X = np.zeros((5, 2))
    y = np.zeros(5, dtype=np.intp)
    with pytest.raises(SingleClassError):
        fit_gradient_boosting(X, y, 3)


def test_gb_determinism(tmp_path):
    X, y = _blobs(150, seed=11, noise=0.05)
    a = fit_gradient_boosting(X, y, 3, n_estimators=10, learning_rate=0.25, seed=4)
    b = fit_gradient_boosting(X, y, 3, n_estimators=10, learning_rate=0.25, seed=4)
    assert _saved_bytes(tmp_path, "gb", a) == _saved_bytes(tmp_path, "gb", b)


# --- knn -------------------------------------------------------------------------


def test_knn_k1_returns_training_label():
    X, y = _blobs(80, seed=12)
    model = fit_knn(X, y, 1, 3)
    assert np.array_equal(_predict(model, X), y)


def test_knn_k_equals_n_returns_global_majority():
    X, y = _blobs(60, seed=13)
    model = fit_knn(X, y, len(X), 3)
    majority = int(np.bincount(y, minlength=3).argmax())
    assert np.all(_predict(model, X[:10]) == majority)


def test_knn_k_out_of_range():
    X, y = _blobs(10, seed=14)
    with pytest.raises(ValueError):
        fit_knn(X, y, 11, 3)
    with pytest.raises(ValueError):
        fit_knn(X, y, 0, 3)


def test_knn_zero_variance_feature_passes_through():
    X = np.array([[0.0, 5.0], [1.0, 5.0], [2.0, 5.0]])
    y = np.array([0, 0, 1])
    model = fit_knn(X, y, 1, 2)
    assert model.std[1] == 1.0
    assert _predict(model, np.array([[2.0, 5.0]])).tolist() == [1]
    assert model.predict_proba(np.array([[2.0, 5.0]])).tolist() == [[0.0, 1.0]]


def _unscaled_knn(X, y, k, n_classes):
    """A knn model over the raw rows: zero means and unit scales."""
    d = X.shape[1]
    return KnnModel(X=X, y=np.asarray(y, dtype=np.intp), k=k, n_classes=n_classes,
                    mean=np.zeros(d), std=np.ones(d))


def test_knn_distance_tie_includes_earlier_row():
    # two training points equidistant from the query; stable order wins
    X = np.array([[0.0], [2.0]])
    y = np.array([1, 0])
    model = _unscaled_knn(X, y, 1, 2)
    assert _predict(model, np.array([[1.0], [1.0]])).tolist() == [1, 1]


def _stable_knn_proba(model, X):
    """Vote shares of the first k rows of a stable sort of the distances."""
    Q = (X - model.mean) / model.std
    distances = np.sqrt(((model.X[None, :, :] - Q[:, None, :]) ** 2).sum(axis=2))
    nearest = np.argsort(distances, axis=1, kind="stable")[:, : model.k]
    votes = model.y[nearest][:, :, None] == np.arange(model.n_classes)
    return votes.sum(axis=1) / model.k


def test_knn_tie_group_cut_at_kth_boundary():
    # distances 0, 1, 1, 1, 2: k=3 keeps row 0 and the first two rows at 1
    X = np.array([[0.0], [1.0], [-1.0], [1.0], [2.0]])
    y = np.array([0, 1, 2, 2, 2])
    model = _unscaled_knn(X, y, 3, 3)
    assert model.predict_proba(np.array([[0.0]])).tolist() == [[1 / 3, 1 / 3, 1 / 3]]
    # integer features full of ties, against the stable-sort reference
    rng = np.random.default_rng(9)
    X = rng.integers(0, 3, size=(200, 3)).astype(float)
    y = rng.integers(0, 4, size=200)
    Q = rng.integers(0, 3, size=(60, 3)).astype(float)
    for k in (1, 5, 21, 200):
        for model in (_unscaled_knn(X, y, k, 4), fit_knn(X, y, k, 4)):
            assert model.predict_proba(Q).tobytes() == _stable_knn_proba(model, Q).tobytes()


def test_knn_vote_tie_breaks_by_class_order():
    X = np.array([[0.0], [0.2], [1.0], [1.2]])
    y = np.array([1, 1, 0, 0])
    model = _unscaled_knn(X, y, 4, 2)
    assert model.predict_proba(np.array([[0.6]])).tolist() == [[0.5, 0.5]]
    assert _predict(model, np.array([[0.6]])).tolist() == [0]


# --- class weights and MDI --------------------------------------------------------


def test_class_weights_uniform():
    assert np.array_equal(class_weights(np.array([0, 1, 1]), "uniform", 3), np.ones(3))


def test_class_weights_inverse_frequency():
    y = np.array([0] * 90 + [1] * 10)
    w = class_weights(y, "inverse-frequency", 2)
    assert w[0] == pytest.approx(100 / (2 * 90))
    assert w[1] == pytest.approx(5.0)


def test_class_weights_balanced_is_unit():
    y = np.array([0] * 50 + [1] * 50)
    assert np.allclose(class_weights(y, "inverse-frequency", 2), 1.0)


def test_class_weights_absent_class_inert():
    w = class_weights(np.array([0, 0, 2]), "inverse-frequency", 4)
    assert w[1] == 1.0 and w[3] == 1.0


def test_mdi_single_feature_is_one():
    X = np.array([[0.0], [1.0], [2.0], [3.0]])
    y = np.array([0, 0, 1, 1])
    model = fit_random_forest(X, y, 2, n_estimators=5, seed=0)
    assert mdi_importance(model).tolist() == pytest.approx([1.0])


def test_mdi_unused_feature_zero_and_sums_to_one():
    rng = np.random.default_rng(1)
    X = rng.normal(size=(200, 4))
    X[:, 3] = 7.0  # constant, can never split
    y = (X[:, 0] > 0).astype(np.intp)
    rf = fit_random_forest(X, y, 2, n_estimators=10, seed=5)
    imp = mdi_importance(rf)
    assert imp[3] == 0.0
    assert imp.sum() == pytest.approx(1.0, abs=1e-9)
    gb = fit_gradient_boosting(X, y, 2, n_estimators=10, learning_rate=0.25, seed=5)
    imp = mdi_importance(gb)
    assert imp[3] == 0.0
    assert imp.sum() == pytest.approx(1.0, abs=1e-9)


# --- trained-model container -------------------------------------------------------


def _trained(family, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(90, 3))
    y = (X[:, 0] > 0).astype(np.intp) + (X[:, 1] > 0.5)
    if family == "rf":
        model = fit_random_forest(X, y, 3, n_estimators=5, seed=seed)
    elif family == "gb":
        model = fit_gradient_boosting(X, y, 3, n_estimators=4, learning_rate=0.25, seed=seed)
    else:
        model = fit_knn(X, y, 5, 3)
    return _container(family, model, seed)


def _container(family, model, seed=0):
    return TrainedModel(
        family=family,
        schema="basic",
        encoding="index",
        vocabulary=["A", "B", NO_SOLUTION],
        params={"grid": {"count": 4, "horizon": 100.0, "t_min": 1.0}},
        seed=seed,
        model=model,
    )


def _saved_bytes(tmp_path, family, model):
    path = tmp_path / "saved.zip"
    _container(family, model).save(path)
    return path.read_bytes()


def _header(path):
    return json.loads(path.read_bytes().partition(b"\n")[0])


def _rewrite_header(path, **changes):
    # offsets count from the end of the header line, so the arrays stay valid
    body = path.read_bytes().partition(b"\n")[2]
    path.write_bytes(json.dumps({**_header(path), **changes}).encode() + b"\n" + body)


def test_trained_model_save_load_roundtrip(tmp_path):
    tm = _trained("rf")
    path = tmp_path / "model.json"
    tm.save(path)
    again = TrainedModel.load(path)
    assert again.vocabulary == tm.vocabulary
    assert again.params == tm.params
    X = np.random.default_rng(3).normal(size=(20, 3))
    assert np.array_equal(again.predict_batch(X), tm.predict_batch(X))
    # identical fits write byte-identical files
    other = tmp_path / "model2.json"
    _trained("rf").save(other)
    assert path.read_bytes() == other.read_bytes()


@pytest.mark.parametrize("family", ["rf", "gb", "knn"])
def test_predict_values_is_batch_row(family, monkeypatch):
    tm = _trained(family)
    X = np.random.default_rng(5).normal(size=(25, 3))
    labels = tm.predict_batch(X)
    probs = tm.model.predict_proba(X)
    for i, row in enumerate(X):
        label, by_label = tm.predict_values(tuple(row))
        assert label == tm.vocabulary[labels[i]]
        assert [by_label[v] for v in tm.vocabulary] == probs[i].tolist()
    # one row per chunk gives the same bits as one chunk for the whole batch
    import pbselect.learners.knn as knn_mod
    import pbselect.learners.tree as tree_mod

    monkeypatch.setattr(tree_mod, "_CHUNK_CELLS", 1)
    monkeypatch.setattr(knn_mod, "_CHUNK_CELLS", 1)
    assert tm.model.predict_proba(X).tobytes() == probs.tobytes()


@settings(max_examples=60, deadline=None)
@given(_fit_inputs(), st.sampled_from(["rf", "gb"]))
def test_batch_predict_on_aimed_rows_is_each_rows_own(inputs, family):
    """Rows on every split threshold and one float either side of it,
    repeated rows, NaN, +-inf and -0.0 in every column, and a column no tree
    splits on (constant in the fit) each get the bits of their one-row batch."""
    X, y, k, weight, max_features, max_depth, _, _ = inputs
    X = np.hstack([X, np.zeros((len(X), 1))])
    if family == "rf":
        model = fit_random_forest(X, y, k, n_estimators=4, max_features=max_features, max_depth=max_depth,
                                  class_weight=weight)
    elif len(np.unique(y)) > 1:
        model = fit_gradient_boosting(X, y, k, n_estimators=3, learning_rate=0.5, max_features=max_features,
                                      max_depth=max_depth, class_weight=weight)
    else:
        return
    trees, (n, d) = model.trees, X.shape
    aimed = [(f, v) for f, t in zip(trees.feature.tolist(), trees.threshold.tolist()) if f >= 0
             for v in (np.nextafter(t, -np.inf), t, np.nextafter(t, np.inf))]
    A = np.array([X[i % n] for i in range(len(aimed))]).reshape(-1, d)
    for i, (f, v) in enumerate(aimed):
        A[i, f] = v
    A[:, -1] = np.resize([-1.0, 0.0, 2.5, np.nan, np.inf], len(A))
    special = np.array([X[i % n] for i in range(4 * d)]).reshape(-1, d)
    special[np.arange(4 * d), np.arange(4 * d) // 4] = np.tile([np.nan, np.inf, -np.inf, -0.0], d)
    A = np.vstack([A, special, A[::-1], special])
    own = np.vstack([model.predict_proba(row[None]) for row in A])
    assert model.predict_proba(A).tobytes() == own.tobytes()
    with mock.patch.object(tree_mod, "_CHUNK_CELLS", 1):
        assert model.predict_proba(A).tobytes() == own.tobytes()


def test_batch_predict_compresses_a_key_wider_than_int64():
    # 65 stumps, stump f splitting feature f at 0: the cell codes' key, one
    # bit per feature, would lose feature 0's bit past 64 bits, and the two
    # rows would share a cell
    d = 65
    f = np.arange(d)
    nodes = 3 * f
    feature = np.full(3 * d, -1)
    feature[nodes] = f
    left, right = np.arange(3 * d), np.arange(3 * d)
    left[nodes], right[nodes] = nodes + 1, nodes + 2
    values = np.zeros((3 * d, 2))
    values[nodes + 1, 0] = values[nodes + 2, 1] = 1.0
    model = ForestModel(TreeEnsemble(feature, np.zeros(3 * d), left, right, nodes, values, np.zeros((d, d))))
    A = np.zeros((2, d))
    A[1, 0] = 1.0
    own = np.vstack([model.predict_proba(row[None]) for row in A])
    assert own[0].tolist() != own[1].tolist()
    assert model.predict_proba(A).tobytes() == own.tobytes()


@pytest.mark.parametrize("family", ["rf", "gb"])
def test_one_row_batch_skips_the_cell_step(family, monkeypatch):
    tm = _trained(family)
    X = np.random.default_rng(5).normal(size=(25, 3))
    probs = tm.model.predict_proba(X)

    def cells(self, X):
        raise AssertionError("a one-row batch reached the cell step")

    monkeypatch.setattr(TreeEnsemble, "_cells", cells)
    for i, row in enumerate(X):
        assert list(tm.predict_values(tuple(row))[1].values()) == probs[i].tolist()
    inst = parse_opb("* #variable= 2 #constraint= 1\nmin: +1 x1 ;\n+1 x1 >= 0 ;\n")
    label, by_label = metaselect.choose_solver(tm, inst, 50.0)
    assert label in tm.vocabulary and list(by_label) == tm.vocabulary
    with pytest.raises(AssertionError, match="cell step"):
        tm.model.predict_proba(X)


@pytest.mark.parametrize("family", ["rf", "gb", "knn"])
def test_save_load_save_is_byte_identical(family, tmp_path, monkeypatch):
    tm = _trained(family, seed=3)
    first, second, third = tmp_path / "a.model", tmp_path / "b.model", tmp_path / "c.model"
    tm.save(first)
    again = TrainedModel.load(first)
    monkeypatch.setattr(time, "time", lambda: 2e9)  # the file holds no timestamp
    again.save(second)
    _trained(family, seed=3).save(third)  # a second fit
    assert _header(first)["version"] == 4
    assert first.read_bytes() == second.read_bytes() == third.read_bytes()
    # each loaded array is the fitted one, as a read-only view of the file
    fitted, loaded = dict(_flatten(tm.model)), dict(_flatten(again.model))
    assert fitted.keys() == loaded.keys()
    for name, value in fitted.items():
        if isinstance(value, np.ndarray):
            got = loaded[name]
            assert (got.dtype, got.shape, got.tobytes()) == (value.dtype, value.shape, value.tobytes())
            assert not got.flags.writeable and got.flags.aligned
        else:
            assert loaded[name] == value
    X = np.random.default_rng(4).normal(size=(30, 3))
    assert again.model.predict_proba(X).tobytes() == tm.model.predict_proba(X).tobytes()


# model fields that files written before they were dropped still hold in
# their header; prediction never read them
_DROPPED_MODEL_KEYS = {
    "rf": {"n_features": 3, "n_classes": 3, "n_estimators": 5, "max_features": "sqrt", "seed": 0,
           "class_weight": [1.0, 1.0, 1.0]},
    "gb": {"n_features": 3, "n_classes": 3, "n_estimators": 4, "max_depth": 3, "max_features": "sqrt",
           "seed": 0, "class_weight": [1.0, 1.0, 1.0], "train_losses": [1.1, 0.9, 0.8, 0.7, 0.6]},
    "knn": {"standardize": True},
}


@pytest.mark.parametrize("family", ["rf", "gb", "knn"])
def test_file_with_dropped_model_keys_loads_and_predicts_the_same(family, tmp_path):
    tm = _trained(family)
    new, old = tmp_path / "new.model", tmp_path / "old.model"
    tm.save(new)
    stored = _header(new)["model"]
    assert not set(_DROPPED_MODEL_KEYS[family]) & set(stored)
    old.write_bytes(new.read_bytes())
    _rewrite_header(old, model={**stored, **_DROPPED_MODEL_KEYS[family]})
    X = np.random.default_rng(6).normal(size=(30, 3))
    loaded = TrainedModel.load(old)
    assert loaded.model.predict_proba(X).tobytes() == tm.model.predict_proba(X).tobytes()
    assert loaded.predict_batch(X).tolist() == tm.predict_batch(X).tolist()


@pytest.mark.parametrize("family", ["rf", "gb", "knn"])
def test_mdi_is_not_stored_and_stored_mdi_is_ignored(family, tmp_path, capsys):
    from pbselect.cli import main

    tm = _trained(family)
    new, old = tmp_path / "new.model", tmp_path / "old.model"
    tm.save(new)
    assert "mdi" not in _header(new)
    # a file written while the header held the importances
    stored = None if family == "knn" else mdi_importance(tm.model).tolist()
    old.write_bytes(new.read_bytes())
    _rewrite_header(old, mdi=stored)
    assert TrainedModel.load(old).mdi == stored
    assert TrainedModel.load(new).mdi == stored
    outputs = []
    for path in (new, old):
        code = main(["importance", "--model", str(path)])
        outputs.append((code, capsys.readouterr().out))
    assert outputs[0] == outputs[1]
    if stored is not None:
        assert outputs[0][1] == "feature,mdi_importance\n" + "".join(
            f"{name},{value!r}\n" for name, value in zip(feature_names("basic"), stored)
        )


def test_trained_model_rejects_schema_mismatch(tmp_path):
    tm = _trained("rf")
    grid = make_grid(4, 100.0, 1.0)
    inst = parse_opb("* #variable= 2 #constraint= 1\nmin: +1 x1 ;\n+1 x1 >= 0 ;\n")
    timestep = (encode_timestep(1, grid),)
    label, probs = tm.predict_values(extract(inst, "basic").values + timestep)
    assert label in tm.vocabulary
    assert sum(probs.values()) == pytest.approx(1.0)
    with pytest.raises(SchemaMismatchError):
        tm.predict_values(extract(inst, "nonlinear").values + timestep)  # 15 wide
    with pytest.raises(SchemaMismatchError):
        tm.predict_values(extract(inst, "basic").values)  # timestep missing
    with pytest.raises(SchemaMismatchError):
        tm.predict_batch(np.zeros((2, 7)))


def test_trained_model_version_check(tmp_path):
    tm = _trained("rf")
    path = tmp_path / "model.model"
    tm.save(path)
    _rewrite_header(path, version=99)
    with pytest.raises(ValueError, match="version 99"):
        TrainedModel.load(path)
    # format 3 was a zip archive: a header.json member first, then one .npy per array
    with zipfile.ZipFile(path, "w") as archive:
        archive.writestr("header.json", json.dumps({"format": "pbselect-model", "version": 3, "family": "rf"}))
        archive.writestr("trees.feature.npy", b"\x93NUMPY")
    with pytest.raises(ValueError, match="version 3"):
        TrainedModel.load(path)
    # formats 1 and 2 were one JSON document, and are not read
    data = {"format": "pbselect-model", "version": 2, "family": "rf", "model": {}}
    path.write_text(json.dumps(data))
    with pytest.raises(ValueError, match="version 2"):
        TrainedModel.load(path)
    data["version"] = 1
    path.write_text(json.dumps(data))
    with pytest.raises(ValueError, match="version 1"):
        TrainedModel.load(path)
    path.write_text('{"format": "something-else"}')
    with pytest.raises(ValueError):
        TrainedModel.load(path)


@pytest.mark.parametrize("params", [
    {}, {"grid": None}, {"grid": {"count": 1, "horizon": 100.0, "t_min": 1.0}},
    {"grid": {"count": 4, "horizon": 1.0, "t_min": 100.0}}, {"grid": {"count": "4", "horizon": 100.0, "t_min": 1.0}},
    {"grid": {"count": 4, "horizon": 100.0, "t_min": 1.0, "step": 2}}, [],
], ids=["no-grid", "null", "one-point", "t_min-above-horizon", "string-count", "unknown-key", "list"])
def test_load_rejects_params_that_hold_no_timestep_grid(params, tmp_path):
    # ``solve`` maps its budget onto the model's grid, and ``evaluate``
    # compares it with the dataset's: a model without one would fail there
    path = tmp_path / "model.model"
    _trained("knn").save(path)
    _rewrite_header(path, params=params)
    with pytest.raises(ValueError, match="params hold no valid timestep grid") as info:
        TrainedModel.load(path)
    assert str(info.value).startswith(f"{path}: ")


@pytest.mark.parametrize("layout", ["whole-file", "zip-header", "header-line"])
@pytest.mark.parametrize("content", [b"\x80\x81 not UTF-8", b"plain text", b'["a", "JSON", "list"]'],
                         ids=["binary", "text", "json-list"])
def test_load_rejects_a_file_that_is_not_a_model(content, layout, tmp_path, capsys):
    from pbselect.cli import main

    path = tmp_path / "model.model"
    if layout == "zip-header":  # the same bytes as the header member of a format-3 zip archive
        with zipfile.ZipFile(path, "w") as archive:
            archive.writestr("header.json", content)
    elif layout == "header-line":  # the same bytes as the header line of a model's arrays
        _trained("rf").save(path)
        path.write_bytes(content + b"\n" + path.read_bytes().partition(b"\n")[2])
    else:
        path.write_bytes(content)
    message = f"{path} is not a pbselect-model file"
    with pytest.raises(ValueError) as info:
        TrainedModel.load(path)
    assert str(info.value) == message
    assert main(["importance", "--model", str(path)]) == 1
    assert json.loads(capsys.readouterr().err) == {"error": "ValueError", "detail": message}


# damage: (fields of the first array's [dtype, shape, offset] to replace,
# bytes cut from the end (negative) or appended, what the error names)
_DAMAGE = {
    "truncated-body": ({}, -1, "runs past the end"),
    "span-past-the-end": ({"offset": 10**6}, 0, "runs past the end"),
    "trailing-bytes": ({}, 8, "8 bytes follow the last array"),
    "object-dtype": ({"dtype": "|O"}, 0, "dtype"),
    "void-dtype": ({"dtype": "|V8"}, 0, "dtype"),
    "structured-dtype": ({"dtype": "<f8,<i8"}, 0, "dtype"),
    "list-dtype": ({"dtype": [["a", "<f8"]]}, 0, "dtype"),
    "unknown-dtype": ({"dtype": "zzz"}, 0, "dtype"),
    "negative-shape": ({"shape": [-1]}, 0, "shape"),
    "float-shape": ({"shape": [2.0]}, 0, "shape"),
    "string-shape": ({"shape": ["2"]}, 0, "shape"),
    "bool-shape": ({"shape": [True]}, 0, "shape"),
    "negative-offset": ({"offset": -8}, 0, "offset"),
}


@pytest.mark.parametrize("damage", list(_DAMAGE))
def test_load_rejects_a_damaged_model_file(damage, tmp_path):
    fields, extra, phrase = _DAMAGE[damage]
    path = tmp_path / "model.model"
    _trained("gb").save(path)
    header, body = _header(path), path.read_bytes().partition(b"\n")[2]
    name, spec = next(iter(header["arrays"].items()))
    header["arrays"][name] = [fields.get(key, value) for key, value in zip(("dtype", "shape", "offset"), spec)]
    path.write_bytes(json.dumps(header).encode() + b"\n" + (body[:extra] if extra < 0 else body + bytes(extra)))
    with pytest.raises(ValueError, match=phrase) as info:
        TrainedModel.load(path)
    assert str(info.value).startswith(f"{path}: ")


def test_importance_command_prints_mdi_table(tmp_path, capsys):
    from pbselect.cli import main

    path = tmp_path / "model.json"
    tm = _trained("rf")
    tm.save(path)
    assert main(["importance", "--model", str(path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "feature,mdi_importance"
    assert [float(line.split(",")[1]) for line in lines[1:]] == tm.mdi
    _trained("knn").save(path)
    assert main(["importance", "--model", str(path)]) == 2


def test_hyperparameter_table():
    assert hyperparams_for("rf", "nonlinear") == {"n_estimators": 100, "max_features": "sqrt"}
    assert hyperparams_for("gb", "basic")["learning_rate"] == 0.5
    assert hyperparams_for("gb", "nonlinear")["learning_rate"] == 0.25
    assert hyperparams_for("gb", "linear")["learning_rate"] == 0.1
    assert hyperparams_for("gb", "linear")["max_depth"] == 3
    assert hyperparams_for("knn", "basic")["n_neighbors"] == 13
    assert hyperparams_for("knn", "nonlinear")["n_neighbors"] == 21
    assert hyperparams_for("knn", "linear")["n_neighbors"] == 21
    with pytest.raises(ValueError):
        hyperparams_for("rf", "mystery")


def test_train_without_no_solution_rows(tmp_path):
    grid = make_grid(9, 100.0, 1.0)
    archive = synthetic_corpus(tmp_path, random.Random(5), 20, grid)
    # every instance's first events move to the second grid point, so no
    # solver holds anything at the first one
    for iid, _, _ in archive.instances():
        for sid in SOLVERS4:
            traj = archive.read_trajectory(iid, sid)
            events = tuple((max(t, grid.points[1]), v) for t, v in traj.events)
            archive.write_trajectory(replace(traj, events=events))
    ds = split_by_benchmark(build_dataset(archive, "basic", SOLVERS4), seed=0, train_fraction=0.5)
    X, y = ds.matrix(TRAIN)
    none = ds.vocabulary().index(NO_SOLUTION)
    keep = y != none
    assert 0 < (~keep).sum() < len(y)

    rf = train_model(ds, "rf", seed=3, include_no_solution=False)
    assert rf.params["include_no_solution"] is False
    direct = fit_random_forest(
        X[keep], y[keep], none + 1, **hyperparams_for("rf", "basic"), seed=3,
        class_weight=class_weights(y[keep], INVERSE_FREQUENCY, none + 1),
    )
    got, want = dict(_flatten(rf.model)), dict(_flatten(direct))
    assert got.keys() == want.keys()
    for name, value in want.items():
        assert np.array_equal(got[name], value), name

    knn = train_model(ds, "knn", include_no_solution=False)
    all_rows, labels = ds.matrix(None)
    assert (labels == none).any()
    for model in (rf, knn):
        assert (model.predict_batch(all_rows) != none).all(), model.family
