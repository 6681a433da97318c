import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from firepower import trees
from firepower.errors import ModelError
from firepower.trees import (
    MIN_SPLIT_GAIN,
    GbtHyperparams,
    GbtModel,
    TreeNode,
    feature_importance,
    _run_sums,
    fit_gbt,
    fit_gbt_many,
    fit_linear_one_feature,
    gbt_from_dict,
    gbt_to_dict,
    linear_from_dict,
    linear_to_dict,
)


def random_problem(seed, n=30, d=4):
    rng = np.random.default_rng(seed)
    X = rng.uniform(0, 10, size=(n, d))
    y = 2.0 * X[:, 0] + rng.normal(0, 0.3, n)
    return X, y


small_hp = GbtHyperparams(n_estimators=15)


def test_default_hyperparams():
    hp = GbtHyperparams()
    assert hp.n_estimators == 100
    assert hp.max_depth == 3
    assert hp.learning_rate == 0.3
    assert hp.l2_leaf_reg == 1.0


@pytest.mark.parametrize(
    "kwargs",
    [
        {"n_estimators": 0},
        {"max_depth": 0},
        {"learning_rate": 0.0},
        {"learning_rate": 1.5},
        {"l2_leaf_reg": -1.0},
        {"min_samples_leaf": 0},
    ],
)
def test_invalid_hyperparams(kwargs):
    with pytest.raises(ModelError):
        GbtHyperparams(**kwargs)


def test_tree_nodes_are_slotted():
    # Tens of thousands of nodes per model: no per-node __dict__.
    assert not hasattr(TreeNode(), "__dict__")


def test_refit_is_bit_identical():
    X, y = random_problem(0)
    a = fit_gbt(X, y, small_hp)
    b = fit_gbt(X, y, small_hp)
    assert gbt_to_dict(a) == gbt_to_dict(b)
    assert a.training_sse == b.training_sse


@given(st.integers(0, 1000))
@settings(max_examples=25, deadline=None)
def test_training_sse_monotone(seed):
    X, y = random_problem(seed, n=20, d=3)
    m = fit_gbt(X, y, GbtHyperparams(n_estimators=10))
    trace = m.training_sse
    assert all(b <= a + 1e-9 for a, b in zip(trace, trace[1:]))


@given(st.integers(0, 1000))
@settings(max_examples=25, deadline=None)
def test_importance_nonnegative_and_normalized(seed):
    X, y = random_problem(seed, n=20, d=3)
    m = fit_gbt(X, y, GbtHyperparams(n_estimators=10))
    imp = feature_importance(m)
    assert (imp >= 0).all()
    assert abs(imp.sum() - 1.0) < 1e-12


def test_importance_uniform_when_target_constant():
    X = np.arange(12, dtype=float).reshape(6, 2)
    y = np.full(6, 5.0)
    m = fit_gbt(X, y, small_hp)
    assert list(feature_importance(m)) == [0.5, 0.5]
    # Constant target also means every tree is a single leaf.
    assert all(t.left is None for t in m.trees)


def test_dominant_feature_gets_the_importance():
    X, y = random_problem(3, n=40, d=4)
    m = fit_gbt(X, y, GbtHyperparams())
    imp = feature_importance(m)
    assert imp[0] > 0.95


def test_fit_quality_on_smooth_function():
    rng = np.random.default_rng(5)
    X = rng.uniform(0, 1, size=(60, 2))
    y = 3.0 + X[:, 0] * 2.0 + X[:, 1]
    m = fit_gbt(X, y)
    preds = m.predict_many(X)
    assert float(np.abs(preds - y).mean()) < 0.05


@given(st.integers(0, 500), st.integers(0, 300))
@example(0, 0)
@example(1, 300)
@settings(max_examples=20, deadline=None)
def test_predict_many_matches_predict(seed, rows):
    X, y = random_problem(seed, n=15, d=3)
    m = fit_gbt(X, y, GbtHyperparams(n_estimators=8))
    # Fresh rows of any batch size, on the fitted and on a decoded model.
    Z = np.random.default_rng(seed).uniform(-1, 11, size=(rows, 3))
    for model in (m, gbt_from_dict(json.loads(json.dumps(gbt_to_dict(m))))):
        for batch in (X, Z):
            many = model.predict_many(batch)
            assert many.shape == (batch.shape[0],)
            assert np.array_equal(many, np.array([m.predict(x) for x in batch]))


def test_predict_validates_feature_count():
    X, y = random_problem(1)
    m = fit_gbt(X, y, small_hp)
    with pytest.raises(ModelError):
        m.predict([1.0, 2.0])


@pytest.mark.parametrize(
    "shape", [(4,), (3, 3), (3, 5), (0, 3)], ids=["1-D", "too-few", "too-many", "empty-too-few"]
)
def test_predict_many_validates_shape(shape):
    X, y = random_problem(1)
    m = fit_gbt(X, y, small_hp)
    with pytest.raises(ModelError):
        m.predict_many(np.ones(shape))


def test_fit_rejects_bad_input():
    with pytest.raises(ModelError):
        fit_gbt(np.empty((0, 2)), np.empty(0))
    with pytest.raises(ModelError):
        fit_gbt(np.ones((3, 2)), np.ones(4))
    with pytest.raises(ModelError):
        fit_gbt(np.array([[np.nan, 1.0]]), np.array([1.0]))


def test_gbt_round_trip():
    X, y = random_problem(2)
    m = fit_gbt(X, y, small_hp)
    again = gbt_from_dict(gbt_to_dict(m))
    assert gbt_to_dict(again) == gbt_to_dict(m)
    assert np.array_equal(again.predict_many(X), m.predict_many(X))


# --- reference: the node-by-node exact search fit_gbt must reproduce -------


def _reference_split(X, r, hp):
    """Exact search over all features and midpoints of one node.

    Ties go to the lowest feature index, then the lowest threshold.  Returns
    None when no split beats MIN_SPLIT_GAIN.
    """
    n, d = X.shape
    l2 = hp.l2_leaf_reg
    total_sum = float(r.sum())
    total_sq = float((r * r).sum())
    v = total_sum / (n + l2)
    parent_sse = total_sq - 2.0 * v * total_sum + n * v * v
    best_gain = MIN_SPLIT_GAIN
    best = None
    for j in range(d):
        order = np.argsort(X[:, j], kind="stable")
        xs = X[order, j]
        rs = r[order]
        cum = np.cumsum(rs)
        cum_sq = np.cumsum(rs * rs)
        distinct = xs[1:] > xs[:-1]
        counts = np.arange(1, n)
        ok = distinct & (counts >= hp.min_samples_leaf) & (n - counts >= hp.min_samples_leaf)
        if not ok.any():
            continue
        idx = np.nonzero(ok)[0]
        nl = idx + 1
        sl = cum[idx]
        sql = cum_sq[idx]
        nr = n - nl
        sr = total_sum - sl
        sqr = total_sq - sql
        vl = sl / (nl + l2)
        vr = sr / (nr + l2)
        sse = (sql - 2.0 * vl * sl + nl * vl * vl) + (sqr - 2.0 * vr * sr + nr * vr * vr)
        gains = parent_sse - sse
        k = int(np.argmax(gains))
        gain = float(gains[k])
        if gain > best_gain:
            best_gain = gain
            i = idx[k]
            threshold = (xs[i] + xs[i + 1]) / 2.0
            best = (j, threshold, X[:, j] <= threshold, gain)
    return best


def _reference_tree(X, r, depth, hp, gains):
    n = X.shape[0]
    leaf = TreeNode(value=float(r.sum()) / (n + hp.l2_leaf_reg))
    if depth >= hp.max_depth or n < 2 * hp.min_samples_leaf:
        return leaf
    split = _reference_split(X, r, hp)
    if split is None:
        return leaf
    j, threshold, mask, gain = split
    gains[j] += gain
    left = _reference_tree(X[mask], r[mask], depth + 1, hp, gains)
    right = _reference_tree(X[~mask], r[~mask], depth + 1, hp, gains)
    return TreeNode(feature_index=j, threshold=threshold, left=left, right=right)


def _leaf_values(root, X):
    """The value of the leaf each row of X reaches in one reference tree."""
    values = np.empty(X.shape[0])
    for i, row in enumerate(X):
        node = root
        while node.left is not None:
            node = node.left if row[node.feature_index] <= node.threshold else node.right
        values[i] = node.value
    return values


def _reference_fit(X, y, hp):
    n, d = X.shape
    base = float(y.mean())
    gains = np.zeros(d)
    trees = []
    pred = np.full(n, base)
    sse = []
    for _ in range(hp.n_estimators):
        root = _reference_tree(X, y - pred, 0, hp, gains)
        trees.append(root)
        pred += hp.learning_rate * _leaf_values(root, X)
        sse.append(float(((y - pred) ** 2).sum()))
    return GbtModel(base, trees, hp, d, gains, sse)


def _draw_xy(draw, n):
    """Integer-valued columns with many ties, one duplicated and one constant."""
    d = draw(st.integers(1, 12))
    levels = draw(st.integers(1, 8))
    X = draw(arrays(np.float64, (n, d), elements=st.integers(0, levels).map(float)))
    if d >= 2:
        X[:, draw(st.integers(1, d - 1))] = X[:, 0]
    if d >= 3:
        X[:, draw(st.integers(0, d - 1))] = 7.0
    y = draw(
        arrays(
            np.float64,
            n,
            elements=st.one_of(
                st.integers(-4, 4).map(float),
                st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False),
            ),
        )
    )
    return X, y


def _draw_hp(draw):
    return GbtHyperparams(
        n_estimators=draw(st.integers(1, 6)),
        max_depth=draw(st.integers(1, 6)),
        learning_rate=draw(st.sampled_from([0.3, 1.0])),
        min_samples_leaf=draw(st.integers(1, 5)),
        l2_leaf_reg=draw(st.sampled_from([0.0, 1.0, 0.37])),
    )


@st.composite
def tree_problems(draw):
    X, y = _draw_xy(draw, draw(st.integers(1, 200)))
    return X, y, _draw_hp(draw)


@st.composite
def tree_batches(draw):
    """1-5 problems that share their row count; their column counts differ."""
    n = draw(st.integers(1, 120))
    return [_draw_xy(draw, n) for _ in range(draw(st.integers(1, 5)))], _draw_hp(draw)


def _assert_reference_fit(got, X, y, hp):
    want = _reference_fit(X, y, hp)
    assert json.dumps(gbt_to_dict(got)) == json.dumps(gbt_to_dict(want))
    assert repr(got.training_sse) == repr(want.training_sse)


@given(tree_problems())
@settings(max_examples=80, deadline=None)
def test_fit_matches_node_by_node_reference(problem):
    X, y, hp = problem
    _assert_reference_fit(fit_gbt(X, y, hp), X, y, hp)


@pytest.mark.parametrize(
    "search_cells", [trees.SEARCH_CELLS, 1, 200], ids=["default", "one-node-chunks", "chunks"]
)
@given(batch=tree_batches())
@settings(max_examples=40, deadline=None)
def test_batched_fits_match_node_by_node_reference(search_cells, batch):
    # A level's search runs in chunks of at most SEARCH_CELLS cells; 1 makes
    # each node a chunk, 200 splits larger levels into several.
    problems, hp = batch
    default = trees.SEARCH_CELLS
    trees.SEARCH_CELLS = search_cells
    try:
        models = fit_gbt_many([X for X, _ in problems], [y for _, y in problems], hp)
    finally:
        trees.SEARCH_CELLS = default
    assert len(models) == len(problems)
    for got, (X, y) in zip(models, problems):
        _assert_reference_fit(got, X, y, hp)


def test_batch_rejects_ragged_rows_and_unpaired_labels():
    X, y = random_problem(0, n=10, d=2)
    with pytest.raises(ModelError):
        fit_gbt_many([X, X[:9]], [y, y[:9]])
    with pytest.raises(ModelError):
        fit_gbt_many([X, X], [y])
    assert fit_gbt_many([], []) == []


def _zeros_and_magnitudes():
    return st.one_of(
        st.sampled_from([0.0, -0.0]),
        st.floats(-1e300, 1e300, allow_nan=False, allow_infinity=False),
        st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False),
        st.integers(-5, 5).map(float),
    )


@given(
    st.lists(
        st.one_of(
            arrays(np.float64, st.integers(1, 600), elements=_zeros_and_magnitudes()),
            arrays(np.float64, st.integers(1, 600), elements=st.sampled_from([0.0, -0.0])),
        ),
        min_size=1,
        max_size=6,
    )
)
@settings(max_examples=100, deadline=None)
def test_run_sums_equal_numpy_sum(parts):
    # The grower's node sums of residuals and their squares, every node of
    # a level in one call, must each be .sum() bit for bit, signed zeros
    # included (on the installed numpy).
    runs = np.concatenate([np.concatenate(([-0.0], a)) for a in parts])
    sizes = np.array([a.size + 1 for a in parts])
    starts = np.cumsum(sizes) - sizes
    with np.errstate(over="ignore", invalid="ignore"):
        squares = runs * runs
        squares[starts] = -0.0
        got = _run_sums(np.stack([runs, squares]), starts)
        want = [[a.sum() for a in parts], [(a * a).sum() for a in parts]]
    as_bits = lambda values: [(repr(float(v)), bool(np.signbit(v))) for v in values]  # noqa: E731
    assert [as_bits(row) for row in got] == [as_bits(row) for row in want]


@pytest.mark.parametrize("j", [0, 1])
def test_equal_partitions_tie_to_the_lower_feature(j):
    # Column 3 is 2 * column j: both induce the same partitions with the same
    # sums, so every gain ties bit for bit and the lower index must win.
    rng = np.random.default_rng(9)
    X = rng.integers(0, 6, size=(60, 4)).astype(float)
    X[:, 3] = 2.0 * X[:, j]
    y = 3.0 * X[:, j] + X[:, 2] + rng.normal(0, 0.1, 60)
    m = fit_gbt(X, y, GbtHyperparams(n_estimators=20))
    used = set()
    stack = list(m.trees)
    while stack:
        node = stack.pop()
        if node.left is not None:
            used.add(node.feature_index)
            stack += [node.left, node.right]
    assert j in used and 3 not in used
    assert m.cumulative_gain[3] == 0.0
    assert m.cumulative_gain[j] > 0.0


def test_linear_fit_matches_normal_equations():
    rng = np.random.default_rng(11)
    x = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
    y = 0.5 * x + 1.0 + rng.normal(0, 0.05, 5)
    m = fit_linear_one_feature(x, y)
    A = np.stack([x, np.ones_like(x)], axis=1)
    slope, intercept = np.linalg.lstsq(A, y, rcond=None)[0]
    assert m.slope == pytest.approx(slope, abs=1e-9)
    assert m.intercept == pytest.approx(intercept, abs=1e-9)


def test_linear_constant_fallback():
    m = fit_linear_one_feature([2.0, 2.0, 2.0], [1.0, 2.0, 3.0])
    assert m.is_constant
    assert m.slope == 0.0
    assert m.predict([100.0]) == pytest.approx(2.0)


def test_linear_trivial_predictions():
    m = fit_linear_one_feature([0.0, 1.0], [0.0, 2.0])
    assert m.predict([3.0]) == pytest.approx(6.0)
    # A retrained model reads its own feature of the H_i row.
    m = fit_linear_one_feature([0.0, 1.0], [0.0, 2.0], feature_index=1)
    assert m.predict([50.0, 3.0]) == pytest.approx(6.0)


@given(
    st.integers(0, 500),
    st.floats(min_value=0.1, max_value=10.0, allow_nan=False),
)
@settings(max_examples=25, deadline=None)
def test_linear_scale_covariance(seed, a):
    rng = np.random.default_rng(seed)
    x = rng.uniform(1, 5, 8)
    y = rng.uniform(1, 5, 8)
    base = fit_linear_one_feature(x, y)
    scaled = fit_linear_one_feature(a * x, y)
    if not base.is_constant:
        assert scaled.slope == pytest.approx(base.slope / a, rel=1e-9)


def test_linear_rejects_bad_input():
    with pytest.raises(ModelError):
        fit_linear_one_feature([], [])
    with pytest.raises(ModelError):
        fit_linear_one_feature([1.0, np.inf], [1.0, 2.0])


def test_linear_round_trip():
    m = fit_linear_one_feature([1.0, 2.0], [3.0, 5.0], feature_index=4)
    assert linear_from_dict(linear_to_dict(m)) == m
