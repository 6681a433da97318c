import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from firepower.errors import ModelError
from firepower.trees import (
    GbtHyperparams,
    feature_importance,
    fit_gbt,
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
    assert all(t.is_leaf for t in m.trees)


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


@given(st.integers(0, 500))
@settings(max_examples=20, deadline=None)
def test_predict_many_matches_predict(seed):
    X, y = random_problem(seed, n=15, d=3)
    m = fit_gbt(X, y, GbtHyperparams(n_estimators=8))
    batch = m.predict_many(X)
    single = np.array([m.predict(x) for x in X])
    assert np.array_equal(batch, single)


def test_predict_validates_feature_count():
    X, y = random_problem(1)
    m = fit_gbt(X, y, small_hp)
    with pytest.raises(ModelError):
        m.predict([1.0, 2.0])


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
