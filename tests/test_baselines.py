import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from firepower.application import INHERITED, build_target_model
from firepower.baselines import (
    METHOD_KEYS,
    TRANSFER_EPSILON,
    TransferWrapper,
    core_component,
    train_monolithic,
    train_monolithic_per_component,
)
from firepower.dataset import component_labels, design_matrix, feature_row
from firepower.errors import ModelError
from firepower.harness import _method_predictions
from firepower.trees import GbtHyperparams, fit_gbt, gbt_to_dict


def test_method_keys():
    assert METHOD_KEYS == (
        "mcpat_calib",
        "mcpat_calib_component",
        "mcpat_calib_transfer",
        "mcpat_calib_component_transfer",
        "firepower_no_retrain",
        "firepower",
    )


def test_event_names_follow_component_table(tiny_dataset):
    core = core_component(tiny_dataset)
    assert core.hw_params == tiny_dataset.registry.canonical
    assert core.event_stats == ("front_act", "core_act")


def test_sample_features_layout(tiny_dataset):
    # The monolithic baseline's rows: 14 canonical parameters, then events.
    X = design_matrix(tiny_dataset, core_component(tiny_dataset))
    assert X.shape == (len(tiny_dataset.samples), 14 + 2)
    sample = tiny_dataset.samples[0]
    cfg = tiny_dataset.config(sample.config_id)
    assert list(X[0, :14]) == [float(cfg.params[p]) for p in tiny_dataset.registry.canonical]
    assert list(X[0, 14:]) == [1.0, 2.0]


def test_monolithic_fits_training_data(tiny_dataset, small_hp):
    model = train_monolithic(tiny_dataset, hp=GbtHyperparams())
    assert model.core == core_component(tiny_dataset)
    preds = model.model.predict_many(design_matrix(tiny_dataset, model.core))
    labels = [s.total_power for s in tiny_dataset.samples]
    assert float(np.abs(preds - labels).mean()) < 0.5


def test_per_component_batch_equals_separate_fits(synth_pair, small_hp):
    # The 22 models grow as one batch; each must be the model its own
    # fit_gbt call grows, bit for bit.
    ds_known, _, _ = synth_pair
    models = train_monolithic_per_component(ds_known, small_hp)
    assert list(models) == [c.name for c in ds_known.component_table]
    assert len(models) == 22
    for comp in ds_known.component_table:
        alone = fit_gbt(
            design_matrix(ds_known, comp),
            component_labels(ds_known, comp.name),
            small_hp,
        )
        assert json.dumps(gbt_to_dict(models[comp.name])) == json.dumps(gbt_to_dict(alone))
        assert repr(models[comp.name].training_sse) == repr(alone.training_sse)


def test_per_component_total_additivity(tiny_dataset, small_hp):
    # The harness scores this baseline as the sum of the per-component
    # models over each component's design matrix; every total must equal
    # the sum of that sample's scalar component predictions.
    models = train_monolithic_per_component(tiny_dataset, small_hp)
    assert set(models) == {"Front", "Core", "Other Logic"}
    totals = _method_predictions("mcpat_calib_component", tiny_dataset, tiny_dataset, small_hp, {})
    for total, sample in zip(totals, tiny_dataset.samples):
        cfg = tiny_dataset.config(sample.config_id)
        parts = sum(
            models[c.name].predict(feature_row(c, cfg, sample.event_stats))
            for c in tiny_dataset.component_table
        )
        assert total == parts


def test_transfer_formula_hand_case():
    # Source model: f(x) = 2x. Pool holds one labeled point (x=1, L=10);
    # predicting at x=3 must give (f(3)/f(1)) * 10 = 30.
    source = lambda X: 2.0 * X[:, 0]  # noqa: E731
    w = TransferWrapper.build(source, [[1.0], [4.0]], [10.0, 40.0])
    assert w.predict_many([[3.0]])[0] == pytest.approx((6.0 / 2.0) * 10.0, abs=1e-12)


def test_transfer_exact_on_pool_members():
    source = lambda X: X[:, 0] ** 2 + 1.0  # noqa: E731
    pool = [[1.0, 2.0], [3.0, 5.0]]
    labels = [7.0, 11.0]
    w = TransferWrapper.build(source, pool, labels)
    assert list(w.predict_many(pool)) == [7.0, 11.0]


def test_transfer_nearest_neighbor_standardized():
    # Feature 1 has a huge raw scale; z-scoring keeps feature 0 relevant.
    source = lambda X: np.ones(len(X))  # noqa: E731
    pool = [[0.0, 0.0], [1.0, 1000.0]]
    w = TransferWrapper.build(source, pool, [5.0, 9.0])
    # With a source of ones each prediction is its nearest pool row's label.
    assert list(w.predict_many([[0.1, 950.0], [0.1, 100.0]])) == [9.0, 5.0]


def test_transfer_drops_zero_variance_features():
    source = lambda X: np.ones(len(X))  # noqa: E731
    pool = [[1.0, 7.0], [2.0, 7.0]]  # second feature is constant in the pool
    w = TransferWrapper.build(source, pool, [1.0, 2.0])
    assert list(w.keep) == [True, False]
    assert list(w.predict_many([[1.1, -999.0]])) == [1.0]


def test_transfer_tie_breaks_to_earliest_pool_index():
    source = lambda X: np.ones(len(X))  # noqa: E731
    pool = [[1.0], [3.0]]
    w = TransferWrapper.build(source, pool, [10.0, 30.0])
    assert list(w.predict_many([[2.0]])) == [10.0]



def _reference_transfer(w, X):
    """The per-row loop that predict_many's batched step replaced."""
    preds, p_t, k = [], w.source_many(X), w.keep
    for i, x in enumerate(X):
        j = 0
        if k.any():
            z = (x[k] - w.mean[k]) / w.std[k]
            zp = (w.pool_features[:, k] - w.mean[k]) / w.std[k]
            j = int(np.argmin(np.sqrt(((zp - z) ** 2).sum(axis=1))))
        label = float(w.pool_labels[j])
        if np.array_equal(x, w.pool_features[j]):
            preds.append(label)
        else:
            preds.append(p_t[i] / max(w.pool_source_preds[j], TRANSFER_EPSILON) * label)
    return np.array(preds)


@given(
    m=st.integers(1, 6), d=st.integers(1, 20), n=st.integers(0, 12), seed=st.integers(0, 2**32 - 1)
)
@settings(max_examples=80, deadline=None)
def test_transfer_batch_matches_the_row_loop(m, d, n, seed):
    # Small integer grids give ties, constant pool columns, pool members
    # among the queries and source predictions at or below 0.
    rng = np.random.default_rng(seed)
    pool = rng.integers(0, 3, size=(m, d)).astype(float)
    X = np.vstack([pool, rng.integers(0, 4, size=(n, d))]).astype(float)
    w = TransferWrapper.build(lambda A: A.sum(axis=1) - 2.0, pool, rng.uniform(1.0, 9.0, m))
    assert w.predict_many(X).tobytes() == _reference_transfer(w, X).tobytes()

def test_transfer_rejects_empty_pool():
    with pytest.raises(ModelError):
        TransferWrapper.build(lambda X: np.ones(len(X)), np.empty((0, 2)), np.empty(0))


def test_no_retrain_wrapper(kb0, synth_pair, small_hp):
    _, ds_target, _ = synth_pair
    from firepower.dataset import few_shot_split
    from firepower.harness import choose_labeled_configs

    train, _ = few_shot_split(ds_target, choose_labeled_configs(ds_target, 2, 0))
    model = build_target_model(kb0, train, small_hp, force_no_retrain=True)
    assert all(hw.variant == INHERITED for hw, _ in model.per_component.values())
