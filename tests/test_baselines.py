import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from firepower.application import INHERITED, build_target_model
from firepower.baselines import (
    FIREPOWER_METHODS,
    MCPAT_CALIB_METHODS,
    METHOD_KEYS,
    TRANSFER_EPSILON,
    TransferWrapper,
    core_component,
    train_monolithic,
    train_monolithic_per_component,
)
from firepower.dataset import component_labels, dataset_from_dict, design_matrix, feature_row, few_shot_split
from firepower.errors import ModelError
from firepower.harness import _method_predictions, choose_labeled_configs
from firepower.trees import GbtHyperparams, fit_gbt, gbt_to_dict

from conftest import tiny_doc


def test_method_keys():
    assert METHOD_KEYS == (
        "mcpat_calib",
        "mcpat_calib_component",
        "mcpat_calib_transfer",
        "mcpat_calib_component_transfer",
        "firepower_no_retrain",
        "firepower",
    )
    # Every method is either McPAT-Calib or FirePower, never both.
    assert set(MCPAT_CALIB_METHODS).isdisjoint(FIREPOWER_METHODS)
    assert set(MCPAT_CALIB_METHODS) | set(FIREPOWER_METHODS) == set(METHOD_KEYS)


def test_event_names_follow_component_table(tiny_dataset):
    core = core_component(tiny_dataset)
    assert core.hw_params == tiny_dataset.registry.canonical
    assert core.event_stats == ("front_act", "core_act")


def test_core_events_of_a_ragged_split():
    # With no event statistics in the table, the core reads every event that
    # some sample carries.  A split side keeps its parent's columns, so an
    # event that only C1's samples carry is an empty column of the other side.
    doc = tiny_doc()
    for comp in doc["component_table"]:
        comp["event_stats"] = []
    for s in doc["samples"]:
        if s["config_id"] == "C1":
            s["event_stats"] = {"c1_act": 0.5, **s["event_stats"]}
    ds = dataset_from_dict(doc)
    sides = [ds, *few_shot_split(ds, ["C1"]), *few_shot_split(ds, ["C2"])]
    for side in sides:
        union = tuple(sorted({name for s in side.samples for name in s.event_stats}))
        assert core_component(side).event_stats == union
    assert [len(core_component(side).event_stats) for side in sides] == [3, 3, 2, 2, 3]


def test_sample_features_layout(tiny_dataset):
    # The monolithic baseline's rows: 14 canonical parameters, then events.
    X = design_matrix(tiny_dataset, core_component(tiny_dataset))
    assert X.shape == (len(tiny_dataset.samples), 14 + 2)
    sample = tiny_dataset.samples[0]
    cfg = tiny_dataset.config(sample.config_id)
    assert list(X[0, :14]) == [float(cfg.params[p]) for p in tiny_dataset.registry.canonical]
    assert list(X[0, 14:]) == [1.0, 2.0]


def test_monolithic_fits_training_data(tiny_dataset, small_hp):
    # One part: the whole core, on the total power.
    ((core, model),) = train_monolithic(tiny_dataset, hp=GbtHyperparams())
    assert core == core_component(tiny_dataset)
    preds = model.predict_many(design_matrix(tiny_dataset, core))
    labels = [s.total_power for s in tiny_dataset.samples]
    assert float(np.abs(preds - labels).mean()) < 0.5
    alone = fit_gbt(design_matrix(tiny_dataset, core), np.array(labels), GbtHyperparams())
    assert json.dumps(gbt_to_dict(model)) == json.dumps(gbt_to_dict(alone))


def test_per_component_batch_equals_separate_fits(synth_pair, small_hp):
    # The 22 models grow as one batch; each must be the model its own
    # fit_gbt call grows, bit for bit.
    ds_known, _, _ = synth_pair
    models = train_monolithic_per_component(ds_known, small_hp)
    assert [comp for comp, _ in models] == list(ds_known.component_table)
    assert len(models) == 22
    for comp, model in models:
        alone = fit_gbt(
            design_matrix(ds_known, comp),
            component_labels(ds_known, comp.name),
            small_hp,
        )
        assert json.dumps(gbt_to_dict(model)) == json.dumps(gbt_to_dict(alone))
        assert repr(model.training_sse) == repr(alone.training_sse)


def _part_labels(ds, comp, per_component):
    if per_component:
        return component_labels(ds, comp.name)
    return [s.total_power for s in ds.samples]


def test_per_component_total_additivity(synth_pair, small_hp):
    # The harness scores every McPAT-Calib method as the sum of its parts'
    # predictions over each part's design matrix; every total must equal
    # the left-to-right sum of that sample's scalar part predictions.
    ds_known, ds_target, _ = synth_pair
    train, test = few_shot_split(ds_target, choose_labeled_configs(ds_target, 2, 0))
    # The per-component source lists its parts in reverse table order, so a
    # transfer that paired them with train's labels by position would fail.
    sources = {
        False: train_monolithic(ds_known, small_hp),
        True: train_monolithic_per_component(ds_known, small_hp)[::-1],
    }
    assert [c.name for c, _ in sources[False]] == ["core"]
    assert [c.name for c, _ in sources[True]] == [c.name for c in train.component_table][::-1]
    for method, (per_component, transfer) in MCPAT_CALIB_METHODS.items():
        totals = _method_predictions(method, train, test, small_hp, sources)
        if transfer:
            parts = []
            for c, m in sources[per_component]:
                labels = _part_labels(train, c, per_component)
                parts.append((c, TransferWrapper.build(m.predict_many, design_matrix(train, c), labels)))
            predict = lambda part, row: part.predict_many(np.array([row]))[0]  # noqa: E731
        else:
            trainer = train_monolithic_per_component if per_component else train_monolithic
            parts = trainer(train, small_hp)
            predict = lambda part, row: part.predict(row)  # noqa: E731
        assert len(totals) == len(test.samples)
        for total, sample in zip(totals, test.samples):
            cfg = test.config(sample.config_id)
            acc = 0.0
            for c, part in parts:
                acc += predict(part, feature_row(c, cfg, sample.event_stats))
            assert total == acc, method


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
