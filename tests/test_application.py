import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import firepower as fp
from firepower.application import (
    DEFAULT_EPSILON,
    INHERITED,
    RETRAINED,
    EffectiveHardwareModel,
    build_target_model,
    build_target_models,
    load_model,
    model_from_dict,
    model_to_dict,
    save_model,
    train_event_model,
)
from firepower.dataset import Dataset, dataset_from_dict, design_matrix, few_shot_split
from firepower.errors import ValidationError
from firepower import harness, trees
from firepower.harness import _method_predictions, choose_labeled_configs
from firepower.knowledge import RETRAIN
from firepower.metrics import mape
from firepower.trees import GbtHyperparams, LinearModel, fit_gbt, fit_linear_one_feature, gbt_to_dict

from conftest import tiny_doc, with_samples


@pytest.fixture(scope="module")
def target_model(kb0, synth_pair, small_hp):
    _, ds_target, _ = synth_pair
    labeled = choose_labeled_configs(ds_target, 4, 0)
    train, test = few_shot_split(ds_target, labeled)
    return build_target_model(kb0, train, small_hp), train, test


def test_strategies_map_to_variants(target_model, kb0):
    model, _, _ = target_model
    for comp in model.component_table:
        hw, _ = model.per_component[comp.name]
        strategy = kb0.per_component[comp.name].strategy
        if strategy.kind == RETRAIN:
            assert hw.variant == RETRAINED
            assert isinstance(hw.model, LinearModel)
            assert comp.hw_params[hw.model.feature_index] == strategy.param
        else:
            assert hw.variant == INHERITED
            assert hw.model is kb0.per_component[comp.name].hardware_model


def test_total_is_sum_of_components(target_model, small_hp):
    # The harness scores the per-sample sum, in table order, of the
    # scalar per-component predictions that CLI predict writes.
    model, train, test = target_model
    totals = _method_predictions("firepower", train, test, small_hp, {}, model)
    for sample, total in zip(test.samples[:10], totals):
        cfg = test.config(sample.config_id)
        parts = 0.0
        for c in model.component_table:
            parts += model.predict_component_power(c, cfg, sample.event_stats)
        assert total == parts


def test_predictions_nonnegative(target_model):
    model, _, test = target_model
    for sample in test.samples:
        cfg = test.config(sample.config_id)
        for comp in model.component_table:
            assert model.predict_component_power(comp, cfg, sample.event_stats) >= 0.0
    assert (model.predict_components(test) >= 0.0).all()


def test_build_is_deterministic(kb0, synth_pair, small_hp):
    _, ds_target, _ = synth_pair
    train, _ = few_shot_split(ds_target, choose_labeled_configs(ds_target, 3, 1))
    a = build_target_model(kb0, train, small_hp)
    b = build_target_model(kb0, train, small_hp)
    assert model_to_dict(a) == model_to_dict(b)


def test_force_no_retrain(kb0, synth_pair, small_hp):
    _, ds_target, _ = synth_pair
    train, _ = few_shot_split(ds_target, choose_labeled_configs(ds_target, 3, 0))
    model = build_target_model(kb0, train, small_hp, force_no_retrain=True)
    assert all(hw.variant == INHERITED for hw, _ in model.per_component.values())


def test_retrain_falls_back_without_parameter_spread(kb0, synth_pair, small_hp):
    _, ds_target, _ = synth_pair
    # Find a labeled pair sharing a dominant parameter's value; those
    # components cannot support a slope fit and must inherit.
    ids = ds_target.config_ids()
    found = None
    for i in range(len(ids)):
        for j in range(i + 1, len(ids)):
            a, b = ds_target.config(ids[i]), ds_target.config(ids[j])
            shared = [
                c.name
                for c in ds_target.component_table
                if c.important_param and a.params[c.important_param] == b.params[c.important_param]
            ]
            if shared:
                found = ([ids[i], ids[j]], shared)
                break
        if found:
            break
    assert found is not None
    labeled, shared = found
    train, _ = few_shot_split(ds_target, labeled)
    model = build_target_model(kb0, train, small_hp)
    for name in shared:
        hw, _ = model.per_component[name]
        assert hw.variant == INHERITED


def test_event_ratio_contract(tiny_dataset, small_hp):
    # When the hardware model reproduces per-sample power exactly, the
    # ratio labels are all 1 and the event model must stay within 1%.
    comp = tiny_dataset.component("Front")
    flat = Dataset.of_samples(
        tiny_dataset.architecture,
        tiny_dataset.configurations,
        tuple(
            s
            for s in tiny_dataset.samples
            if s.workload == "w0"
        ),
        tiny_dataset.component_table,
        tiny_dataset.registry,
    )
    x = [float(cfg.params["FetchWidth"]) for cfg in flat.configurations]
    y = [
        [s for s in flat.samples if s.config_id == cfg.id][0].component_power["Front"]
        for cfg in flat.configurations
    ]
    j = comp.hw_params.index("FetchWidth")
    hw = EffectiveHardwareModel(comp.hw_params, fit_linear_one_feature(x, y, feature_index=j))
    ev = train_event_model(flat, comp, hw, small_hp)
    preds = ev.predict_many(design_matrix(flat, comp))
    assert ((0.99 <= preds) & (preds <= 1.01)).all()


def test_epsilon_clamp():
    hw = EffectiveHardwareModel(("FetchWidth",), fit_linear_one_feature([1.0, 2.0], [1.0, 0.0]))
    cfg = fp.Configuration(id="c", architecture="a", params={"FetchWidth": 50})
    assert hw.predict(cfg) == DEFAULT_EPSILON == 1e-9


_GRID = np.array([[a, b] for a in range(1, 7) for b in range(1, 7)], dtype=float)
_HW_MODELS = {
    # Both take negative values on part of the grid, so the clamp matters.
    "gbt": fit_gbt(_GRID, 3.0 * _GRID[:, 0] - 2.0 * _GRID[:, 1], GbtHyperparams(n_estimators=10)),
    "linear": LinearModel(feature_index=1, slope=-0.7, intercept=2.0),
}


@given(
    kind=st.sampled_from(sorted(_HW_MODELS)),
    calls=st.lists(st.tuples(st.integers(1, 6), st.integers(1, 6)), min_size=1, max_size=30),
)
@settings(max_examples=60, deadline=None)
def test_memoised_hardware_factor_is_the_clamped_model_output(kind, calls):
    # Rows repeat and differ: the memo keeps the unclamped output and
    # clamps on every call.
    model = _HW_MODELS[kind]
    hw = EffectiveHardwareModel(("FetchWidth", "DecodeWidth"), model)
    for i, (a, b) in enumerate(calls):
        cfg = fp.Configuration(id=f"C{i}", architecture="a", params={"FetchWidth": a, "DecodeWidth": b})
        want = max(model.predict([float(a), float(b)]), DEFAULT_EPSILON)
        assert repr(hw.predict(cfg)) == repr(want)


def test_hardware_factor_follows_parameters_not_ids(tiny_dataset):
    # Two datasets name a configuration alike with different parameters;
    # one model scoring both must use each one's own H_i row.
    doc = tiny_doc()
    doc["configurations"][0]["params"]["FetchWidth"] = 2
    other = dataset_from_dict(doc)
    comp = tiny_dataset.component("Front")
    model = _HW_MODELS["gbt"]
    hw = EffectiveHardwareModel(comp.hw_params, model)
    for ds in (tiny_dataset, other, tiny_dataset):
        want = [
            max(model.predict([float(ds.config(s.config_id).params[p]) for p in comp.hw_params]), DEFAULT_EPSILON)
            for s in ds.samples
        ]
        assert hw.predict_samples(ds).tolist() == want
    assert hw.predict_samples(tiny_dataset)[0] != hw.predict_samples(other)[0]
    with pytest.raises(ValidationError):
        bare = fp.Configuration(id="C1", architecture="Tiny", params={"BranchCount": 8})
        hw.predict(bare)


def _demoting_pair(ds_target):
    """Two configurations that share some Retrain component's important
    value, so that labeling them demotes it."""
    ids = ds_target.config_ids()
    for i in range(len(ids)):
        for j in range(i + 1, len(ids)):
            a, b = ds_target.config(ids[i]), ds_target.config(ids[j])
            for c in ds_target.component_table:
                if c.important_param and a.params[c.important_param] == b.params[c.important_param]:
                    return [ids[i], ids[j]]
    raise AssertionError("no pair shares an important value")


@pytest.mark.parametrize("draw", ["random", "demoting"])
def test_variants_of_a_cell_share_inherited_event_fits(kb0, synth_pair, small_hp, draw):
    _, ds_target, _ = synth_pair
    if draw == "random":
        labeled = choose_labeled_configs(ds_target, 3, 0)
    else:
        labeled = _demoting_pair(ds_target)
    train, _ = few_shot_split(ds_target, labeled)
    full, ablation = build_target_models(kb0, train, small_hp, [False, True])
    shared = retrained = 0
    for comp in train.component_table:
        (hw_full, ev_full), (hw_abl, ev_abl) = full.per_component[comp.name], ablation.per_component[comp.name]
        assert hw_abl.model is kb0.per_component[comp.name].hardware_model
        if hw_full.model is hw_abl.model:  # inherited in both, demoted Retrains included
            assert ev_abl is ev_full
            shared += 1
        else:
            assert hw_full.variant == RETRAINED and ev_abl is not ev_full
            retrained += 1
    # Each variant is the model build_target_model fits on its own: every
    # event GBT's gbt_to_dict and hardware model, and the training SSEs.
    for model, flag in ((full, False), (ablation, True)):
        alone = build_target_model(kb0, train, small_hp, force_no_retrain=flag)
        assert json.dumps(model_to_dict(model)) == json.dumps(model_to_dict(alone))
        for name, (_, ev) in model.per_component.items():
            assert repr(ev.training_sse) == repr(alone.per_component[name][1].training_sse)
    retrain_kind = sum(ck.strategy.kind == RETRAIN for ck in kb0.per_component.values())
    assert shared > 0 and retrained > 0
    assert (retrained < retrain_kind) == (draw == "demoting")


def test_harness_grows_a_cells_firepower_family_in_one_batch(monkeypatch, kb0, synth_pair, small_hp):
    ds_known, ds_target, _ = synth_pair
    ks = [2, 3]
    n = len(ds_known.component_table)
    # extract_knowledge's single hardware fits, then per cell one batch of
    # both variants' distinct event fits: every component, plus each
    # Retrain refit that FirePower keeps.
    want = [1] * n
    for k in ks:
        train, _ = few_shot_split(ds_target, choose_labeled_configs(ds_target, k, 0))
        full = build_target_model(kb0, train, small_hp)
        want.append(n + sum(hw.variant == RETRAINED for hw, _ in full.per_component.values()))
    batches = []
    grow = trees.fit_gbt_many

    def recording_grow(Xs, ys, hp=None):
        batches.append(len(Xs))
        return grow(Xs, ys, hp)

    monkeypatch.setattr(trees, "fit_gbt_many", recording_grow)
    methods = ["firepower_no_retrain", "firepower"]
    harness.run_experiment(ds_known, ds_target, methods=methods, ks=ks, seeds=[0], hp=small_hp)
    assert batches == want
    assert all(size > n for size in want[n:])


def test_no_retrain_scale_compensation(small_hp):
    # A target that is an exact positive multiple of the known architecture:
    # inherited hardware models plus the event model absorb the ratio, so
    # held-out accuracy stays within 2 points of the same-scale case.
    import dataclasses

    spec = fp.default_spec(seed=5, proportional_only=True, noise_sigma=0.0)
    unit_spec = dataclasses.replace(
        spec,
        components=tuple(
            dataclasses.replace(g, arch_scale_target=g.arch_scale_known)
            for g in spec.components
        ),
    )

    def heldout_mape(s):
        ds_known, ds_target, _ = fp.generate_pair(s)
        kb = fp.extract_knowledge(ds_known, small_hp)
        labeled = choose_labeled_configs(ds_target, 4, 0)
        train, test = few_shot_split(ds_target, labeled)
        model = build_target_model(kb, train, small_hp, force_no_retrain=True)
        preds = model.predict_components(test).sum(axis=1)
        return mape(preds, [smp.total_power for smp in test.samples])

    assert abs(heldout_mape(spec) - heldout_mape(unit_spec)) < 2.0


def test_component_table_mismatch_rejected(kb0, tiny_dataset, small_hp):
    with pytest.raises(ValidationError):
        build_target_model(kb0, tiny_dataset, small_hp)


def test_model_round_trip(tmp_path, target_model):
    model, _, test = target_model
    path = tmp_path / "model.json"
    save_model(model, path)
    again = load_model(path)
    assert model_to_dict(again) == model_to_dict(model)
    assert np.array_equal(again.predict_components(test), model.predict_components(test))


def test_dict_round_trip(target_model):
    model, _, _ = target_model
    doc = model_to_dict(model)
    assert model_to_dict(model_from_dict(doc)) == doc


def test_a_sample_of_an_unknown_configuration_is_named(target_model):
    # Such a dataset is refused as it is built, before any hardware factor
    # or design matrix could read it.
    _, train, test = target_model
    for ds in (test, train):
        s = next(s for s in ds.samples if s.config_id == ds.configurations[0].id)
        with pytest.raises(ValidationError) as info:
            dataclasses.replace(ds, configurations=ds.configurations[1:])
        assert str(info.value) == f"sample ({s.config_id}, {s.workload}): unknown configuration id {s.config_id!r}"


def test_sampleless_dataset_predicts_an_empty_table(target_model):
    model, _, test = target_model
    empty = with_samples(test, ())
    comp = model.component_table[0]
    assert design_matrix(empty, comp).shape == (0, len(comp.hw_params) + len(comp.event_stats))
    assert model.predict_components(empty).shape == (0, len(model.component_table))
