import numpy as np
import pytest

import firepower as fp
from firepower.application import (
    INHERITED,
    RETRAINED,
    EffectiveHardwareModel,
    build_target_model,
    load_model,
    model_from_dict,
    model_to_dict,
    save_model,
    train_event_model,
)
from firepower.dataset import Dataset, design_matrix, few_shot_split
from firepower.errors import ValidationError
from firepower.harness import _method_predictions, choose_labeled_configs
from firepower.knowledge import RETRAIN
from firepower.metrics import mape
from firepower.trees import LinearModel, fit_linear_one_feature


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


def test_total_is_sum_of_components(target_model, kb0, small_hp):
    # The harness scores the per-sample sum, in table order, of the
    # scalar per-component predictions that CLI predict writes.
    model, train, test = target_model
    totals = _method_predictions("firepower", kb0, train, test, small_hp, False, {})
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
    flat = Dataset(
        architecture=tiny_dataset.architecture,
        configurations=tiny_dataset.configurations,
        samples=tuple(
            s
            for s in tiny_dataset.samples
            if s.workload == "w0"
        ),
        component_table=tiny_dataset.component_table,
        registry=tiny_dataset.registry,
    )
    x = [float(cfg.params["FetchWidth"]) for cfg in flat.configurations]
    y = [flat.samples_of(cfg.id)[0].component_power["Front"] for cfg in flat.configurations]
    j = comp.hw_params.index("FetchWidth")
    hw = EffectiveHardwareModel("Front", fit_linear_one_feature(x, y, feature_index=j))
    ev = train_event_model(flat, comp, hw, small_hp)
    preds = ev.predict_many(design_matrix(flat, comp))
    assert ((0.99 <= preds) & (preds <= 1.01)).all()


def test_epsilon_clamp():
    hw = EffectiveHardwareModel("X", fit_linear_one_feature([1.0, 2.0], [1.0, 0.0]))
    comp = fp.ComponentDef(name="X", hw_params=("FetchWidth",), important_param="FetchWidth")
    cfg = fp.Configuration(id="c", architecture="a", params={"FetchWidth": 50})
    assert hw.predict(comp, cfg, 1e-9) == 1e-9


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
