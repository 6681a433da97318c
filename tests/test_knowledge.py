import pytest

import firepower as fp
from firepower import knowledge
from firepower.dataset import Dataset
from firepower.errors import ValidationError
from firepower.knowledge import (
    NO_RETRAIN,
    RETRAIN,
    Strategy,
    extract_knowledge,
    knowledge_base_from_dict,
    knowledge_base_to_dict,
    load_knowledge_base,
    save_knowledge_base,
    select_strategy,
)


def test_strategy_validation():
    with pytest.raises(ValidationError):
        Strategy("sideways")
    with pytest.raises(ValidationError):
        Strategy(RETRAIN)  # retraining needs a parameter
    with pytest.raises(ValidationError):
        Strategy(NO_RETRAIN, "FetchWidth")


def test_select_strategy_strict_threshold():
    assert select_strategy({"a": 0.96, "b": 0.04}, 0.95) == Strategy(RETRAIN, "a")
    assert select_strategy({"a": 0.95, "b": 0.05}, 0.95) == Strategy(NO_RETRAIN)
    with pytest.raises(ValidationError):
        select_strategy({}, 0.95)


def test_select_strategy_tie_break_first_max():
    importance = {"x": 0.98, "y": 0.98, "z": 0.04}
    assert select_strategy(importance, 0.95).param == "x"


def test_extract_builds_entry_per_component(kb0, synth_pair):
    ds_known, _, _ = synth_pair
    assert set(kb0.per_component) == {c.name for c in ds_known.component_table}
    assert len(kb0.per_component) == 22
    for name, ck in kb0.per_component.items():
        assert ck.component == name
        assert list(ck.importance) == list(ds_known.component(name).hw_params)
        assert abs(sum(ck.importance.values()) - 1.0) < 1e-12


def test_strategies_follow_dominance_pattern(kb0, synth_pair):
    ds_known, _, _ = synth_pair
    for comp in ds_known.component_table:
        strategy = kb0.per_component[comp.name].strategy
        if comp.important_param is not None:
            assert strategy == Strategy(RETRAIN, comp.important_param), comp.name
        else:
            assert strategy == Strategy(NO_RETRAIN), comp.name


def test_strategies_invariant_to_sample_order(synth_pair, small_hp, kb0):
    ds_known, _, _ = synth_pair
    shuffled = Dataset.of_samples(
        ds_known.architecture,
        ds_known.configurations,
        tuple(reversed(ds_known.samples)),
        ds_known.component_table,
        ds_known.registry,
    )
    kb2 = extract_knowledge(shuffled, small_hp)
    for name, ck in kb0.per_component.items():
        assert kb2.per_component[name].strategy == ck.strategy


def test_single_dominant_importance_exceeds_095(kb0, synth_pair):
    ds_known, _, _ = synth_pair
    for comp in ds_known.component_table:
        if comp.important_param is None:
            continue
        importance = kb0.per_component[comp.name].importance
        assert importance[comp.important_param] > 0.95, comp.name


def test_flat_component_inherits(kb0):
    # The one single-parameter component without a dominance flag has a
    # configuration-independent power profile; importance over a single
    # feature is trivially 1.0, so the flat-label guard must kick in.
    ck = kb0.per_component["I-TLB"]
    assert ck.strategy == Strategy(NO_RETRAIN)


def test_extract_needs_two_configs(tiny_dataset, small_hp):
    from firepower.dataset import few_shot_split

    train, _ = few_shot_split(tiny_dataset, ["C1"])
    with pytest.raises(ValidationError, match="need at least 2 configurations to train a hardware model"):
        extract_knowledge(train, small_hp)


def test_extract_rejects_empty_dataset(tiny_dataset, small_hp):
    empty = Dataset.of_samples(
        "Tiny",
        tiny_dataset.configurations,
        (),
        tiny_dataset.component_table,
        tiny_dataset.registry,
    )
    with pytest.raises(ValidationError):
        extract_knowledge(empty, small_hp)


def test_knowledge_base_round_trip(tmp_path, kb0):
    path = tmp_path / "kb.json"
    save_knowledge_base(kb0, path)
    again = load_knowledge_base(path)
    assert knowledge_base_to_dict(again) == knowledge_base_to_dict(kb0)
    assert again.threshold == kb0.threshold
    for name, ck in kb0.per_component.items():
        assert again.per_component[name].strategy == ck.strategy
        assert again.per_component[name].importance == ck.importance


def test_round_trip_preserves_dict_form(kb0):
    doc = knowledge_base_to_dict(kb0)
    assert knowledge_base_to_dict(knowledge_base_from_dict(doc)) == doc


def test_extract_averages_each_component_once(monkeypatch, synth_pair):
    ds_known, _, _ = synth_pair
    calls = []
    average = knowledge.average_power_per_config

    def counting(ds, name):
        calls.append(name)
        return average(ds, name)

    monkeypatch.setattr(knowledge, "average_power_per_config", counting)
    extract_knowledge(ds_known, fp.GbtHyperparams(n_estimators=1))
    assert calls == [c.name for c in ds_known.component_table]
    assert len(calls) == 22
