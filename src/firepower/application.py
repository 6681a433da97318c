"""Phase 2: build the target-architecture power model.

Per component the hardware model is either inherited from the knowledge
base (NoRetrain) or refit as a one-parameter linear model on the few
labeled target configurations (Retrain).  An event model is then trained
on ratio labels P_i / F_hw and the two are multiplied at prediction time.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

from . import trees
from .dataset import (
    ComponentDef,
    Configuration,
    Dataset,
    component_from_dict,
    component_to_dict,
    design_matrix,
    feature_row,
    read_json_file,
    schema_errors,
    write_text_atomic,
)
from .errors import SchemaError, ValidationError
from .knowledge import (
    RETRAIN,
    KnowledgeBase,
    hardware_training_matrix,
)
from .trees import GbtHyperparams, GbtModel, LinearModel

# Floor on hardware-model output, in mW, before ratio division.
DEFAULT_EPSILON = 1e-9

INHERITED = "inherited"
RETRAINED = "retrained"


@dataclass
class EffectiveHardwareModel:
    component: str
    variant: str  # INHERITED or RETRAINED
    gbt: GbtModel | None = None
    linear: LinearModel | None = None
    important_param: str | None = None

    def predict(self, comp: ComponentDef, config: Configuration, epsilon: float) -> float:
        for p in comp.hw_params:
            if p not in config.params:
                raise ValidationError(f"configuration {config.id!r} lacks parameter {p!r}")
        if self.variant == INHERITED:
            raw = self.gbt.predict([float(config.params[p]) for p in comp.hw_params])
        else:
            raw = self.linear.predict(config.params[self.important_param])
        return max(raw, epsilon)


@dataclass
class EventModel:
    component: str
    model: GbtModel

    def predict(self, comp: ComponentDef, config: Configuration, event_stats: dict) -> float:
        return self.model.predict(feature_row(comp, config, event_stats))


@dataclass
class FirePowerModel:
    target_architecture: str
    per_component: dict[str, tuple[EffectiveHardwareModel, EventModel]]
    component_table: tuple[ComponentDef, ...]
    epsilon: float = DEFAULT_EPSILON

    def _component(self, name: str) -> ComponentDef:
        for comp in self.component_table:
            if comp.name == name:
                return comp
        raise ValidationError(f"unknown component {name!r}")

    def predict_component_power(
        self, comp_name: str, config: Configuration, event_stats: dict
    ) -> float:
        comp = self._component(comp_name)
        hw, ev = self.per_component[comp_name]
        return hw.predict(comp, config, self.epsilon) * ev.predict(comp, config, event_stats)

    def predict_total_power(self, config: Configuration, event_stats: dict) -> float:
        return sum(
            self.predict_component_power(comp.name, config, event_stats)
            for comp in self.component_table
        )


def retrain_hardware_model(
    ds_target_train: Dataset, comp: ComponentDef, important_param: str
) -> LinearModel:
    if important_param not in comp.hw_params:
        raise ValidationError(
            f"parameter {important_param!r} is not part of component {comp.name!r}"
        )
    if not ds_target_train.configurations:
        raise ValidationError("no target configurations to retrain on")
    _, y = hardware_training_matrix(ds_target_train, comp)
    x = np.array(
        [float(cfg.params[important_param]) for cfg in ds_target_train.configurations]
    )
    return trees.fit_linear_one_feature(x, y, feature_index=comp.hw_params.index(important_param))


def train_event_model(
    ds_target_train: Dataset,
    comp: ComponentDef,
    hw: EffectiveHardwareModel,
    hp: GbtHyperparams,
    epsilon: float = DEFAULT_EPSILON,
) -> EventModel:
    if not ds_target_train.samples:
        raise ValidationError("no training samples for the event model")
    # The hardware factor depends on the configuration alone.
    hw_by_config = {
        cfg.id: hw.predict(comp, cfg, epsilon) for cfg in ds_target_train.configurations
    }
    labels = []
    for sample in ds_target_train.samples:
        if comp.name not in sample.component_power:
            raise ValidationError(
                f"sample ({sample.config_id}, {sample.workload}) "
                f"lacks a label for {comp.name!r}"
            )
        labels.append(sample.component_power[comp.name] / hw_by_config[sample.config_id])
    X = design_matrix(ds_target_train, comp)
    return EventModel(component=comp.name, model=trees.fit_gbt(X, np.array(labels), hp))


def build_target_model(
    kb: KnowledgeBase,
    ds_target_train: Dataset,
    hp: GbtHyperparams | None = None,
    epsilon: float = DEFAULT_EPSILON,
    force_no_retrain: bool = False,
) -> FirePowerModel:
    hp = hp or GbtHyperparams()
    kb_names = [c.name for c in kb.component_table]
    ds_names = [c.name for c in ds_target_train.component_table]
    if kb_names != ds_names:
        raise ValidationError(
            "knowledge base and target dataset disagree on the component table"
        )
    per_component: dict[str, tuple[EffectiveHardwareModel, EventModel]] = {}
    for comp in ds_target_train.component_table:
        ck = kb.per_component[comp.name]
        retrain = ck.strategy.kind == RETRAIN and not force_no_retrain
        if retrain:
            # A slope cannot be learned when the labeled configurations all
            # share the important-parameter value; inherit instead.
            values = {cfg.params[ck.strategy.param] for cfg in ds_target_train.configurations}
            retrain = len(values) > 1
        if retrain:
            linear = retrain_hardware_model(ds_target_train, comp, ck.strategy.param)
            hw = EffectiveHardwareModel(
                component=comp.name,
                variant=RETRAINED,
                linear=linear,
                important_param=ck.strategy.param,
            )
        else:
            hw = EffectiveHardwareModel(
                component=comp.name, variant=INHERITED, gbt=ck.hardware_model
            )
        ev = train_event_model(ds_target_train, comp, hw, hp, epsilon)
        per_component[comp.name] = (hw, ev)
    return FirePowerModel(
        target_architecture=ds_target_train.architecture,
        per_component=per_component,
        component_table=ds_target_train.component_table,
        epsilon=epsilon,
    )


# --- serialization ----------------------------------------------------------


def model_to_dict(m: FirePowerModel) -> dict:
    return {
        "target_architecture": m.target_architecture,
        "epsilon": m.epsilon,
        "component_table": [component_to_dict(c) for c in m.component_table],
        "per_component": {
            name: {
                "hw": {
                    "variant": hw.variant,
                    "gbt": trees.gbt_to_dict(hw.gbt) if hw.gbt is not None else None,
                    "linear": trees.linear_to_dict(hw.linear) if hw.linear is not None else None,
                    "important_param": hw.important_param,
                },
                "event": trees.gbt_to_dict(ev.model),
            }
            for name, (hw, ev) in m.per_component.items()
        },
    }


@schema_errors("model")
def model_from_dict(doc: dict) -> FirePowerModel:
    per_component = {}
    for name, entry in doc["per_component"].items():
        hw_doc = entry["hw"]
        variant = hw_doc["variant"]
        if variant == INHERITED:
            hw = EffectiveHardwareModel(name, variant, gbt=trees.gbt_from_dict(hw_doc["gbt"]))
        elif variant == RETRAINED:
            hw = EffectiveHardwareModel(
                name,
                variant,
                linear=trees.linear_from_dict(hw_doc["linear"]),
                important_param=hw_doc["important_param"],
            )
        else:
            raise SchemaError(f"model: component {name!r} has unknown hw variant {variant!r}")
        ev = EventModel(component=name, model=trees.gbt_from_dict(entry["event"]))
        per_component[name] = (hw, ev)
    return FirePowerModel(
        target_architecture=doc["target_architecture"],
        per_component=per_component,
        component_table=tuple(component_from_dict(c) for c in doc["component_table"]),
        epsilon=doc["epsilon"],
    )


def save_model(m: FirePowerModel, path: str | os.PathLike):
    write_text_atomic(path, json.dumps(model_to_dict(m)) + "\n")


def load_model(path: str | os.PathLike) -> FirePowerModel:
    return model_from_dict(read_json_file(path, "model"))
