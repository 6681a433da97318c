"""Phase 2: build the target-architecture power model.

Per component the hardware model is either inherited from the knowledge
base (NoRetrain) or refit as a one-parameter linear model on the few
labeled target configurations (Retrain).  An event model is then trained
on ratio labels P_i / F_hw and the two are multiplied at prediction time.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

from . import trees
from .dataset import (
    ComponentDef,
    Configuration,
    Dataset,
    component_from_dict,
    component_labels,
    component_to_dict,
    design_matrix,
    feature_row,
    hw_row,
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

# Floor on hardware-model output, in mW, before ratio division.  Event GBTs
# are fit on ratios clamped here, so predictions clamp here too, and a model
# file's "epsilon" must name this value.
DEFAULT_EPSILON = 1e-9

INHERITED = "inherited"
RETRAINED = "retrained"


@dataclass
class EffectiveHardwareModel:
    """F_hw for one component: the inherited GBT over H_i, or a retrained
    one-parameter linear model reading H_i[feature_index]."""

    hw_params: tuple[str, ...]  # the component's H_i names, in row order
    model: GbtModel | LinearModel
    # The unclamped output per H_i row: the factor depends on the row alone,
    # and every sample of a configuration shares its row.
    _factors: dict[tuple[float, ...], float] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    @property
    def variant(self) -> str:
        return RETRAINED if isinstance(self.model, LinearModel) else INHERITED

    def predict(self, config: Configuration) -> float:
        """F_hw(H_i) of config, clamped at DEFAULT_EPSILON."""
        row = tuple(hw_row(self.hw_params, config))
        raw = self._factors.get(row)
        if raw is None:
            raw = self._factors[row] = self.model.predict(row)
        return max(raw, DEFAULT_EPSILON)

    def predict_samples(self, ds: Dataset) -> np.ndarray:
        """The clamped factor of each sample of ds, in sample order."""
        # The hardware factor depends on the configuration alone.
        by_config = {cfg.id: self.predict(cfg) for cfg in ds.configurations}
        return np.array([by_config[s.config_id] for s in ds.samples])


@dataclass
class FirePowerModel:
    """Per component, P_i = F_hw(H_i) * event GBT(H_i, E_i)."""

    target_architecture: str
    per_component: dict[str, tuple[EffectiveHardwareModel, GbtModel]]
    component_table: tuple[ComponentDef, ...]

    def predict_component_power(
        self, comp: ComponentDef, config: Configuration, event_stats: dict
    ) -> float:
        hw, event = self.per_component[comp.name]
        return hw.predict(config) * event.predict(feature_row(comp, config, event_stats))

    def predict_components(self, ds: Dataset) -> np.ndarray:
        """(n_samples, n_components) predictions, columns in table order;
        each entry equals predict_component_power on that sample."""
        out = np.empty((len(ds.samples), len(self.component_table)))
        for j, comp in enumerate(self.component_table):
            hw, event = self.per_component[comp.name]
            out[:, j] = hw.predict_samples(ds) * event.predict_many(design_matrix(ds, comp))
        return out


def retrain_hardware_model(
    ds_target_train: Dataset, comp: ComponentDef, important_param: str
) -> LinearModel:
    if important_param not in comp.hw_params:
        raise ValidationError(
            f"parameter {important_param!r} is not part of component {comp.name!r}"
        )
    if not ds_target_train.configurations:
        raise ValidationError("no target configurations to retrain on")
    X, y = hardware_training_matrix(ds_target_train, comp)
    j = comp.hw_params.index(important_param)
    return trees.fit_linear_one_feature(X[:, j], y, feature_index=j)


def train_event_model(
    ds_target_train: Dataset,
    comp: ComponentDef,
    hw: EffectiveHardwareModel,
    hp: GbtHyperparams,
) -> GbtModel:
    """Fit the event GBT on the ratio labels P_i / F_hw."""
    if not ds_target_train.samples:
        raise ValidationError("no training samples for the event model")
    factors = hw.predict_samples(ds_target_train)
    power = np.array(component_labels(ds_target_train.samples, comp.name))
    return trees.fit_gbt(design_matrix(ds_target_train, comp), power / factors, hp)


def build_target_model(
    kb: KnowledgeBase,
    ds_target_train: Dataset,
    hp: GbtHyperparams | None = None,
    force_no_retrain: bool = False,
    *,
    reuse_from: FirePowerModel | None = None,
) -> FirePowerModel:
    """The target model; with ``reuse_from``, a model built from the same
    kb and ds_target_train, each component whose hardware model is the same
    kb model object (and whose event hyperparameters equal hp) takes
    reuse_from's event GBT instead of fitting the identical one again."""
    hp = hp or GbtHyperparams()
    kb_names = [c.name for c in kb.component_table]
    ds_names = [c.name for c in ds_target_train.component_table]
    if kb_names != ds_names:
        raise ValidationError(
            "knowledge base and target dataset disagree on the component table"
        )
    per_component: dict[str, tuple[EffectiveHardwareModel, GbtModel]] = {}
    for comp in ds_target_train.component_table:
        ck = kb.per_component[comp.name]
        hw_model = ck.hardware_model
        if ck.strategy.kind == RETRAIN and not force_no_retrain:
            retrained = retrain_hardware_model(ds_target_train, comp, ck.strategy.param)
            # The fit is constant exactly when the labeled configurations all
            # share the important parameter's value: no slope, so inherit.
            if not retrained.is_constant:
                hw_model = retrained
        hw = EffectiveHardwareModel(comp.hw_params, hw_model)
        shared = reuse_from.per_component.get(comp.name) if reuse_from else None
        if shared and shared[0].model is hw_model and shared[1].hyperparams == hp:
            event = shared[1]
        else:
            event = train_event_model(ds_target_train, comp, hw, hp)
        per_component[comp.name] = (hw, event)
    return FirePowerModel(
        target_architecture=ds_target_train.architecture,
        per_component=per_component,
        component_table=ds_target_train.component_table,
    )


# --- serialization ----------------------------------------------------------


def _hw_to_dict(hw: EffectiveHardwareModel, comp: ComponentDef) -> dict:
    if hw.variant == RETRAINED:
        return {
            "variant": RETRAINED,
            "gbt": None,
            "linear": trees.linear_to_dict(hw.model),
            "important_param": comp.hw_params[hw.model.feature_index],
        }
    return {
        "variant": INHERITED,
        "gbt": trees.gbt_to_dict(hw.model),
        "linear": None,
        "important_param": None,
    }


def _hw_from_dict(doc: dict, comp: ComponentDef) -> EffectiveHardwareModel:
    variant = doc["variant"]
    if variant == INHERITED:
        return EffectiveHardwareModel(comp.hw_params, trees.gbt_from_dict(doc["gbt"]))
    if variant != RETRAINED:
        raise SchemaError(f"model: component {comp.name!r} has unknown hw variant {variant!r}")
    linear = trees.linear_from_dict(doc["linear"])
    j = linear.feature_index
    if not (0 <= j < len(comp.hw_params) and comp.hw_params[j] == doc["important_param"]):
        raise SchemaError(
            f"model: component {comp.name!r} retrained hw model reads feature {j!r}, "
            f"not its important parameter {doc['important_param']!r} among {comp.hw_params}"
        )
    return EffectiveHardwareModel(comp.hw_params, linear)


def model_to_dict(m: FirePowerModel) -> dict:
    return {
        "target_architecture": m.target_architecture,
        "epsilon": DEFAULT_EPSILON,
        "component_table": [component_to_dict(c) for c in m.component_table],
        "per_component": {
            comp.name: {
                "hw": _hw_to_dict(m.per_component[comp.name][0], comp),
                "event": trees.gbt_to_dict(m.per_component[comp.name][1]),
            }
            for comp in m.component_table
        },
    }


@schema_errors("model")
def model_from_dict(doc: dict) -> FirePowerModel:
    if doc["epsilon"] != DEFAULT_EPSILON:
        raise SchemaError(f"model: epsilon {doc['epsilon']!r} is not the clamp {DEFAULT_EPSILON!r}")
    table = tuple(component_from_dict(c) for c in doc["component_table"])
    entries = doc["per_component"]
    if sorted(entries) != sorted(c.name for c in table):
        raise SchemaError("model: per_component does not match the component table")
    per_component = {
        comp.name: (
            _hw_from_dict(entries[comp.name]["hw"], comp),
            trees.gbt_from_dict(entries[comp.name]["event"]),
        )
        for comp in table
    }
    return FirePowerModel(
        target_architecture=doc["target_architecture"],
        per_component=per_component,
        component_table=table,
    )


def save_model(m: FirePowerModel, path: str | os.PathLike):
    write_text_atomic(path, json.dumps(model_to_dict(m)) + "\n")


def load_model(path: str | os.PathLike) -> FirePowerModel:
    return model_from_dict(read_json_file(path, "model"))
