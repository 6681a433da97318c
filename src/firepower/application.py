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
    Dataset,
    component_from_dict,
    component_labels,
    component_to_dict,
    design_matrix,
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
    one-parameter linear model reading H_i[feature_index].  An H_i row is
    the first len(comp.hw_params) entries of a design_matrix row."""

    model: GbtModel | LinearModel
    # predict's memo: the factor per H_i row, which all samples of a configuration share.
    _factors: dict[tuple[float, ...], float] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    @property
    def variant(self) -> str:
        return RETRAINED if isinstance(self.model, LinearModel) else INHERITED

    def factors(self, H) -> np.ndarray:
        """F_hw of each H_i row of H, clamped at DEFAULT_EPSILON, in one batched call."""
        return np.maximum(self.model.predict_many(H), DEFAULT_EPSILON)

    def predict(self, h) -> float:
        """F_hw of one H_i row, clamped at DEFAULT_EPSILON: factors([h]) as a Python float."""
        row = tuple(h)
        if row not in self._factors:
            self._factors[row] = float(self.factors([row])[0])
        return self._factors[row]


@dataclass
class FirePowerModel:
    """Per component, P_i = F_hw(H_i) * event GBT(H_i, E_i)."""

    target_architecture: str
    per_component: dict[str, tuple[EffectiveHardwareModel, GbtModel]]
    component_table: tuple[ComponentDef, ...]

    def predict_component_power(self, comp: ComponentDef, x) -> float:
        """comp's power on x, one row of design_matrix(ds, comp)."""
        hw, event = self.per_component[comp.name]
        return hw.predict(x[: len(comp.hw_params)]) * event.predict(x)

    def predict_components(self, ds: Dataset) -> np.ndarray:
        """(n_samples, n_components) predictions, columns in table order;
        each entry equals predict_component_power on that sample."""
        out = np.empty((len(ds.keys), len(self.component_table)))
        for j, comp in enumerate(self.component_table):
            hw, event = self.per_component[comp.name]
            X = design_matrix(ds, comp)
            out[:, j] = hw.factors(X[:, : len(comp.hw_params)]) * event.predict_many(X)
        return out


def _hardware_model(
    kb: KnowledgeBase, ds_target_train: Dataset, comp: ComponentDef, force_no_retrain: bool
) -> GbtModel | LinearModel:
    """comp's F_hw: for a Retrain component, a one-parameter linear refit on
    ds_target_train of the kb's important parameter, unless force_no_retrain
    is set or the refit is constant; else the kb's hardware model itself."""
    ck = kb.per_component[comp.name]
    if ck.strategy.kind == RETRAIN and not force_no_retrain:
        X, y = hardware_training_matrix(ds_target_train, comp)
        j = comp.hw_params.index(ck.strategy.param)
        retrained = trees.fit_linear_one_feature(X[:, j], y, feature_index=j)
        # The fit is constant exactly when the labeled configurations all
        # share the important parameter's value: no slope, so inherit.
        if not retrained.is_constant:
            return retrained
    return ck.hardware_model


def _event_training_data(
    ds_target_train: Dataset, comp: ComponentDef, hw: EffectiveHardwareModel
) -> tuple[np.ndarray, np.ndarray]:
    """The event GBT's (X, y): comp's design matrix and the ratio labels P_i / F_hw."""
    power = component_labels(ds_target_train, comp.name)
    X = design_matrix(ds_target_train, comp)
    return X, power / hw.factors(X[:, : len(comp.hw_params)])


def train_event_model(
    ds_target_train: Dataset,
    comp: ComponentDef,
    hw: EffectiveHardwareModel,
    hp: GbtHyperparams | None,
) -> GbtModel:
    """Fit the event GBT on the ratio labels P_i / F_hw."""
    return trees.fit_gbt(*_event_training_data(ds_target_train, comp, hw), hp)


def check_component_tables(known, target, source: str = "knowledge base"):
    """ValidationError unless target lists known's components in order, each with
    its hw_params in order: an inherited GBT reads its H_i row by position."""
    if [c.name for c in known] != [c.name for c in target]:
        raise ValidationError(f"{source} and target dataset disagree on the component table")
    for a, b in zip(known, target):
        if a.hw_params != b.hw_params:
            raise ValidationError(
                f"{source} and target dataset disagree on the hw_params of component "
                f"{a.name!r}: {list(a.hw_params)} against {list(b.hw_params)}"
            )


def _plan(kb: KnowledgeBase, ds_target_train: Dataset, flags: list[bool]):
    """The event fits, as (component, EffectiveHardwareModel) pairs, that
    the models of flags need, and per flag the index of the fit that each
    component of the table uses.  A component's event GBT depends only on
    its hardware model, so each distinct (component, hardware model object)
    is fit once, and the models that share it share the GBT and its
    EffectiveHardwareModel."""
    check_component_tables(kb.component_table, ds_target_train.component_table)
    if not ds_target_train.keys:
        raise ValidationError("no training samples for the event model")
    fits, index, picks = [], {}, []
    for flag in flags:
        row = []
        for comp in ds_target_train.component_table:
            hw_model = _hardware_model(kb, ds_target_train, comp, flag)
            key = (comp.name, id(hw_model))
            if key not in index:
                index[key] = len(fits)
                fits.append((comp, EffectiveHardwareModel(hw_model)))
            row.append(index[key])
        picks.append(row)
    return fits, picks


def _assemble(ds_target_train: Dataset, fits, events: list[GbtModel], picks) -> list[FirePowerModel]:
    """One model per row of _plan's picks, from its fits and their event GBTs."""
    table = ds_target_train.component_table
    return [
        FirePowerModel(
            target_architecture=ds_target_train.architecture,
            per_component={comp.name: (fits[i][1], events[i]) for comp, i in zip(table, row)},
            component_table=table,
        )
        for row in picks
    ]


def build_target_model(
    kb: KnowledgeBase,
    ds_target_train: Dataset,
    hp: GbtHyperparams | None = None,
    force_no_retrain: bool = False,
) -> FirePowerModel:
    """The target model of one flag: build_target_models' plan for
    ``[force_no_retrain]``, with one train_event_model call per event GBT
    (not a batch: perfbench counts fit calls)."""
    fits, picks = _plan(kb, ds_target_train, [force_no_retrain])
    events = [train_event_model(ds_target_train, comp, hw, hp) for comp, hw in fits]
    return _assemble(ds_target_train, fits, events, picks)[0]


def build_target_models(
    kb: KnowledgeBase,
    ds_target_train: Dataset,
    hp: GbtHyperparams,
    force_no_retrain: list[bool],
) -> list[FirePowerModel]:
    """One model per flag, each equal to ``build_target_model(kb,
    ds_target_train, hp, flag)``, with the event GBTs of every flag grown in
    one ``fit_gbt_many`` batch."""
    fits, picks = _plan(kb, ds_target_train, force_no_retrain)
    data = [_event_training_data(ds_target_train, comp, hw) for comp, hw in fits]
    events = trees.fit_gbt_many([X for X, _ in data], [y for _, y in data], hp)
    return _assemble(ds_target_train, fits, events, picks)


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


def _hw_from_dict(doc: dict, comp: ComponentDef, version: int) -> EffectiveHardwareModel:
    variant = doc["variant"]
    if variant == INHERITED:
        what = f"model: component {comp.name!r} hardware model"
        gbt = trees.gbt_from_dict(doc["gbt"], version, len(comp.hw_params), what)
        return EffectiveHardwareModel(gbt)
    if variant != RETRAINED:
        raise SchemaError(f"model: component {comp.name!r} has unknown hw variant {variant!r}")
    linear = trees.linear_from_dict(doc["linear"], f"model: component {comp.name!r} linear model")
    j = linear.feature_index
    if not (0 <= j < len(comp.hw_params) and comp.hw_params[j] == doc["important_param"]):
        raise SchemaError(
            f"model: component {comp.name!r} retrained hw model reads feature {j!r}, "
            f"not its important parameter {doc['important_param']!r} among {comp.hw_params}"
        )
    return EffectiveHardwareModel(linear)


def model_to_dict(m: FirePowerModel) -> dict:
    return {
        "format_version": trees.FORMAT_VERSION,
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
    version = trees.format_version(doc, "model")
    if doc["epsilon"] != DEFAULT_EPSILON:
        raise SchemaError(f"model: epsilon {doc['epsilon']!r} is not the clamp {DEFAULT_EPSILON!r}")
    table = tuple(component_from_dict(c) for c in doc["component_table"])
    entries = doc["per_component"]
    if sorted(entries) != sorted(c.name for c in table):
        raise SchemaError("model: per_component does not match the component table")
    per_component = {
        comp.name: (
            _hw_from_dict(entries[comp.name]["hw"], comp, version),
            trees.gbt_from_dict(
                entries[comp.name]["event"],
                version,
                len(comp.hw_params) + len(comp.event_stats),
                f"model: component {comp.name!r} event model",
            ),
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
