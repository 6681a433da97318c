"""Phase 1: extract per-component knowledge from the known architecture.

For every component, a hardware model is trained on workload-averaged
power, its parameter-importance distribution is computed from impurity
decreases, and a generalization strategy (Retrain vs NoRetrain) is
selected from that distribution.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

from . import trees
from .dataset import (
    ComponentDef,
    Dataset,
    average_power_per_config,
    component_from_dict,
    component_to_dict,
    hw_row,
    read_json_file,
    schema_errors,
    write_text_atomic,
)
from .errors import SchemaError, ValidationError
from .trees import GbtHyperparams, GbtModel

DEFAULT_THRESHOLD = 0.95

# Components whose averaged labels vary less than this (relative spread)
# carry no usable parameter signal; see select-strategy notes below.
FLAT_LABEL_SPREAD = 0.02

RETRAIN = "retrain"
NO_RETRAIN = "no_retrain"


@dataclass(frozen=True)
class Strategy:
    kind: str  # RETRAIN or NO_RETRAIN
    param: str | None = None

    def __post_init__(self):
        if self.kind not in (RETRAIN, NO_RETRAIN):
            raise ValidationError(f"unknown strategy kind {self.kind!r}")
        if (self.kind == RETRAIN) != (self.param is not None):
            raise ValidationError("Retrain carries a parameter; NoRetrain does not")


@dataclass
class ComponentKnowledge:
    component: str
    hardware_model: GbtModel
    importance: dict[str, float]
    strategy: Strategy


@dataclass
class KnowledgeBase:
    known_architecture: str
    threshold: float
    per_component: dict[str, ComponentKnowledge]
    component_table: tuple[ComponentDef, ...]


def hardware_training_matrix(ds: Dataset, comp: ComponentDef):
    """One row per configuration (H_i values), y = workload-averaged power."""
    averages = average_power_per_config(ds, comp.name)
    X = np.array([hw_row(comp.hw_params, cfg) for cfg in ds.configurations])
    y = np.array([averages[cfg.id] for cfg in ds.configurations])
    return X, y


def select_strategy(importance: dict[str, float], threshold: float) -> Strategy:
    """Retrain on the argmax parameter iff its importance strictly exceeds
    the threshold; ties broken by parameter order in the importance map."""
    if not importance:
        raise ValidationError("empty importance map")
    best_param = max(importance, key=lambda p: importance[p])  # first max wins
    if importance[best_param] > threshold:
        return Strategy(RETRAIN, best_param)
    return Strategy(NO_RETRAIN)


def extract_knowledge(
    ds_known: Dataset,
    hp: GbtHyperparams | None = None,
    threshold: float = DEFAULT_THRESHOLD,
) -> KnowledgeBase:
    if not ds_known.keys:
        raise ValidationError("known-architecture dataset has no samples")
    if len(ds_known.configurations) < 2:
        raise ValidationError("need at least 2 configurations to train a hardware model")
    table = ds_known.component_table
    data = [hardware_training_matrix(ds_known, comp) for comp in table]
    # One fit_gbt call per model, not a batch: perfbench counts fit calls.
    models = [trees.fit_gbt(X, y, hp) for X, y in data]
    per_component: dict[str, ComponentKnowledge] = {}
    for comp, (_, y), model in zip(table, data, models):
        importance = dict(zip(comp.hw_params, trees.feature_importance(model).tolist()))
        # A flat label profile means no parameter is informative at all;
        # whatever gains the boosting stage scraped off residual noise do
        # not indicate a dominating parameter, so such components inherit.
        spread = float(y.max() / y.min() - 1.0) if y.min() > 0 else float("inf")
        if spread < FLAT_LABEL_SPREAD:
            strategy = Strategy(NO_RETRAIN)
        else:
            strategy = select_strategy(importance, threshold)
        per_component[comp.name] = ComponentKnowledge(
            component=comp.name,
            hardware_model=model,
            importance=importance,
            strategy=strategy,
        )
    return KnowledgeBase(
        known_architecture=ds_known.architecture,
        threshold=threshold,
        per_component=per_component,
        component_table=table,
    )


# --- serialization ----------------------------------------------------------


def knowledge_base_to_dict(kb: KnowledgeBase) -> dict:
    return {
        "format_version": trees.FORMAT_VERSION,
        "known_architecture": kb.known_architecture,
        "threshold": kb.threshold,
        "component_table": [component_to_dict(c) for c in kb.component_table],
        "per_component": {
            name: {
                "hardware_model": trees.gbt_to_dict(ck.hardware_model),
                "importance": dict(ck.importance),
                "strategy": {"kind": ck.strategy.kind, "param": ck.strategy.param},
            }
            for name, ck in kb.per_component.items()
        },
    }


@schema_errors("knowledge base")
def knowledge_base_from_dict(doc: dict) -> KnowledgeBase:
    version = trees.format_version(doc, "knowledge base")
    table = tuple(component_from_dict(c) for c in doc["component_table"])
    entries = doc["per_component"]
    if sorted(entries) != sorted(c.name for c in table):
        raise SchemaError("knowledge base: per_component does not match the component table")
    per_component = {}
    for comp in table:
        entry = entries[comp.name]
        importance = dict(entry["importance"])
        if list(importance) != list(comp.hw_params):
            raise SchemaError(
                f"knowledge base: component {comp.name!r} has importances for "
                f"{list(importance)}, not for its hardware parameters {list(comp.hw_params)}"
            )
        what = f"knowledge base: component {comp.name!r}"
        for param, value in importance.items():
            trees.finite_number(value, f"{what} importance of {param}")
        strategy = Strategy(entry["strategy"]["kind"], entry["strategy"]["param"])
        if strategy.param not in (None, *comp.hw_params):
            raise SchemaError(
                f"{what} retrains on {strategy.param!r}, not one of its hardware parameters "
                f"{list(comp.hw_params)}"
            )
        per_component[comp.name] = ComponentKnowledge(
            component=comp.name,
            hardware_model=trees.gbt_from_dict(
                entry["hardware_model"], version, len(comp.hw_params), f"{what} hardware model"
            ),
            importance=importance,
            strategy=strategy,
        )
    return KnowledgeBase(
        known_architecture=doc["known_architecture"],
        threshold=trees.finite_number(doc["threshold"], "knowledge base: threshold"),
        per_component=per_component,
        component_table=table,
    )


def save_knowledge_base(kb: KnowledgeBase, path: str | os.PathLike):
    write_text_atomic(path, json.dumps(knowledge_base_to_dict(kb)) + "\n")


def load_knowledge_base(path: str | os.PathLike) -> KnowledgeBase:
    return knowledge_base_from_dict(read_json_file(path, "knowledge base"))
