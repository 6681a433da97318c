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
from .errors import ModelError, ValidationError
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


def train_hardware_model(X: np.ndarray, y: np.ndarray, hp: GbtHyperparams) -> GbtModel:
    """Fit F_hw on hardware_training_matrix's (X, y)."""
    if len(X) < 2:
        raise ValidationError("need at least 2 configurations to train a hardware model")
    return trees.fit_gbt(X, y, hp)


def compute_importance(m: GbtModel, comp: ComponentDef) -> dict[str, float]:
    if m.feature_count != len(comp.hw_params):
        raise ModelError(
            f"model has {m.feature_count} features but component {comp.name!r} "
            f"has {len(comp.hw_params)} hardware parameters"
        )
    values = trees.feature_importance(m)
    return {name: float(v) for name, v in zip(comp.hw_params, values)}


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
    hp = hp or GbtHyperparams()
    if not ds_known.samples:
        raise ValidationError("known-architecture dataset has no samples")
    per_component: dict[str, ComponentKnowledge] = {}
    for comp in ds_known.component_table:
        X, y = hardware_training_matrix(ds_known, comp)
        model = train_hardware_model(X, y, hp)
        importance = compute_importance(model, comp)
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
        component_table=ds_known.component_table,
    )


# --- serialization ----------------------------------------------------------


def knowledge_base_to_dict(kb: KnowledgeBase) -> dict:
    return {
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
    per_component = {
        name: ComponentKnowledge(
            component=name,
            hardware_model=trees.gbt_from_dict(entry["hardware_model"]),
            importance=dict(entry["importance"]),
            strategy=Strategy(entry["strategy"]["kind"], entry["strategy"]["param"]),
        )
        for name, entry in doc["per_component"].items()
    }
    return KnowledgeBase(
        known_architecture=doc["known_architecture"],
        threshold=doc["threshold"],
        per_component=per_component,
        component_table=tuple(component_from_dict(c) for c in doc["component_table"]),
    )


def save_knowledge_base(kb: KnowledgeBase, path: str | os.PathLike):
    write_text_atomic(path, json.dumps(knowledge_base_to_dict(kb)) + "\n")


def load_knowledge_base(path: str | os.PathLike) -> KnowledgeBase:
    return knowledge_base_from_dict(read_json_file(path, "knowledge base"))
