"""Generalization-quality evaluation of inherited hardware models.

Predictions of the phase-1 hardware models (never retrained) are aligned
to the target configurations' averaged labels with a least-squares
scaling factor; the residual MAPE drives a High/Low verdict per
component.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .application import DEFAULT_EPSILON
from .dataset import Dataset
from .errors import ModelError, ValidationError
from .knowledge import KnowledgeBase, hardware_training_matrix
from .metrics import mape

DEFAULT_GATE_THRESHOLD = 10.0  # percent

HIGH = "High"
LOW = "Low"


@dataclass(frozen=True)
class ComponentVerdict:
    component: str
    scaling_factor: float
    observed_mape: float
    verdict: str


@dataclass
class GeneralizationReport:
    per_component: dict[str, ComponentVerdict]
    threshold: float = DEFAULT_GATE_THRESHOLD

    def low_components(self) -> list[str]:
        return [name for name, v in self.per_component.items() if v.verdict == LOW]

    def csv_rows(self) -> list[str]:
        rows = ["component,scaling_factor,mape_percent,verdict"]
        for v in self.per_component.values():
            rows.append(f"{v.component},{v.scaling_factor!r},{v.observed_mape!r},{v.verdict}")
        return rows


def ideal_scaling_factor(preds, labels) -> float:
    """Least-squares scalar s* minimizing sum((s * pred - label)^2)."""
    preds = np.asarray(preds, dtype=float)
    labels = np.asarray(labels, dtype=float)
    if preds.size == 0 or preds.shape != labels.shape:
        raise ModelError("preds and labels must be nonempty and equal length")
    denom = float((preds * preds).sum())
    if denom == 0.0:
        raise ModelError("all predictions are zero; scaling factor undefined")
    return float((preds * labels).sum()) / denom


def evaluate_generalization(
    kb: KnowledgeBase,
    ds_target_train: Dataset,
    threshold: float = DEFAULT_GATE_THRESHOLD,
) -> GeneralizationReport:
    if not ds_target_train.configurations:
        raise ValidationError("no target configurations to evaluate against")
    per_component: dict[str, ComponentVerdict] = {}
    for comp in kb.component_table:
        X, labels = hardware_training_matrix(ds_target_train, comp)
        preds = np.maximum(kb.per_component[comp.name].hardware_model.predict_many(X), DEFAULT_EPSILON)
        s = ideal_scaling_factor(preds, labels)
        observed = mape(s * preds, labels)
        verdict = HIGH if observed < threshold else LOW
        per_component[comp.name] = ComponentVerdict(
            component=comp.name,
            scaling_factor=s,
            observed_mape=observed,
            verdict=verdict,
        )
    return GeneralizationReport(per_component=per_component, threshold=threshold)
