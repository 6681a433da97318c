"""Baseline power models: McPAT-Calib-style GBTs over a list of parts (the
whole core, or every component) and the pseudo-label transfer wrapper.  The
no-retraining ablation of the main method is the
`force_no_retrain=True` model of `build_target_models`."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import trees
from .dataset import ComponentDef, Dataset, component_labels, design_matrix
from .errors import ModelError, ValidationError
from .trees import GbtHyperparams, GbtModel

TRANSFER_EPSILON = 1e-9

# A McPAT-Calib model: one (part, GBT) pair per part, in part order.
CalibModel = list[tuple[ComponentDef, GbtModel]]

# McPAT-Calib and its variants: (one part per component, pseudo-label
# transfer from a source fit on the known architecture).
MCPAT_CALIB_METHODS = {
    "mcpat_calib": (False, False),
    "mcpat_calib_component": (True, False),
    "mcpat_calib_transfer": (False, True),
    "mcpat_calib_component_transfer": (True, True),
}
# FirePower and its ablation, each with its build_target_models
# force_no_retrain flag.
FIREPOWER_METHODS = {"firepower_no_retrain": True, "firepower": False}
METHOD_KEYS = (*MCPAT_CALIB_METHODS, *FIREPOWER_METHODS)


def core_component(ds: Dataset) -> ComponentDef:
    """The whole core as one component: every canonical parameter, then
    every event statistic, component-table order first, else sorted."""
    events = dict.fromkeys(stat for comp in ds.component_table for stat in comp.event_stats)
    if not events:
        given = ~np.isnan(ds.events.values).all(axis=0)  # a split keeps its parent's empty columns
        events = sorted(name for name, j in ds.events.columns.items() if given[j])
    return ComponentDef("core", ds.registry.canonical, tuple(events))


def calib_parts(ds: Dataset, per_component: bool) -> list[tuple[ComponentDef, np.ndarray]]:
    """McPAT-Calib's parts of ds as (component, labels): the whole core with
    the total power, or each component of the table with its own power."""
    if not ds.keys:
        raise ValidationError("empty training dataset")
    if per_component:
        return [(comp, component_labels(ds, comp.name)) for comp in ds.component_table]
    return [(core_component(ds), np.array(ds.totals))]


def _train_parts(ds_train: Dataset, hp: GbtHyperparams, per_component: bool) -> CalibModel:
    """(part, GBT) pairs in part order, every part's GBT grown in one batch."""
    comps, labels = zip(*calib_parts(ds_train, per_component))
    models = trees.fit_gbt_many([design_matrix(ds_train, comp) for comp in comps], labels, hp)
    return list(zip(comps, models))


def train_monolithic(ds_train: Dataset, hp: GbtHyperparams) -> CalibModel:
    """McPAT-Calib: one GBT on the whole core's total power."""
    return _train_parts(ds_train, hp, per_component=False)


def train_monolithic_per_component(ds_train: Dataset, hp: GbtHyperparams) -> CalibModel:
    """McPAT-Calib per component: one GBT per component on its own power."""
    return _train_parts(ds_train, hp, per_component=True)


@dataclass
class TransferWrapper:
    """Pseudo-label transfer: scale the nearest labeled target sample's
    label by the source model's prediction ratio."""

    source_many: Callable[[np.ndarray], np.ndarray]  # batched source model
    pool_features: np.ndarray  # m x d, raw feature space
    pool_labels: np.ndarray
    pool_source_preds: np.ndarray
    mean: np.ndarray
    std: np.ndarray
    keep: np.ndarray  # features with nonzero pool std

    @classmethod
    def build(cls, source_many, pool_features, pool_labels) -> "TransferWrapper":
        pool_features = np.asarray(pool_features, dtype=float)
        pool_labels = np.asarray(pool_labels, dtype=float)
        if pool_features.ndim != 2 or pool_features.shape[0] == 0:
            raise ModelError("labeled pool must be a nonempty matrix")
        std = pool_features.std(axis=0)
        return cls(
            source_many=source_many,
            pool_features=pool_features,
            pool_labels=pool_labels,
            pool_source_preds=source_many(pool_features),
            mean=pool_features.mean(axis=0),
            std=std,
            keep=std > 0,
        )

    def predict_many(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        k = self.keep
        # Distances in the pool's z-space over its varying features; with
        # none, every distance is 0 and pool row 0 is picked.
        z = (X[:, k] - self.mean[k]) / self.std[k]
        zp = (self.pool_features[:, k] - self.mean[k]) / self.std[k]
        dists = np.column_stack([np.sqrt(((p - z) ** 2).sum(axis=1)) for p in zp])
        nearest = dists.argmin(axis=1)  # ties: earliest pool index
        labels = self.pool_labels[nearest]
        ratio = self.source_many(X) / np.maximum(self.pool_source_preds[nearest], TRANSFER_EPSILON)
        # The distance-0 shortcut keeps predictions exact on pool members.
        exact = (X == self.pool_features[nearest]).all(axis=1)
        return np.where(exact, labels, ratio * labels)
