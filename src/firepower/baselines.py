"""Baseline power models: monolithic calibration-style regressors, their
per-component variant and pseudo-label transfer wrappers.  The
no-retraining ablation of the main method is
`build_target_model(..., force_no_retrain=True)`."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import trees
from .dataset import ComponentDef, Dataset, component_labels, design_matrix
from .errors import ModelError, ValidationError
from .trees import GbtHyperparams, GbtModel

TRANSFER_EPSILON = 1e-9

METHOD_KEYS = (
    "mcpat_calib",
    "mcpat_calib_component",
    "mcpat_calib_transfer",
    "mcpat_calib_component_transfer",
    "firepower_no_retrain",
    "firepower",
)


def event_stat_names(ds: Dataset) -> list[str]:
    """All event-statistic names, component-table order first, else sorted."""
    names = []
    for comp in ds.component_table:
        for stat in comp.event_stats:
            if stat not in names:
                names.append(stat)
    if not names:
        names = sorted({k for s in ds.samples for k in s.event_stats})
    return names


def monolithic_matrix(ds: Dataset, event_names: list[str], use_M: bool) -> np.ndarray:
    """Whole-core rows: every canonical parameter, then every event statistic,
    then (with use_M) the analytical estimate."""
    core = ComponentDef("core", ds.registry.canonical, tuple(event_names))
    X = design_matrix(ds, core)
    if not use_M:
        return X
    for s in ds.samples:
        if s.analytical_estimate is None:
            raise ValidationError(
                f"sample ({s.config_id}, {s.workload}) "
                "has no analytical estimate but use_M was requested"
            )
    return np.column_stack([X, [s.analytical_estimate for s in ds.samples]])


@dataclass
class MonolithicModel:
    model: GbtModel
    event_names: list[str]


def train_monolithic(ds_train: Dataset, use_M: bool, hp: GbtHyperparams) -> MonolithicModel:
    if not ds_train.samples:
        raise ValidationError("empty training dataset")
    names = event_stat_names(ds_train)
    X = monolithic_matrix(ds_train, names, use_M)
    y = np.array([s.total_power for s in ds_train.samples])
    return MonolithicModel(model=trees.fit_gbt(X, y, hp), event_names=names)


def train_monolithic_per_component(ds_train: Dataset, hp: GbtHyperparams) -> dict[str, GbtModel]:
    """One GBT per component on its own design matrix, all grown as one batch."""
    if not ds_train.samples:
        raise ValidationError("empty training dataset")
    table = ds_train.component_table
    models = trees.fit_gbt_many(
        [design_matrix(ds_train, comp) for comp in table],
        [np.array(component_labels(ds_train.samples, comp.name)) for comp in table],
        hp,
    )
    return {comp.name: model for comp, model in zip(table, models)}


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
