"""Few-shot experiment protocol: for each (k, seed), draw k labeled target
configurations, run every method on the identical split, and score total
power with MAPE and Pearson R."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .application import FirePowerModel, build_target_models
from .baselines import (
    METHOD_KEYS,
    TransferWrapper,
    train_monolithic,
    train_monolithic_per_component,
)
from .dataset import Dataset, component_labels, design_matrix, few_shot_split
from .errors import ValidationError
from .knowledge import DEFAULT_THRESHOLD, KnowledgeBase, extract_knowledge
from .metrics import mape, pearson_r
from .trees import GbtHyperparams

# Labeled target configurations per experiment cell (the paper's k).
DEFAULT_KS = (2, 3, 4)

# The methods scored with a FirePower target model, each with its
# build_target_model force_no_retrain flag.
FIREPOWER_METHODS = {"firepower": False, "firepower_no_retrain": True}


@dataclass
class EvalResult:
    method: str
    k: int
    seed: int
    mape_percent: float
    pearson_r: float
    per_sample: list[tuple[str, str, float, float]]

    def sort_key(self):
        return (self.method, self.k, self.seed)


def choose_labeled_configs(ds_target: Dataset, k: int, seed: int) -> list[str]:
    """Uniform draw of k labeled configuration ids, deterministic per (k, seed)."""
    ids = sorted(ds_target.config_ids())
    rng = np.random.default_rng([seed, k])
    return [ids[i] for i in rng.choice(len(ids), size=k, replace=False)]


def _method_predictions(
    method: str,
    train: Dataset,
    test: Dataset,
    hp: GbtHyperparams,
    sources: dict,
    target_model: FirePowerModel | None = None,
) -> list[float]:
    """Total-power predictions of one method on test.  The baselines fit
    their models on train here; a FirePower-family method scores
    ``target_model``, its model built on train (see _cell_models)."""
    if method == "mcpat_calib":
        model = train_monolithic(train, hp)
        return list(model.model.predict_many(design_matrix(test, model.core)))
    if method == "mcpat_calib_component":
        models = train_monolithic_per_component(train, hp)
        totals = np.zeros(len(test.samples))
        for comp in test.component_table:
            totals += models[comp.name].predict_many(design_matrix(test, comp))
        return list(totals)
    if method == "mcpat_calib_transfer":
        source = sources["monolithic"]
        pool = design_matrix(train, source.core)
        labels = np.array([s.total_power for s in train.samples])
        w = TransferWrapper.build(source.model.predict_many, pool, labels)
        return list(w.predict_many(design_matrix(test, source.core)))
    if method == "mcpat_calib_component_transfer":
        comp_sources = sources["per_component"]
        totals = np.zeros(len(test.samples))
        for comp in train.component_table:
            labels = component_labels(train, comp.name)
            w = TransferWrapper.build(
                comp_sources[comp.name].predict_many, design_matrix(train, comp), labels
            )
            totals += w.predict_many(design_matrix(test, comp))
        return list(totals)
    if method in FIREPOWER_METHODS:
        totals = np.zeros(len(test.samples))
        # Column by column in table order: the sums CLI predict forms per sample.
        for column in target_model.predict_components(test).T:
            totals += column
        return list(totals)
    raise ValidationError(f"unknown method {method!r}")


def _cell_models(methods: list[str], kb: KnowledgeBase, train: Dataset, hp: GbtHyperparams):
    """(method, FirePower model or None) for each method of one cell: the
    baselines first, then the FirePower family, whose models are built
    together by build_target_models once the baselines' models are gone
    (alive beside the family's batch, their trees raise the peak memory)."""
    family = [m for m in methods if m in FIREPOWER_METHODS]
    yield from ((m, None) for m in methods if m not in FIREPOWER_METHODS)
    if family:
        flags = [FIREPOWER_METHODS[m] for m in family]
        yield from zip(family, build_target_models(kb, train, hp, flags))


def run_experiment(
    ds_known: Dataset,
    ds_target: Dataset,
    methods: list[str] | None = None,
    ks: list[int] = DEFAULT_KS,
    seeds: list[int] = (0,),
    hp: GbtHyperparams | None = None,
    threshold: float = DEFAULT_THRESHOLD,
) -> list[EvalResult]:
    """Every method on every (k, seed) cell, sorted by (method, k, seed).
    The knowledge base and the transfer sources are fit once on ds_known;
    per cell, each baseline fits its own models, and the FirePower family's
    event GBTs grow as one batch (build_target_models)."""
    methods = list(methods) if methods else list(METHOD_KEYS)
    hp = hp or GbtHyperparams()
    for m in methods:
        if m not in METHOD_KEYS:
            raise ValidationError(f"unknown method {m!r}")
    if min(ks, default=0) < 1:
        raise ValidationError(f"ks must be nonempty with every k at least 1, not {list(ks)}")
    for name, values in (("ks", list(ks)), ("methods", methods)):
        if len(set(values)) < len(values):
            raise ValidationError(f"{name} must not repeat a value, not {values}")
    n_configs = len(ds_target.configurations)
    if n_configs <= max(ks):
        raise ValidationError("target dataset has too few configurations for the given ks")

    kb = extract_knowledge(ds_known, hp, threshold)
    sources: dict = {}
    if "mcpat_calib_transfer" in methods:
        sources["monolithic"] = train_monolithic(ds_known, hp)
    if "mcpat_calib_component_transfer" in methods:
        sources["per_component"] = train_monolithic_per_component(ds_known, hp)

    results = []
    for k in ks:
        for seed in seeds:
            labeled = choose_labeled_configs(ds_target, k, seed)
            train, test = few_shot_split(ds_target, labeled)
            labels = [s.total_power for s in test.samples]
            for method, target_model in _cell_models(methods, kb, train, hp):
                preds = _method_predictions(method, train, test, hp, sources, target_model)
                per_sample = [
                    (s.config_id, s.workload, float(p), float(s.total_power))
                    for s, p in zip(test.samples, preds)
                ]
                results.append(
                    EvalResult(
                        method=method,
                        k=k,
                        seed=seed,
                        mape_percent=mape(preds, labels),
                        pearson_r=pearson_r(preds, labels),
                        per_sample=per_sample,
                    )
                )
    results.sort(key=EvalResult.sort_key)
    return results


def summarize(results: list[EvalResult]) -> dict[tuple[str, int], tuple[float, float]]:
    """Mean (MAPE, R) per (method, k); means of per-seed metrics, no pooling."""
    cells: dict[tuple[str, int], list[EvalResult]] = {}
    for r in results:
        cells.setdefault((r.method, r.k), []).append(r)
    return {
        key: (
            float(np.mean([r.mape_percent for r in rs])),
            float(np.mean([r.pearson_r for r in rs])),
        )
        for key, rs in sorted(cells.items())
    }
