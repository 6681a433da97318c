"""Few-shot experiment protocol: for each (k, seed), draw k labeled target
configurations, run every method on the identical split, and score total
power with MAPE and Pearson R."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .application import build_target_model
from .baselines import (
    METHOD_KEYS,
    TransferWrapper,
    monolithic_matrix,
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
    kb: KnowledgeBase,
    train: Dataset,
    test: Dataset,
    hp: GbtHyperparams,
    use_M: bool,
    sources: dict,
    cell: dict | None = None,
) -> list[float]:
    """Total-power predictions of one method on test.  ``cell`` is shared by
    the methods of one (k, seed) cell: the first FirePower-family model
    built there lends its event fits to the second."""
    cell = {} if cell is None else cell
    if method == "mcpat_calib":
        model = train_monolithic(train, use_M, hp)
        X = monolithic_matrix(test, model.event_names, use_M)
        return list(model.model.predict_many(X))
    if method == "mcpat_calib_component":
        models = train_monolithic_per_component(train, hp)
        totals = np.zeros(len(test.samples))
        for comp in test.component_table:
            totals += models[comp.name].predict_many(design_matrix(test, comp))
        return list(totals)
    if method == "mcpat_calib_transfer":
        source = sources["monolithic"]
        pool = monolithic_matrix(train, source.event_names, use_M)
        labels = np.array([s.total_power for s in train.samples])
        w = TransferWrapper.build(source.model.predict_many, pool, labels)
        return list(w.predict_many(monolithic_matrix(test, source.event_names, use_M)))
    if method == "mcpat_calib_component_transfer":
        comp_sources = sources["per_component"]
        totals = np.zeros(len(test.samples))
        for comp in train.component_table:
            labels = np.array(component_labels(train.samples, comp.name))
            w = TransferWrapper.build(
                comp_sources[comp.name].predict_many, design_matrix(train, comp), labels
            )
            totals += w.predict_many(design_matrix(test, comp))
        return list(totals)
    if method in ("firepower", "firepower_no_retrain"):
        no_retrain = method == "firepower_no_retrain"
        model = build_target_model(
            kb, train, hp, force_no_retrain=no_retrain, reuse_from=cell.get("firepower")
        )
        cell.setdefault("firepower", model)
        totals = np.zeros(len(test.samples))
        # Column by column in table order: the sums CLI predict forms per sample.
        for column in model.predict_components(test).T:
            totals += column
        return list(totals)
    raise ValidationError(f"unknown method {method!r}")


def run_experiment(
    ds_known: Dataset,
    ds_target: Dataset,
    methods: list[str] | None = None,
    ks: list[int] = DEFAULT_KS,
    seeds: list[int] = (0,),
    hp: GbtHyperparams | None = None,
    threshold: float = DEFAULT_THRESHOLD,
    use_M: bool = False,
) -> list[EvalResult]:
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
        sources["monolithic"] = train_monolithic(ds_known, use_M, hp)
    if "mcpat_calib_component_transfer" in methods:
        sources["per_component"] = train_monolithic_per_component(ds_known, hp)

    results = []
    for k in ks:
        for seed in seeds:
            labeled = choose_labeled_configs(ds_target, k, seed)
            train, test = few_shot_split(ds_target, labeled)
            labels = [s.total_power for s in test.samples]
            cell: dict = {}
            for method in methods:
                preds = _method_predictions(method, kb, train, test, hp, use_M, sources, cell)
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
