"""Few-shot experiment protocol: for each (k, seed), draw k labeled target
configurations, run every method on the identical split, and score total
power with MAPE and Pearson R."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .application import FirePowerModel, build_target_models, check_component_tables
from .baselines import FIREPOWER_METHODS, MCPAT_CALIB_METHODS, METHOD_KEYS, TransferWrapper
from .baselines import calib_parts, train_monolithic, train_monolithic_per_component
from .dataset import Dataset, design_matrix, few_shot_split
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


def _calib_models(ds: Dataset, hp: GbtHyperparams, per_component: bool):
    # Read at each call, so a wrapper installed over a trainer (a tracer's) runs.
    return (train_monolithic_per_component if per_component else train_monolithic)(ds, hp)


def _method_predictions(
    method: str,
    train: Dataset,
    test: Dataset,
    hp: GbtHyperparams,
    sources: dict,
    target_model: FirePowerModel | None = None,
) -> list[float]:
    """Total power of one method on test, the sum of one column per part.
    McPAT-Calib fits its parts on train, or transfers those of its source
    ``sources[per_component]``; FirePower scores ``target_model``."""
    if method in FIREPOWER_METHODS:
        columns = target_model.predict_components(test).T
    elif method in MCPAT_CALIB_METHODS:
        per_component, transfer = MCPAT_CALIB_METHODS[method]
        if transfer:  # each source part, with train's labels paired by part name
            labels = {comp.name: y for comp, y in calib_parts(train, per_component)}
            models = [
                (c, TransferWrapper.build(m.predict_many, design_matrix(train, c), labels[c.name]))
                for c, m in sources[per_component]
            ]
        else:
            models = _calib_models(train, hp, per_component)
        columns = [model.predict_many(design_matrix(test, comp)) for comp, model in models]
    else:
        raise ValidationError(f"unknown method {method!r}")
    totals = np.zeros(len(test.keys))
    # Column by column in part order: the sums CLI predict forms per sample.
    for column in columns:
        totals += column
    return list(totals)


def _cell_models(methods: list[str], kb: KnowledgeBase, train: Dataset, hp: GbtHyperparams):
    """(method, FirePower model or None) per method of one cell: the baselines
    first, then the FirePower family, built together once the baselines'
    models are gone (alive beside the batch, their trees raise peak memory)."""
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
    if len(ds_target.configurations) <= max(ks):
        raise ValidationError("target dataset has too few configurations for the given ks")
    check_component_tables(ds_known.component_table, ds_target.component_table, "known dataset")

    kb = extract_knowledge(ds_known, hp, threshold)
    sources = {
        per_component: _calib_models(ds_known, hp, per_component)
        for method, (per_component, transfer) in MCPAT_CALIB_METHODS.items()
        if transfer and method in methods
    }

    results = []
    for k in ks:
        for seed in seeds:
            labeled = choose_labeled_configs(ds_target, k, seed)
            train, test = few_shot_split(ds_target, labeled)
            labels = list(test.totals)
            for method, target_model in _cell_models(methods, kb, train, hp):
                preds = _method_predictions(method, train, test, hp, sources, target_model)
                per_sample = [
                    (cid, workload, float(p), float(total))
                    for (cid, workload), total, p in zip(test.keys, test.totals, preds)
                ]
                metrics = (mape(preds, labels), pearson_r(preds, labels))
                results.append(EvalResult(method, k, seed, *metrics, per_sample))
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
