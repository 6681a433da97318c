"""Output checks, computed apart from the program.

Each check raises ``CheckError`` with a description of the first violation
it finds.  The formulas here (MAPE, Pearson R, workload-averaged power,
the labeled-configuration draw) are written out again on purpose, so that
a change to the program's own versions cannot make its outputs agree with
themselves.
"""

from __future__ import annotations

import csv
import math

import numpy as np

# Mirrors of the program's documented decision rule (knowledge.py).
FLAT_LABEL_SPREAD = 0.02
RETRAIN = "retrain"

REL_TOL = 1e-9


class CheckError(AssertionError):
    pass


class OperationFailed(Exception):
    """An operation of a round failed; ``failed`` counts it and the
    operations of the round that could not run after it."""

    def __init__(self, failed: int, message: str):
        super().__init__(message)
        self.failed = failed


def require(ok: bool, message: str):
    if not ok:
        raise CheckError(message)


def close(a: float, b: float, rel: float = REL_TOL) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b))


def mape_pct(preds, labels) -> float:
    p = np.asarray(preds, dtype=float)
    y = np.asarray(labels, dtype=float)
    return float(np.mean(np.abs(p - y) / y) * 100.0)


def pearson(preds, labels) -> float:
    p = np.asarray(preds, dtype=float)
    y = np.asarray(labels, dtype=float)
    p = p - p.mean()
    y = y - y.mean()
    return float(p @ y / math.sqrt(float(p @ p) * float(y @ y)))


def labeled_draw(config_ids, k: int, seed: int) -> list[str]:
    """The few-shot protocol's draw: k of the sorted ids, rng seeded [seed, k]."""
    ids = sorted(config_ids)
    rng = np.random.default_rng([seed, k])
    return [ids[i] for i in rng.choice(len(ids), size=k, replace=False)]


# --- knowledge base -----------------------------------------------------------


def check_decisions(kb_doc: dict, known) -> dict[str, str]:
    """Every component's strategy follows from its own importances and label spread.

    ``known`` is the known-architecture Dataset the kb was extracted from.
    Returns the Retrain set {component: parameter}.
    """
    table = [c["name"] for c in kb_doc["component_table"]]
    require(table == [c.name for c in known.component_table], "kb component table differs from the dataset's")
    require(set(kb_doc["per_component"]) == set(table), "kb does not cover every component")
    threshold = kb_doc["threshold"]
    by_config = {cfg.id: [] for cfg in known.configurations}
    for s in known.samples:
        by_config[s.config_id].append(s)
    retrain = {}
    for comp in known.component_table:
        entry = kb_doc["per_component"][comp.name]
        importance = entry["importance"]
        require(list(importance) == list(comp.hw_params), f"{comp.name}: importance keys differ from hw_params")
        require(abs(sum(importance.values()) - 1.0) <= 1e-9, f"{comp.name}: importances do not sum to 1")
        averages = [
            sum(s.component_power[comp.name] for s in group) / len(group) for group in by_config.values()
        ]
        spread = max(averages) / min(averages) - 1.0
        best = max(importance, key=importance.get)
        expect_retrain = spread >= FLAT_LABEL_SPREAD and importance[best] > threshold
        strategy = entry["strategy"]
        if expect_retrain:
            require(
                strategy == {"kind": RETRAIN, "param": best},
                f"{comp.name}: importance {importance[best]:.4f} on {best} and spread {spread:.4f} "
                f"call for Retrain, kb says {strategy}",
            )
            retrain[comp.name] = best
        else:
            require(
                strategy["kind"] != RETRAIN,
                f"{comp.name}: importance {importance[best]:.4f} and spread {spread:.4f} "
                f"call for NoRetrain, kb says {strategy}",
            )
    return retrain


def retrain_mismatches(retrain: dict[str, str], spec) -> list[str]:
    """Components whose decision differs from the generator's dominant parameter."""
    dominant = {g.name: g.dominant_param for g in spec.components if g.dominant_param}
    return sorted(n for n in set(retrain) | set(dominant) if retrain.get(n) != dominant.get(n))


# --- CLI predictions ------------------------------------------------------------


def check_predictions(csv_path: str, summary_path: str, test, truth, truth_bound_pct: float) -> float:
    """Checks the predict CSV against the held-out dataset ``test``.

    Returns the MAPE (percent) of the predicted totals against the labels,
    recomputed from the CSV.
    """
    components = [c.name for c in test.component_table]
    with open(csv_path, newline="") as fh:
        rows = list(csv.reader(fh))
    header, rows = rows[0], rows[1:]
    require(header == ["config_id", "workload", "component", "predicted_mw", "label_mw"], f"bad header {header}")
    block = len(components) + 1
    require(len(rows) == block * len(test.samples), f"{len(rows)} rows for {len(test.samples)} samples")
    params = {c.id: c.params for c in test.configurations}
    preds, labels, truths = [], [], []
    for i, sample in enumerate(test.samples):
        chunk = rows[i * block:(i + 1) * block]
        key = (sample.config_id, sample.workload)
        require(all((r[0], r[1]) == key for r in chunk), f"rows of sample {key} out of place")
        require([r[2] for r in chunk] == components + ["Total"], f"sample {key}: component rows differ")
        values = [float(r[3]) for r in chunk]
        require(all(math.isfinite(v) and v > 0 for v in values), f"sample {key}: nonpositive or nonfinite prediction")
        parts, total = values[:-1], values[-1]
        require(close(total, math.fsum(parts)), f"sample {key}: Total {total!r} != sum of components {math.fsum(parts)!r}")
        require(float(chunk[-1][4]) == sample.total_power, f"sample {key}: Total label differs from the dataset")
        for row, comp in zip(chunk, components):
            require(float(row[4]) == sample.component_power[comp], f"sample {key}: label of {comp} differs")
        preds.append(total)
        labels.append(sample.total_power)
        truths.append(truth.total_power("target", params[sample.config_id], sample.workload))
    m = mape_pct(preds, labels)
    with open(summary_path, newline="") as fh:
        summary = list(csv.DictReader(fh))
    require(len(summary) == 1, "summary must have one row")
    require(close(float(summary[0]["mape_percent"]), m), f"summary MAPE {summary[0]['mape_percent']} != recomputed {m!r}")
    r = pearson(preds, labels)
    require(close(float(summary[0]["pearson_r"]), r), f"summary R {summary[0]['pearson_r']} != recomputed {r!r}")
    truth_mape = mape_pct(preds, truths)
    require(truth_mape < truth_bound_pct, f"MAPE against noise-free truth {truth_mape:.3f}% >= {truth_bound_pct}%")
    return m


# --- few-shot experiment ----------------------------------------------------------


def check_experiment(results, target, methods, ks, seeds) -> dict[str, float]:
    """Checks run_experiment's results; returns the mean MAPE of firepower
    and of its no-retrain ablation over the cells.

    Firepower beating its ablation on the mean holds over many seeds but
    not on every one, so that comparison is reported, not required.
    """
    expected = {(m, k, s) for m in methods for k in ks for s in seeds}
    got = [(r.method, r.k, r.seed) for r in results]
    require(len(got) == len(expected) and set(got) == expected, f"{len(got)} results, expected {len(expected)}")
    labels = {(s.config_id, s.workload): s.total_power for s in target.samples}
    ids = [c.id for c in target.configurations]
    mapes = {}
    for r in results:
        labeled = set(labeled_draw(ids, r.k, r.seed))
        keys = [(c, w) for c, w, _, _ in r.per_sample]
        held_out = sorted(k for k in labels if k[0] not in labeled)
        require(sorted(keys) == held_out, f"{r.method} k={r.k}: held-out set is not the complement of the labeled draw")
        require(all(label == labels[(c, w)] for c, w, _, label in r.per_sample), f"{r.method} k={r.k}: labels differ")
        preds = [p for _, _, p, _ in r.per_sample]
        truth = [label for _, _, _, label in r.per_sample]
        require(all(math.isfinite(p) for p in preds), f"{r.method} k={r.k}: nonfinite prediction")
        require(close(r.mape_percent, mape_pct(preds, truth)), f"{r.method} k={r.k}: MAPE differs from recomputation")
        require(close(r.pearson_r, pearson(preds, truth)), f"{r.method} k={r.k}: R differs from recomputation")
        mapes[(r.method, r.k, r.seed)] = r.mape_percent
    cells = [(k, s) for k in ks for s in seeds]
    for k, s in cells:
        fp = mapes[("firepower", k, s)]
        for base in ("mcpat_calib", "mcpat_calib_component"):
            require(fp < mapes[(base, k, s)], f"k={k} seed={s}: firepower {fp:.3f}% not below {base} {mapes[(base, k, s)]:.3f}%")
    return {
        "mape_pct": float(np.mean([mapes[("firepower", k, s)] for k, s in cells])),
        "no_retrain_mape_pct": float(np.mean([mapes[("firepower_no_retrain", k, s)] for k, s in cells])),
    }
