"""End-to-end acceptance checks.

Each test prints a single [PASS]/[FAIL] line (visible with pytest -s) and
asserts the same condition, so the suite doubles as a readable report.
"""

import copy
import time

import numpy as np
import pytest

import firepower as fp
from firepower.application import (
    EffectiveHardwareModel,
    build_target_model,
    load_model,
    model_to_dict,
    save_model,
    train_event_model,
)
from firepower.baselines import METHOD_KEYS, TransferWrapper
from firepower.cli import main
from firepower.dataset import (
    Dataset,
    PowerSample,
    dataset_from_dict,
    dataset_to_dict,
    design_matrix,
    few_shot_split,
    load_dataset,
    save_dataset,
)
from firepower.generalization import HIGH, LOW, evaluate_generalization
from firepower.harness import (
    _method_predictions,
    choose_labeled_configs,
    run_experiment,
    summarize,
)
from firepower.knowledge import (
    RETRAIN,
    extract_knowledge,
    knowledge_base_to_dict,
    load_knowledge_base,
    save_knowledge_base,
)
from firepower.metrics import mape, pearson_r
from firepower.trees import GbtHyperparams, fit_gbt, fit_linear_one_feature, gbt_to_dict

from conftest import feature_row, tiny_doc, with_samples

SEEDS = list(range(10))
KS = [2, 3, 4]


def check(name: str, ok: bool, detail: str = ""):
    tag = "PASS" if ok else "FAIL"
    print(f"[{tag}] {name}" + (f": {detail}" if detail else ""))
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def ordering_run():
    spec = fp.default_spec(seed=0)  # structure-faithful, 1% noise
    ds_known, ds_target, _ = fp.generate_pair(spec)
    start = time.monotonic()
    results = run_experiment(ds_known, ds_target, ks=KS, seeds=SEEDS)
    elapsed = time.monotonic() - start
    return results, elapsed


def test_method_ordering(ordering_run):
    results, elapsed = ordering_run
    summary = summarize(results)
    mean = lambda m, k: summary[(m, k)][0]  # noqa: E731

    chain_ok = all(
        mean("firepower", k) < mean("firepower_no_retrain", k)
        and mean("firepower", k) < mean("mcpat_calib_component", k) < mean("mcpat_calib", k)
        for k in KS
    )
    per_seed = {(r.method, r.k, r.seed): r.mape_percent for r in results}
    wins = sum(
        all(
            per_seed[("firepower", 2, s)] < per_seed[(m, 2, s)]
            for m in METHOD_KEYS
            if m != "firepower"
        )
        for s in SEEDS
    )
    detail = (
        f"k=2 means fp={mean('firepower', 2):.2f} "
        f"no_retrain={mean('firepower_no_retrain', 2):.2f} "
        f"component={mean('mcpat_calib_component', 2):.2f} "
        f"monolithic={mean('mcpat_calib', 2):.2f}; "
        f"k=2 wins {wins}/10; runtime {elapsed:.0f}s"
    )
    check("method ordering", chain_ok and wins >= 8 and elapsed < 300.0, detail)


def test_few_shot_monotonicity(ordering_run):
    results, _ = ordering_run
    summary = summarize(results)
    m = {k: summary[("firepower", k)][0] for k in KS}
    ok = m[4] <= m[3] + 1.0 and m[3] <= m[2] + 1.0
    check(
        "few-shot monotonicity",
        ok,
        f"mean MAPE k=4 {m[4]:.3f}, k=3 {m[3]:.3f}, k=2 {m[2]:.3f} (1pp slack)",
    )


def test_strategy_selection_fidelity(tmp_path, capsys):
    data = tmp_path / "data"
    assert main(["synth", "--seed", "0", "--out-dir", str(data)]) == 0
    kb_path = tmp_path / "kb.json"
    assert main(["extract", "--known", str(data / "known.json"), "--out", str(kb_path)]) == 0
    lines = capsys.readouterr().out.splitlines()

    printed = {}
    for line in lines[1:]:
        name = line[:16].strip()
        rest = line[16:].split()
        if rest and rest[0] in ("Retrain", "NoRetrain"):
            printed[name] = (rest[0], rest[1] if rest[0] == "Retrain" else None)
    expected = {
        c.name: ("Retrain", c.important_param) if c.important_param else ("NoRetrain", None)
        for c in fp.builtin_component_table()
    }
    mismatches = [n for n in expected if printed.get(n) != expected[n]]
    check(
        "strategy-selection fidelity",
        len(printed) == 22 and not mismatches,
        f"22-component table reproduced; mismatches: {mismatches or 'none'}",
    )


def test_importance_correctness():
    good_seeds = 0
    sums_ok = True
    for seed in SEEDS:
        ds_known, _, _ = fp.generate_pair(fp.default_spec(seed=seed))
        kb = extract_knowledge(ds_known)
        dominant_ok = True
        for comp in ds_known.component_table:
            ck = kb.per_component[comp.name]
            if abs(sum(ck.importance.values()) - 1.0) > 1e-12:
                sums_ok = False
            if comp.important_param and ck.importance[comp.important_param] <= 0.95:
                dominant_ok = False
        good_seeds += dominant_ok
    check(
        "importance correctness",
        good_seeds >= 9 and sums_ok,
        f"dominant importance > 0.95 in {good_seeds}/10 seeds; sums within 1e-12",
    )


def test_generalization_gate():
    flagged = ("BPTAGE", "LSU")
    good_seeds = 0
    max_drift = 0.0
    for seed in SEEDS:
        spec = fp.default_spec(
            seed=seed, dissimilar=flagged, proportional_only=True, n_known_configs=40
        )
        ds_known, ds_target, _ = fp.generate_pair(spec)
        kb = extract_knowledge(ds_known)
        accessible, _ = few_shot_split(ds_target, choose_labeled_configs(ds_target, 4, seed))
        report = evaluate_generalization(kb, accessible)
        ok = all(
            v.verdict == (LOW if name in flagged else HIGH)
            for name, v in report.per_component.items()
        )
        good_seeds += ok
        if seed == 0:
            scaled_ds = with_samples(
                accessible,
                tuple(
                    PowerSample(
                        config_id=s.config_id,
                        workload=s.workload,
                        total_power=s.total_power * 3.7,
                        component_power={k: v * 3.7 for k, v in s.component_power.items()},
                        event_stats=s.event_stats,
                    )
                    for s in accessible.samples
                ),
            )
            scaled = evaluate_generalization(kb, scaled_ds)
            max_drift = max(
                abs(scaled.per_component[n].observed_mape - v.observed_mape)
                for n, v in report.per_component.items()
            )
    check(
        "generalization gate",
        good_seeds >= 9 and max_drift <= 1e-9,
        f"correct verdicts in {good_seeds}/10 seeds; scaling drift {max_drift:.2e}",
    )


def test_event_model_ratio_contract():
    ds = dataset_from_dict(tiny_doc())
    comp = ds.component("Front")
    flat = with_samples(ds, tuple(s for s in ds.samples if s.workload == "w0"))
    x = [float(cfg.params["FetchWidth"]) for cfg in flat.configurations]
    y = [
        [s for s in flat.samples if s.config_id == cfg.id][0].component_power["Front"]
        for cfg in flat.configurations
    ]
    j = comp.hw_params.index("FetchWidth")
    hw = EffectiveHardwareModel(fit_linear_one_feature(x, y, feature_index=j))
    ev = train_event_model(flat, comp, hw, GbtHyperparams())
    preds = list(ev.predict_many(design_matrix(flat, comp)))
    ok = all(0.99 <= p <= 1.01 for p in preds)
    check(
        "event-model ratio contract",
        ok,
        f"training-row predictions in [{min(preds):.4f}, {max(preds):.4f}]",
    )


def test_transfer_formula():
    source = lambda X: 3.0 * X[:, 0] + 1.0  # noqa: E731
    pool = [[1.0], [5.0]]
    labels = [8.0, 40.0]
    w = TransferWrapper.build(source, pool, labels)
    cases = [(2.0, 0), (4.5, 1), (10.0, 1)]
    preds = w.predict_many([[x] for x, _ in cases])
    worst = 0.0
    for (x, j), pred in zip(cases, preds):
        expected = (3.0 * x + 1.0) / (3.0 * pool[j][0] + 1.0) * labels[j]
        worst = max(worst, abs(pred - expected))
    check("transfer formula", worst <= 1e-12, f"max |error| {worst:.1e} over hand cases")


def test_gbt_engine():
    rng = np.random.default_rng(0)
    X = rng.uniform(0, 5, size=(25, 3))
    y = X[:, 0] * 2.0 + rng.normal(0, 0.2, 25)
    a = fit_gbt(X, y)
    b = fit_gbt(X, y)
    deterministic = gbt_to_dict(a) == gbt_to_dict(b)
    monotone = all(
        later <= earlier + 1e-9
        for earlier, later in zip(a.training_sse, a.training_sse[1:])
    )
    defaults = (
        a.hyperparams.n_estimators == 100
        and a.hyperparams.max_depth == 3
        and len(a.trees) == 100
    )
    check(
        "gbt engine",
        deterministic and monotone and defaults,
        f"refit identical={deterministic}, monotone SSE={monotone}, "
        f"defaults 100 trees / depth 3={defaults}",
    )


def test_metrics_against_oracles(tmp_path, synth_pair, kb0, small_hp):
    rng = np.random.default_rng(42)
    worst_m = worst_r = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 12))
        preds = rng.uniform(-3, 3, n)
        labels = rng.uniform(0.1, 3, n)
        oracle_m = 100.0 * sum(abs(p - l) / l for p, l in zip(preds, labels)) / n
        worst_m = max(worst_m, abs(mape(preds, labels) - oracle_m))
        dp, dl = preds - preds.mean(), labels - labels.mean()
        denom = np.sqrt((dp * dp).sum() * (dl * dl).sum())
        if denom > 0 and (dp * dp).sum() > 0 and (dl * dl).sum() > 0:
            worst_r = max(worst_r, abs(pearson_r(preds, labels) - float((dp * dl).sum() / denom)))

    _, ds_target, _ = synth_pair
    train, test = few_shot_split(ds_target, choose_labeled_configs(ds_target, 3, 0))
    # The batched predictor the harness scores and the scalar one CLI
    # predict writes agree bit for bit, also after a save/load round trip.
    model = build_target_model(kb0, train, small_hp)
    save_model(model, tmp_path / "model.json")
    batched = model.predict_components(test)
    mismatches = 0
    configs = {c.id: c for c in test.configurations}
    for m in (model, load_model(tmp_path / "model.json")):
        again = m.predict_components(test)
        for i, sample in enumerate(test.samples):
            cfg = configs[sample.config_id]
            for j, comp in enumerate(m.component_table):
                scalar = m.predict_component_power(comp, feature_row(comp, cfg, sample.event_stats))
                mismatches += int(again[i, j] != scalar or batched[i, j] != scalar)
    # The harness total is the row sum in component-table order.
    totals = _method_predictions("firepower", train, test, small_hp, {}, model)
    additive = len(totals) == len(test.samples)
    for total, row in zip(totals, batched):
        acc = 0.0
        for value in row:
            acc += value
        additive = additive and total == acc
    check(
        "metrics",
        worst_m <= 1e-12 and worst_r <= 1e-12 and mismatches == 0 and additive,
        f"mape err {worst_m:.1e}, pearson err {worst_r:.1e}, "
        f"{mismatches} batched/scalar mismatches over {batched.size} entries x 2 models, "
        f"harness total = table-order row sum: {additive}",
    )


def test_round_trips(tmp_path, synth_pair, kb0, small_hp):
    rng = np.random.default_rng(3)
    hp = GbtHyperparams(n_estimators=3)
    _, ds_target, _ = synth_pair
    failures = 0
    for i in range(100):
        doc = copy.deepcopy(tiny_doc())
        for s in doc["samples"]:
            for name in s["component_power"]:
                s["component_power"][name] *= float(rng.uniform(0.8, 1.2))
            s["total_power"] = sum(s["component_power"].values())
        ds = dataset_from_dict(doc)
        save_dataset(ds, tmp_path / "ds.json")
        if dataset_to_dict(load_dataset(tmp_path / "ds.json")) != dataset_to_dict(ds):
            failures += 1

        kb = extract_knowledge(ds, hp, threshold=float(rng.uniform(0.3, 0.99)))
        save_knowledge_base(kb, tmp_path / "kb.json")
        if knowledge_base_to_dict(load_knowledge_base(tmp_path / "kb.json")) != (
            knowledge_base_to_dict(kb)
        ):
            failures += 1

        train, _ = few_shot_split(ds, [ds.config_ids()[i % 3]])
        model = build_target_model(kb, train, hp)
        save_model(model, tmp_path / "model.json")
        if model_to_dict(load_model(tmp_path / "model.json")) != model_to_dict(model):
            failures += 1
    check(
        "round-trips",
        failures == 0,
        f"100 randomized dataset/kb/model instances, {failures} mismatches",
    )
