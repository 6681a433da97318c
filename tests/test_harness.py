import numpy as np
import pytest

from firepower.errors import ValidationError
from firepower.harness import EvalResult, choose_labeled_configs, run_experiment, summarize
from firepower.metrics import mape, pearson_r
from firepower.trees import GbtHyperparams

tiny_hp = GbtHyperparams(n_estimators=10)


@pytest.fixture(scope="module")
def small_run(synth_pair):
    ds_known, ds_target, _ = synth_pair
    return run_experiment(
        ds_known,
        ds_target,
        methods=["mcpat_calib", "firepower"],
        ks=[2, 3],
        seeds=[0, 1],
        hp=tiny_hp,
    )


def test_choice_is_deterministic(synth_pair):
    _, ds_target, _ = synth_pair
    a = choose_labeled_configs(ds_target, 3, 7)
    b = choose_labeled_configs(ds_target, 3, 7)
    assert a == b
    assert len(set(a)) == 3
    assert set(a) <= set(ds_target.config_ids())


def test_different_seeds_vary(synth_pair):
    _, ds_target, _ = synth_pair
    draws = {tuple(choose_labeled_configs(ds_target, 2, s)) for s in range(10)}
    assert len(draws) > 1


def test_results_shape_and_order(small_run):
    assert len(small_run) == 2 * 2 * 2
    keys = [r.sort_key() for r in small_run]
    assert keys == sorted(keys)


def test_metrics_recomputable_from_per_sample(small_run):
    for r in small_run:
        preds = [p for _, _, p, _ in r.per_sample]
        labels = [l for _, _, _, l in r.per_sample]
        assert r.mape_percent == pytest.approx(mape(preds, labels))
        assert r.pearson_r == pytest.approx(pearson_r(preds, labels))


def test_split_isolation(small_run, synth_pair):
    _, ds_target, _ = synth_pair
    for r in small_run:
        labeled = set(choose_labeled_configs(ds_target, r.k, r.seed))
        test_configs = {cid for cid, _, _, _ in r.per_sample}
        assert labeled.isdisjoint(test_configs)
        assert labeled | test_configs == set(ds_target.config_ids())


def test_rerun_is_identical(small_run, synth_pair):
    ds_known, ds_target, _ = synth_pair
    again = run_experiment(
        ds_known,
        ds_target,
        methods=["mcpat_calib", "firepower"],
        ks=[2, 3],
        seeds=[0, 1],
        hp=tiny_hp,
    )
    assert [(r.method, r.k, r.seed, r.mape_percent, r.pearson_r) for r in again] == [
        (r.method, r.k, r.seed, r.mape_percent, r.pearson_r) for r in small_run
    ]


def test_summarize_means_per_seed(small_run):
    summary = summarize(small_run)
    for (method, k), (m, r) in summary.items():
        rows = [x for x in small_run if x.method == method and x.k == k]
        assert m == pytest.approx(float(np.mean([x.mape_percent for x in rows])))
        assert r == pytest.approx(float(np.mean([x.pearson_r for x in rows])))


def test_unknown_method_rejected(synth_pair):
    ds_known, ds_target, _ = synth_pair
    with pytest.raises(ValidationError):
        run_experiment(ds_known, ds_target, methods=["gradient_descent"], seeds=[0])


def test_too_few_target_configs(synth_pair):
    ds_known, ds_target, _ = synth_pair
    with pytest.raises(ValidationError):
        run_experiment(ds_known, ds_target, ks=[len(ds_target.configurations)], seeds=[0])


@pytest.mark.parametrize("k", [0, -1])
def test_k_below_one_rejected(synth_pair, k):
    ds_known, ds_target, _ = synth_pair
    with pytest.raises(ValidationError, match="at least 1"):
        run_experiment(ds_known, ds_target, ks=[2, k], seeds=[0])


def test_eval_result_sort_key():
    r = EvalResult("m", 2, 1, 5.0, 0.9, [])
    assert r.sort_key() == ("m", 2, 1)
