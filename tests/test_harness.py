import numpy as np
import pytest

from firepower.baselines import METHOD_KEYS
from firepower.dataset import dataset_from_dict, dataset_to_dict, load_dataset, save_dataset
from firepower.errors import ValidationError
from firepower.harness import EvalResult, choose_labeled_configs, run_experiment, summarize
from firepower.metrics import mape, pearson_r
from firepower.trees import GbtHyperparams

from conftest import TABLE_EDITS

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


def test_analytical_estimate_is_read_by_no_method(synth_pair, tmp_path):
    # Each sample's analytical estimate (McPAT's M) survives save and load,
    # and no method reads it: every prediction is bit-equal to the run on
    # the same data without the field.
    ds_known, ds_target, _ = synth_pair

    def with_estimates(ds, name):
        doc = dataset_to_dict(ds)
        samples = doc["samples"]
        samples["analytical_estimate"] = [0.8 * total for total in samples["total_power"]]
        save_dataset(dataset_from_dict(doc), tmp_path / name)
        loaded = load_dataset(tmp_path / name)
        assert [s.analytical_estimate for s in loaded.samples] == samples["analytical_estimate"]
        return loaded

    known, target = with_estimates(ds_known, "known.json"), with_estimates(ds_target, "target.json")
    assert all(s.analytical_estimate is None for s in ds_known.samples + ds_target.samples)
    plain = run_experiment(ds_known, ds_target, ks=[2], seeds=[0], hp=tiny_hp)
    marked = run_experiment(known, target, ks=[2], seeds=[0], hp=tiny_hp)
    assert [r.method for r in plain] == sorted(METHOD_KEYS)
    assert repr(marked) == repr(plain)


def test_unknown_method_rejected(synth_pair):
    ds_known, ds_target, _ = synth_pair
    with pytest.raises(ValidationError):
        run_experiment(ds_known, ds_target, methods=["gradient_descent"], seeds=[0])


def test_too_few_target_configs(synth_pair):
    ds_known, ds_target, _ = synth_pair
    with pytest.raises(ValidationError):
        run_experiment(ds_known, ds_target, ks=[len(ds_target.configurations)], seeds=[0])


@pytest.mark.parametrize("ks", [[2, 0], [2, -1], []], ids=["0", "-1", "empty"])
def test_k_below_one_rejected(synth_pair, ks):
    ds_known, ds_target, _ = synth_pair
    with pytest.raises(ValidationError, match="at least 1"):
        run_experiment(ds_known, ds_target, ks=ks, seeds=[0])


@pytest.mark.parametrize(
    "kwargs", [{"ks": [2, 2]}, {"methods": ["mcpat_calib", "mcpat_calib"]}], ids=["ks", "methods"]
)
def test_repeated_ks_or_methods_rejected(synth_pair, kwargs):
    ds_known, ds_target, _ = synth_pair
    with pytest.raises(ValidationError, match="must not repeat"):
        run_experiment(ds_known, ds_target, seeds=[0], **kwargs)


def test_eval_result_sort_key():
    r = EvalResult("m", 2, 1, 5.0, 0.9, [])
    assert r.sort_key() == ("m", 2, 1)


@pytest.mark.parametrize("edit,message", TABLE_EDITS)
def test_experiment_needs_matching_component_tables(synth_pair, edit, message):
    # Checked before any fit: transfer pairs parts by name, and FirePower
    # reads the kb's GBTs by position.
    ds_known, ds_target, _ = synth_pair
    doc = dataset_to_dict(ds_target)
    edit(doc)
    with pytest.raises(ValidationError) as err:
        run_experiment(ds_known, dataset_from_dict(doc), ks=[2], hp=tiny_hp)
    assert str(err.value).startswith("known dataset and target dataset ") and message in str(err.value)
