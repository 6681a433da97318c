import dataclasses
import hashlib
import json

import pytest

import firepower as fp
from firepower.dataset import dataset_to_dict
from firepower.errors import ValidationError
from firepower.synthgen import (
    PARAM_RANGES,
    GroundTruth,
    default_spec,
    generate_pair,
    load_spec,
    save_spec,
    spec_from_dict,
    spec_to_dict,
)

from conftest import format1_doc


def test_default_spec_counts():
    spec = default_spec(seed=0)
    assert len(spec.components) == 22
    assert spec.n_known_configs == 15
    assert spec.n_target_configs == 10
    assert len(spec.workload_base) == spec.n_workloads == 8


def test_dominant_components_are_linear():
    spec = default_spec(seed=1)
    for gen in spec.components:
        if gen.dominant_param is not None:
            assert gen.hw_form_known == "linear"
            assert gen.ref_param == gen.dominant_param
        assert gen.arch_scale_known > 0
        assert gen.arch_scale_target > 0


def test_same_seed_reproduces_datasets():
    spec = default_spec(seed=4)
    a_known, a_target, _ = generate_pair(spec)
    b_known, b_target, _ = generate_pair(spec)
    assert dataset_to_dict(a_known) == dataset_to_dict(b_known)
    assert dataset_to_dict(a_target) == dataset_to_dict(b_target)


def test_generated_configs_respect_ranges(synth_pair):
    ds_known, ds_target, _ = synth_pair
    for ds in (ds_known, ds_target):
        for cfg in ds.configurations:
            for name, value in cfg.params.items():
                lo, hi = PARAM_RANGES[name]
                assert lo <= value <= hi


def test_labels_sum_to_total(synth_pair):
    _, ds_target, _ = synth_pair
    for s in ds_target.samples:
        assert sum(s.component_power.values()) == pytest.approx(s.total_power)
        assert all(v > 0 for v in s.component_power.values())


def _left_fold(values):
    total = 0.0
    for v in values:
        total += v
    return total


def test_total_power_is_the_left_fold_of_the_components():
    # Not Python 3.12+'s compensated sum(): the outputs must not depend on
    # the Python version.
    spec = default_spec(seed=0)
    _, ds_target, truth = generate_pair(spec)
    for s in ds_target.samples:
        assert s.total_power == _left_fold(s.component_power.values())
        cfg = ds_target.config(s.config_id)
        parts = [
            truth.component_power("target", g.name, cfg.params, s.workload) for g in spec.components
        ]
        assert truth.total_power("target", cfg.params, s.workload) == _left_fold(parts)


def test_noise_free_samples_match_ground_truth():
    spec = default_spec(seed=2, noise_sigma=0.0)
    _, ds_target, truth = generate_pair(spec)
    for s in ds_target.samples:
        cfg = ds_target.config(s.config_id)
        for name, power in s.component_power.items():
            assert power == pytest.approx(
                truth.component_power("target", name, cfg.params, s.workload), rel=1e-12
            )
        assert s.total_power == pytest.approx(
            truth.total_power("target", cfg.params, s.workload), rel=1e-12
        )


def test_noisy_samples_stay_close_to_truth(synth_pair):
    _, ds_target, truth = synth_pair
    sigma = truth.spec.noise_sigma
    for s in ds_target.samples[:40]:
        cfg = ds_target.config(s.config_id)
        for name, power in s.component_power.items():
            expected = truth.component_power("target", name, cfg.params, s.workload)
            assert abs(power / expected - 1.0) <= 5.0 * sigma


def test_truth_rejects_unknown_workload(synth_pair):
    _, ds_target, truth = synth_pair
    cfg = ds_target.configurations[0]
    with pytest.raises(ValidationError):
        truth.component_power("target", "RNU", cfg.params, "w99")


def test_proportional_only_targets():
    spec = default_spec(seed=6, proportional_only=True)
    for gen in spec.components:
        assert gen.hw_coeffs_target == gen.hw_coeffs_known
        assert gen.event_coeffs_target == gen.event_coeffs_known
        assert gen.hw_form_target == gen.hw_form_known


def test_dissimilar_flag_reverses_target_form():
    spec = default_spec(seed=6, dissimilar=("BPTAGE",))
    gen = spec.component("BPTAGE")
    assert gen.dissimilar
    assert gen.hw_form_target == "reversed"
    assert gen.hw_form_known == "linear"


def test_events_carry_configuration_signal(synth_pair):
    # The same workload on different configurations produces different
    # event-statistic values for non-flat components.
    _, ds_target, _ = synth_pair
    first, second = (cfg.id for cfg in ds_target.configurations[:2])
    a = [s for s in ds_target.samples if s.config_id == first][0]
    b = [s for s in ds_target.samples if s.config_id == second][0]
    assert a.workload == b.workload
    assert a.event_stats["rnu_act"] != b.event_stats["rnu_act"]


def test_spec_round_trip(tmp_path):
    spec = default_spec(seed=9, dissimilar=("LSU",))
    path = tmp_path / "spec.json"
    save_spec(spec, path)
    again = load_spec(path)
    assert spec_to_dict(again) == spec_to_dict(spec)
    assert again == spec


def test_spec_dict_round_trip():
    spec = default_spec(seed=10)
    assert spec_from_dict(spec_to_dict(spec)) == spec


def test_generate_rejects_invalid_spec():
    spec = default_spec(seed=0)
    with pytest.raises(ValidationError):
        generate_pair(dataclasses.replace(spec, n_known_configs=1))
    with pytest.raises(ValidationError):
        generate_pair(dataclasses.replace(spec, n_workloads=3))


def test_structural_fidelity_noise_free(small_hp):
    # With faithful structure and zero noise the pipeline should nail the
    # held-out totals at k=4.
    from firepower.application import build_target_model
    from firepower.dataset import few_shot_split
    from firepower.harness import choose_labeled_configs
    from firepower.metrics import mape

    spec = default_spec(seed=1, noise_sigma=0.0)
    ds_known, ds_target, _ = generate_pair(spec)
    kb = fp.extract_knowledge(ds_known, small_hp)
    train, test = few_shot_split(ds_target, choose_labeled_configs(ds_target, 4, 0))
    model = build_target_model(kb, train, small_hp)
    preds = model.predict_components(test).sum(axis=1)
    assert mape(preds, [s.total_power for s in test.samples]) < 3.0


@pytest.mark.parametrize(
    "seed, options, digest",
    [
        (0, {}, "e5f6702b41395f4e85297902f02a1a9f9ed72607fc28771cf3240ca8eb9b1170"),
        (
            7,
            {"proportional_only": True, "noise_sigma": 0.0},
            "950f737cbaa29fbe48f45c5213b4dd0387bedb229032f9561592acdc4bf315ee",
        ),
        (
            5,
            {
                "dissimilar": ("BPTAGE", "D-TLB", "ROB"),
                "n_known_configs": 6,
                "n_target_configs": 4,
                "n_workloads": 3,
            },
            "e90b2c95f2ff56089b00414dfe049fffd8e52617af1d2c908bcb26e98c9e83fb",
        ),
        (
            0,
            {"n_known_configs": 60, "n_target_configs": 40, "n_workloads": 100},
            "dabfc9b33ff595d4d2b2cea4bf7a338042098194a9ee9cab2166b5e5ff1b6d57",
        ),
    ],
)
def test_generated_pair_is_pinned(seed, options, digest):
    # The spec and both datasets, byte for byte: a change to the draw
    # layout or to any generating function shows here.  The datasets are
    # hashed in format 1's layout, which holds the same numbers.
    spec = default_spec(seed=seed, **options)
    known, target, _ = generate_pair(spec)
    doc = [spec_to_dict(spec), format1_doc(dataset_to_dict(known)), format1_doc(dataset_to_dict(target))]
    assert hashlib.sha256(json.dumps(doc).encode()).hexdigest() == digest
