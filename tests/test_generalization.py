
import numpy as np
import pytest

import firepower as fp
from firepower.dataset import Dataset, PowerSample
from firepower.errors import ModelError
from firepower.generalization import (
    HIGH,
    LOW,
    ComponentVerdict,
    GeneralizationReport,
    evaluate_generalization,
    ideal_scaling_factor,
)

from conftest import with_samples


def test_scaling_factor_identity():
    assert ideal_scaling_factor([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == pytest.approx(1.0)


def test_scaling_factor_exact_proportionality():
    assert ideal_scaling_factor([1.0, 2.0], [2.0, 4.0]) == pytest.approx(2.0)


def test_scaling_factor_matches_golden_section_scan():
    rng = np.random.default_rng(0)
    for _ in range(20):
        preds = rng.uniform(0.5, 5.0, 12)
        labels = rng.uniform(0.5, 5.0, 12)
        s = ideal_scaling_factor(preds, labels)

        err = lambda c: float(((c * preds - labels) ** 2).sum())  # noqa: E731
        lo, hi = 0.0, 20.0
        phi = (np.sqrt(5.0) - 1.0) / 2.0
        while hi - lo > 1e-9:
            a = hi - phi * (hi - lo)
            b = lo + phi * (hi - lo)
            if err(a) < err(b):
                hi = b
            else:
                lo = a
        assert s == pytest.approx((lo + hi) / 2.0, abs=1e-6)
        # Perturbing the minimizer can only raise the squared error.
        assert err(s) <= err(s * 1.01)
        assert err(s) <= err(s * 0.99)


def test_scaling_factor_rejects_degenerate_input():
    with pytest.raises(ModelError):
        ideal_scaling_factor([], [])
    with pytest.raises(ModelError):
        ideal_scaling_factor([0.0, 0.0], [1.0, 2.0])


def scale_labels(ds: Dataset, factor: float) -> Dataset:
    samples = tuple(
        PowerSample(
            config_id=s.config_id,
            workload=s.workload,
            total_power=s.total_power * factor,
            component_power={k: v * factor for k, v in s.component_power.items()},
            event_stats=s.event_stats,
            analytical_estimate=s.analytical_estimate,
        )
        for s in ds.samples
    )
    return with_samples(ds, samples)


def test_self_generalization_is_high(kb0, synth_pair):
    ds_known, _, _ = synth_pair
    report = evaluate_generalization(kb0, ds_known)
    for v in report.per_component.values():
        assert v.verdict == HIGH, v.component
        assert v.observed_mape < 5.0


def test_scaling_invariance(kb0, synth_pair):
    _, ds_target, _ = synth_pair
    base = evaluate_generalization(kb0, ds_target)
    scaled = evaluate_generalization(kb0, scale_labels(ds_target, 7.25))
    for name, v in base.per_component.items():
        assert abs(scaled.per_component[name].observed_mape - v.observed_mape) < 1e-9
        assert scaled.per_component[name].scaling_factor == pytest.approx(
            7.25 * v.scaling_factor
        )


def test_sample_order_invariance(kb0, synth_pair):
    _, ds_target, _ = synth_pair
    reordered = with_samples(ds_target, tuple(reversed(ds_target.samples)))
    a = evaluate_generalization(kb0, ds_target)
    b = evaluate_generalization(kb0, reordered)
    for name, v in a.per_component.items():
        assert b.per_component[name].observed_mape == pytest.approx(v.observed_mape)


def test_dissimilar_component_flagged_low():
    # A dense known-architecture set keeps inherited-model interpolation
    # error well under the gate for the structurally similar components.
    spec = fp.default_spec(
        seed=3, dissimilar=("BPTAGE", "LSU"), proportional_only=True, n_known_configs=40
    )
    ds_known, ds_target, _ = fp.generate_pair(spec)
    kb = fp.extract_knowledge(ds_known)
    report = evaluate_generalization(kb, ds_target)
    assert report.per_component["BPTAGE"].verdict == LOW
    assert report.per_component["LSU"].verdict == LOW
    assert set(report.low_components()) == {"BPTAGE", "LSU"}


def test_verdict_follows_threshold():
    report = GeneralizationReport(
        per_component={
            "A": ComponentVerdict("A", 1.0, 3.0, HIGH),
            "B": ComponentVerdict("B", 1.0, 30.0, LOW),
        }
    )
    assert report.low_components() == ["B"]
    rows = report.csv_rows()
    assert rows[0] == "component,scaling_factor,mape_percent,verdict"
    assert len(rows) == 3


def test_verdicts_are_high_iff_below_threshold(kb0, synth_pair):
    _, ds_target, _ = synth_pair
    report = evaluate_generalization(kb0, ds_target, threshold=10.0)
    for v in report.per_component.values():
        assert (v.verdict == HIGH) == (v.observed_mape < 10.0)
