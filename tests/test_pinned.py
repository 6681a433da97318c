"""Pinned outputs: one experiment cell and the Retrain set of the default
synthetic pair (seed 0, 20-tree GBTs), recorded once and held fixed so
that refactors and engine changes cannot move a prediction unnoticed."""

import pytest

from firepower.harness import run_experiment
from firepower.knowledge import RETRAIN

# (MAPE %, Pearson R) of every method at k = 2, seed 0.
PINNED_CELL = {
    "firepower": (2.1496619640328958, 0.9985322117514529),
    "firepower_no_retrain": (4.703906769584022, 0.9938878000338546),
    "mcpat_calib": (16.79907564650673, 0.8825184787085784),
    "mcpat_calib_component": (18.19840313287421, 0.8396922743589652),
    "mcpat_calib_component_transfer": (5.68969869497671, 0.9794778260990458),
    "mcpat_calib_transfer": (11.753319495811091, 0.9135235937653357),
}

PINNED_RETRAIN = {
    "BPTAGE": "FetchWidth",
    "BPBTB": "FetchWidth",
    "BPOthers": "FetchWidth",
    "ICacheTagArray": "DCache/ICacheWay",
    "ICacheDataArray": "FetchWidth",
    "RNU": "DecodeWidth",
    "Int ISU": "DecodeWidth",
    "FU Pool": "Mem/FpIssueWidth",
    "D-TLB": "DTLBEntry",
    "DCacheMSHR": "MSHREntry",
}


def test_pinned_experiment_cell(synth_pair, small_hp):
    ds_known, ds_target, _ = synth_pair
    results = run_experiment(ds_known, ds_target, ks=[2], seeds=[0], hp=small_hp)
    got = {r.method: (r.mape_percent, r.pearson_r) for r in results}
    assert set(got) == set(PINNED_CELL)
    for method, (m, r) in PINNED_CELL.items():
        assert got[method][0] == pytest.approx(m, rel=1e-9, abs=0), method
        assert got[method][1] == pytest.approx(r, rel=1e-9, abs=0), method


def test_pinned_retrain_set(kb0):
    retrain = {
        name: ck.strategy.param
        for name, ck in kb0.per_component.items()
        if ck.strategy.kind == RETRAIN
    }
    assert retrain == PINNED_RETRAIN
