"""Tests of the benchmark itself: reduced-size runs of each workload through
the same measuring loop and output checks, and corrupted outputs that the
checks must reject, so that they cannot pass vacuously.

    python3 -m pytest perfbench -q
"""

import csv
import json
import os
import shutil
import signal
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import checks  # noqa: E402
import hostspeed  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from firepower import application, dataset, harness, trees  # noqa: E402
from firepower.trees import GbtHyperparams  # noqa: E402

SMALL_CHAIN = workloads.ChainShape(n_known=15, n_target=6, n_workloads=3, k=2, truth_bound_pct=20.0)




@pytest.fixture(scope="module")
def chain(tmp_path_factory):
    wl = workloads.Chain(SMALL_CHAIN, seed=0, workdir=str(tmp_path_factory.mktemp("chain")))
    tracer = spans.Tracer()
    return wl, run.measure(wl, 0.0, tracer), tracer


@pytest.fixture(scope="module")
def sweep():
    wl = workloads.Sweep(seed=0, ks=(2, 3), hp=GbtHyperparams(n_estimators=30))
    return wl, run.measure(wl, 0.0)


def test_reduced_chain_passes_checks(chain):
    wl, result, _ = chain
    assert result["correct"], result["errors"]
    assert result["failed"] == 0 and result["attempted"] == 6
    assert [r["traced"] for r in result["rounds"]] == [False, True]
    assert all(r["mape_pct"] > 0 for r in result["rounds"])


def test_reduced_sweep_passes_checks(sweep):
    wl, result = sweep
    assert result["correct"], result["errors"]
    assert result["failed"] == 0 and result["attempted"] == 1
    assert len(wl.results) == len(harness.METHOD_KEYS) * 2


def test_traced_chain_reports_its_layers(chain):
    wl, result, tracer = chain
    rounds = [r for r in result["rounds"] if "round_s" in r]
    values = run.layer_metrics(tracer, rounds[1:], rounds[:1])
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = {m["name"] for m in json.load(fh)["per_layer"]}
    assert set(values) <= declared
    for name in ("dataset.load_s", "trees.fit_s", "trees.predict_s", "knowledge.extract_s", "knowledge.save_s",
                 "application.build_s", "application.hw_predict_s", "generalization.evaluate_s", "cli.predict_s"):
        assert values[name] > 0, name
    test_samples = len(wl.test.samples)
    assert values["application.predict_component_calls"] == 22 * test_samples
    assert values["trees.fits"] == 44
    assert values["dataset.samples_loaded"] == len(wl.known.samples) + SMALL_CHAIN.k * 3 + test_samples


def test_self_times_add_up_to_the_stage(chain):
    _, _, tracer = chain
    stages = sum(tracer.total_s[n] for n in ("cli.extract", "cli.build", "cli.predict"))
    assert sum(tracer.self_s.values()) + tracer.bookkeeping_s == pytest.approx(stages, rel=1e-9)
    parents = {s[0]: s for s in tracer.spans}
    for span_id, parent, _, _, start, end in tracer.spans:
        if parent is not None:
            assert parents[parent][4] <= start <= end <= parents[parent][5]


def test_sampler_normalises_untraced_rounds(tmp_path):
    wl = workloads.Chain(SMALL_CHAIN, seed=1, workdir=str(tmp_path))
    handler = signal.getsignal(signal.SIGALRM)
    sampler = hostspeed.Sampler(interval=0.02)
    result = run.measure(wl, 0.0, sampler=sampler)
    assert result["correct"], result["errors"]
    (r,) = result["rounds"]
    assert len(sampler.samples) > 1 and r["sampler_s"] >= sum(sampler.samples) > 0
    assert r["ref_s"] == pytest.approx(sum(sampler.samples) / len(sampler.samples))
    assert r["round_norm"] == r["round_s"] / r["ref_s"] > 0
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) == handler


def test_reference_is_fixed():
    assert hostspeed.Reference()() == hostspeed.Reference()()


def test_uninstall_restores_the_program():
    before = (trees.fit_gbt, trees.GbtModel.predict, application.build_target_model,
              harness.few_shot_split, dataset.few_shot_split)
    tracer = spans.Tracer()
    tracer.install()
    assert trees.fit_gbt is not before[0] and harness.few_shot_split is not before[3]
    tracer.uninstall()
    after = (trees.fit_gbt, trees.GbtModel.predict, application.build_target_model,
             harness.few_shot_split, dataset.few_shot_split)
    assert after == before


# --- negative cases: corrupted outputs must be caught --------------------------------


def _rewrite_csv(path, edit):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    edit(rows)
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


def _corrupted_copy(wl, tmp_path, name):
    src = wl.paths[name]
    dst = tmp_path / name
    shutil.copy(src, dst)
    if name == "preds.csv":
        shutil.copy(src + ".summary.csv", str(dst) + ".summary.csv")
    return str(dst)


def test_altered_total_row_is_caught(chain, tmp_path):
    wl, _, _ = chain
    path = _corrupted_copy(wl, tmp_path, "preds.csv")

    def bump_total(rows):
        i = next(i for i, r in enumerate(rows) if r[2] == "Total")
        rows[i][3] = repr(float(rows[i][3]) * (1 + 1e-6))

    _rewrite_csv(path, bump_total)
    with pytest.raises(checks.CheckError, match="Total"):
        checks.check_predictions(path, path + ".summary.csv", wl.test, wl.truth, 100.0)


def test_altered_summary_is_caught(chain, tmp_path):
    wl, _, _ = chain
    path = _corrupted_copy(wl, tmp_path, "preds.csv")
    _rewrite_csv(path + ".summary.csv", lambda rows: rows[1].__setitem__(0, repr(float(rows[1][0]) + 1e-6)))
    with pytest.raises(checks.CheckError, match="summary MAPE"):
        checks.check_predictions(path, path + ".summary.csv", wl.test, wl.truth, 100.0)


def test_truth_bound_is_enforced(chain):
    wl, _, _ = chain
    with pytest.raises(checks.CheckError, match="noise-free truth"):
        checks.check_predictions(wl.paths["preds.csv"], wl.paths["preds.csv"] + ".summary.csv",
                                 wl.test, wl.truth, 1e-6)


@pytest.mark.parametrize("flip_to_retrain", [False, True])
def test_flipped_retrain_decision_is_caught(chain, flip_to_retrain):
    wl, _, _ = chain
    with open(wl.paths["kb.json"]) as fh:
        doc = json.load(fh)
    kinds = {name: e["strategy"]["kind"] for name, e in doc["per_component"].items()}
    want = "no_retrain" if flip_to_retrain else "retrain"
    name = next(n for n, kind in kinds.items() if kind == want)
    entry = doc["per_component"][name]
    if flip_to_retrain:
        entry["strategy"] = {"kind": "retrain", "param": next(iter(entry["importance"]))}
    else:
        entry["strategy"] = {"kind": "no_retrain", "param": None}
    with pytest.raises(checks.CheckError, match=name):
        checks.check_decisions(doc, wl.known)


def test_altered_experiment_results_are_caught(sweep):
    wl, _ = sweep
    args = (wl.target, wl.methods, wl.ks, [wl.seed])
    original = list(wl.results)
    r = next(r for r in original if r.method == "firepower")

    def replaced(**changes):
        fields = {**vars(r), **changes}
        return [harness.EvalResult(**fields) if x is r else x for x in original]

    c, w, p, label = r.per_sample[0]
    with pytest.raises(checks.CheckError, match="labels differ"):
        checks.check_experiment(replaced(per_sample=[(c, w, p, label * 1.01)] + r.per_sample[1:]), *args)
    with pytest.raises(checks.CheckError, match="MAPE differs"):
        checks.check_experiment(replaced(mape_percent=r.mape_percent * 1.001), *args)
    with pytest.raises(checks.CheckError, match="complement"):
        checks.check_experiment(replaced(per_sample=r.per_sample[1:]), *args)
    worse = [(c, w, p * 1.5, y) for c, w, p, y in r.per_sample]
    with pytest.raises(checks.CheckError, match="not below"):
        m = checks.mape_pct([x[2] for x in worse], [x[3] for x in worse])
        pr = checks.pearson([x[2] for x in worse], [x[3] for x in worse])
        checks.check_experiment(replaced(per_sample=worse, mape_percent=m, pearson_r=pr), *args)
    assert checks.check_experiment(original, *args)["mape_pct"] == wl.check()["mape_pct"] > 0


def test_bare_directory_exits_nonzero(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "dse_large", "--seed", "0", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert done.stdout == ""
