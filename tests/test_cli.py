import json
import os
import sys
from pathlib import Path

import pytest

from firepower.cli import EXIT_DATA, EXIT_GATE, EXIT_OK, EXIT_USAGE, main
from firepower.metrics import mape, pearson_r

from conftest import TABLE_EDITS

HP_FLAGS = ["--n-estimators", "20"]


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """synth -> extract -> build artifacts shared by the CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "data"
    assert main(["synth", "--seed", "0", "--out-dir", str(data)]) == EXIT_OK
    kb = root / "kb.json"
    assert (
        main(["extract", "--known", str(data / "known.json"), "--out", str(kb)] + HP_FLAGS)
        == EXIT_OK
    )
    model = root / "model.json"
    assert (
        main(
            [
                "build",
                "--kb",
                str(kb),
                "--target-train",
                str(data / "target.json"),
                "--out",
                str(model),
            ]
            + HP_FLAGS
        )
        == EXIT_OK
    )
    return root


def test_synth_outputs_valid_datasets(workspace):
    from firepower.dataset import load_dataset

    known = load_dataset(workspace / "data" / "known.json")
    target = load_dataset(workspace / "data" / "target.json")
    assert len(known.configurations) == 15
    assert len(target.configurations) == 10


def test_synth_same_seed_identical(workspace, tmp_path):
    assert main(["synth", "--seed", "0", "--out-dir", str(tmp_path)]) == EXIT_OK
    for name in ("known.json", "target.json", "truth.json"):
        assert (tmp_path / name).read_text() == (workspace / "data" / name).read_text()


def test_extract_prints_strategy_table(workspace, capsys, tmp_path):
    out = tmp_path / "kb.json"
    code = main(
        ["extract", "--known", str(workspace / "data" / "known.json"), "--out", str(out)]
        + HP_FLAGS
    )
    captured = capsys.readouterr().out
    assert code == EXIT_OK
    assert "Retrain" in captured and "NoRetrain" in captured
    assert captured.count("\n") >= 23  # header + 22 components


def test_lower_threshold_selects_more_retraining(workspace, tmp_path):
    from firepower.knowledge import RETRAIN, load_knowledge_base

    known = str(workspace / "data" / "known.json")
    strict, loose = tmp_path / "strict.json", tmp_path / "loose.json"
    main(["extract", "--known", known, "--out", str(strict)] + HP_FLAGS)
    main(["extract", "--known", known, "--out", str(loose), "--threshold", "0.5"] + HP_FLAGS)

    count = lambda p: sum(  # noqa: E731
        ck.strategy.kind == RETRAIN
        for ck in load_knowledge_base(p).per_component.values()
    )
    assert count(loose) >= count(strict)


def test_build_writes_report(workspace):
    report = workspace / "model.json.generalization.csv"
    lines = report.read_text().splitlines()
    assert lines[0] == "component,scaling_factor,mape_percent,verdict"
    assert len(lines) == 23


def test_predict_csv_and_summary(workspace, tmp_path):
    out = tmp_path / "preds.csv"
    code = main(
        [
            "predict",
            "--model",
            str(workspace / "model.json"),
            "--input",
            str(workspace / "data" / "target.json"),
            "--out",
            str(out),
        ]
    )
    assert code == EXIT_OK
    lines = out.read_text().splitlines()
    assert lines[0] == "config_id,workload,component,predicted_mw,label_mw"
    # 22 component rows + 1 total row per sample
    assert len(lines) == 1 + 80 * 23

    summary = (tmp_path / "preds.csv.summary.csv").read_text().splitlines()
    assert summary[0] == "mape_percent,pearson_r"
    m, r = (float(v) for v in summary[1].split(","))
    preds, labels = [], []
    for line in lines[1:]:
        cid, workload, comp, pred, label = line.split(",")
        if comp == "Total":
            preds.append(float(pred))
            labels.append(float(label))
    assert m == pytest.approx(mape(preds, labels))
    assert r == pytest.approx(pearson_r(preds, labels))


def test_experiment_outputs(workspace, tmp_path):
    out = tmp_path / "exp"
    code = main(
        [
            "experiment",
            "--known",
            str(workspace / "data" / "known.json"),
            "--target",
            str(workspace / "data" / "target.json"),
            "--ks",
            "2",
            "--seeds",
            "2",
            "--methods",
            "mcpat_calib,firepower",
            "--out",
            str(out),
        ]
        + HP_FLAGS
    )
    assert code == EXIT_OK
    lines = (out / "results.csv").read_text().splitlines()
    assert lines[0] == "method,k,seed,mape_percent,pearson_r"
    assert len(lines) == 1 + 2 * 2
    per_sample = sorted(p.name for p in (out / "per_sample").iterdir())
    assert per_sample == [
        "firepower_k2_seed0.csv",
        "firepower_k2_seed1.csv",
        "mcpat_calib_k2_seed0.csv",
        "mcpat_calib_k2_seed1.csv",
    ]
    first = (out / "per_sample" / per_sample[0]).read_text().splitlines()
    assert first[0] == "config_id,workload,component,predicted_mw,label_mw"


def test_gate_failure_exit_code(workspace, tmp_path):
    # A harsh gate threshold forces Low verdicts and exit code 3.
    code = main(
        [
            "build",
            "--kb",
            str(workspace / "kb.json"),
            "--target-train",
            str(workspace / "data" / "target.json"),
            "--out",
            str(tmp_path / "model.json"),
            "--gate-threshold",
            "0.0001",
            "--fail-on-low-generalization",
        ]
        + HP_FLAGS
    )
    assert code == EXIT_GATE


def test_usage_errors():
    assert main([]) == EXIT_USAGE
    assert main(["extract"]) == EXIT_USAGE
    assert main(["no-such-command"]) == EXIT_USAGE


def test_missing_file_is_data_error(tmp_path):
    code = main(
        ["extract", "--known", str(tmp_path / "nope.json"), "--out", str(tmp_path / "kb")]
    )
    assert code == EXIT_DATA


def test_malformed_dataset_is_data_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{}")
    code = main(["extract", "--known", str(bad), "--out", str(tmp_path / "kb")])
    assert code == EXIT_DATA


def test_config_file_fills_defaults(workspace, tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"threshold": 0.5, "n_estimators": 20}))
    out = tmp_path / "kb.json"
    code = main(
        [
            "extract",
            "--known",
            str(workspace / "data" / "known.json"),
            "--out",
            str(out),
            "--config",
            str(cfg),
        ]
    )
    assert code == EXIT_OK
    from firepower.knowledge import load_knowledge_base

    assert load_knowledge_base(out).threshold == 0.5


def test_flags_beat_config_file(workspace, tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"threshold": 0.5, "n_estimators": 20}))
    out = tmp_path / "kb.json"
    code = main(
        [
            "extract",
            "--known",
            str(workspace / "data" / "known.json"),
            "--out",
            str(out),
            "--threshold",
            "0.9",
            "--config",
            str(cfg),
        ]
    )
    assert code == EXIT_OK
    from firepower.knowledge import load_knowledge_base

    assert load_knowledge_base(out).threshold == 0.9


def test_unknown_config_key_rejected(workspace, tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"warp_factor": 9}))
    code = main(
        [
            "extract",
            "--known",
            str(workspace / "data" / "known.json"),
            "--out",
            str(tmp_path / "kb.json"),
            "--config",
            str(cfg),
        ]
    )
    assert code == EXIT_USAGE


def test_explicit_zero_flags_beat_config_file(workspace, tmp_path):
    # 0 and 0.0 are values, not "unset": the file must not override them.
    cfg = tmp_path / "extract.json"
    cfg.write_text(json.dumps({"threshold": 0.5, "n_estimators": 5}))
    known = str(workspace / "data" / "known.json")
    kb = tmp_path / "kb.json"
    args = ["extract", "--known", known, "--out", str(kb), "--threshold", "0", "--config", str(cfg)]
    assert main(args) == EXIT_OK
    from firepower.knowledge import load_knowledge_base

    assert load_knowledge_base(kb).threshold == 0.0
    cfg = tmp_path / "experiment.json"
    cfg.write_text(json.dumps({"seeds": 10, "n_estimators": 5}))
    out = tmp_path / "exp"
    code = main(
        [
            "experiment",
            "--known",
            known,
            "--target",
            str(workspace / "data" / "target.json"),
            "--seeds",
            "0",
            "--out",
            str(out),
            "--config",
            str(cfg),
        ]
    )
    assert code == EXIT_OK
    assert (out / "results.csv").read_text().splitlines() == [
        "method,k,seed,mape_percent,pearson_r"
    ]


@pytest.mark.parametrize("content", ["{not json", "[1, 2]", None])
def test_bad_config_file_is_usage_error(workspace, tmp_path, capsys, content):
    cfg = tmp_path / "run.json"
    if content is not None:  # None: the file does not exist
        cfg.write_text(content)
    code = main(
        [
            "extract",
            "--known",
            str(workspace / "data" / "known.json"),
            "--out",
            str(tmp_path / "kb.json"),
            "--config",
            str(cfg),
        ]
    )
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


def test_empty_config_path_is_usage_error(tmp_path, capsys):
    # An empty path names no file; it is not the same as no --config.
    code = main(["synth", "--config", "", "--out-dir", str(tmp_path / "data")])
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: cannot read config file") and "Traceback" not in err
    assert not (tmp_path / "data").exists()


def _experiment_with_config(workspace, tmp_path, doc):
    cfg = tmp_path / "experiment.json"
    cfg.write_text(json.dumps(doc))
    data = workspace / "data"
    argv = ["experiment", "--known", str(data / "known.json"), "--target", str(data / "target.json")]
    return main(argv + ["--out", str(tmp_path / "exp"), "--config", str(cfg)])


@pytest.mark.parametrize(
    "lists",
    [{"ks": [2, 3], "methods": ["mcpat_calib"]}, {"ks": "2,3", "methods": "mcpat_calib"}],
)
def test_config_file_takes_json_lists(workspace, tmp_path, lists):
    code = _experiment_with_config(workspace, tmp_path, {"seeds": 1, "n_estimators": 5, **lists})
    assert code == EXIT_OK
    rows = (tmp_path / "exp" / "results.csv").read_text().splitlines()[1:]
    assert [row.split(",")[:3] for row in rows] == [["mcpat_calib", "2", "0"], ["mcpat_calib", "3", "0"]]


@pytest.mark.parametrize(
    "doc",
    [
        {"seeds": "3"},
        {"seeds": 1.5},
        {"seeds": True},
        {"threshold": "0.5"},
        {"ks": [2.5]},
        {"ks": [True]},
        {"ks": []},
        {"ks": 2},
        {"methods": [1]},
        {"methods": {"a": 1}},
        {"out": 3},
    ],
)
def test_wrong_typed_config_value_is_usage_error(workspace, tmp_path, capsys, doc):
    assert _experiment_with_config(workspace, tmp_path, doc) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert not (tmp_path / "exp").exists()


def test_wrong_typed_switch_in_config_is_usage_error(workspace, tmp_path, capsys):
    cfg = tmp_path / "build.json"
    cfg.write_text(json.dumps({"fail_on_low_generalization": "yes"}))
    code = main(
        [
            "build",
            "--kb",
            str(workspace / "kb.json"),
            "--target-train",
            str(workspace / "data" / "target.json"),
            "--out",
            str(tmp_path / "model.json"),
            "--config",
            str(cfg),
        ]
    )
    assert code == EXIT_USAGE
    assert capsys.readouterr().err.startswith("error:")


def _edited_copy(src, dst, edit):
    doc = json.loads(src.read_text())
    edit(doc)
    dst.write_text(json.dumps(doc))
    return str(dst)


def test_kb_missing_key_is_data_error(workspace, tmp_path, capsys):
    kb = _edited_copy(workspace / "kb.json", tmp_path / "kb.json", lambda d: d.pop("threshold"))
    code = main(
        [
            "build",
            "--kb",
            kb,
            "--target-train",
            str(workspace / "data" / "target.json"),
            "--out",
            str(tmp_path / "model.json"),
        ]
        + HP_FLAGS
    )
    assert code == EXIT_DATA
    assert "threshold" in capsys.readouterr().err


@pytest.mark.parametrize("edit,message", TABLE_EDITS)
def test_build_needs_the_kb_component_table(workspace, tmp_path, capsys, edit, message):
    # An inherited GBT reads its H_i row by position: the same names in
    # another order would feed it the wrong parameters without a word.
    target = _edited_copy(workspace / "data" / "target.json", tmp_path / "target.json", edit)
    out = tmp_path / "model.json"
    argv = ["build", "--kb", str(workspace / "kb.json"), "--target-train", target, "--out", str(out)]
    assert main(argv + HP_FLAGS) == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("error: knowledge base and target dataset ") and message in err
    assert "Traceback" not in err and not out.exists()


def _predict_with_model(workspace, tmp_path, edit) -> int:
    model = _edited_copy(workspace / "model.json", tmp_path / "model.json", edit)
    return main(
        [
            "predict",
            "--model",
            model,
            "--input",
            str(workspace / "data" / "target.json"),
            "--out",
            str(tmp_path / "preds.csv"),
        ]
    )


def test_model_missing_key_is_data_error(workspace, tmp_path):
    assert _predict_with_model(workspace, tmp_path, lambda d: d.pop("epsilon")) == EXIT_DATA


def test_model_unknown_hw_variant_is_data_error(workspace, tmp_path, capsys):
    def edit(doc):
        doc["per_component"]["BPTAGE"]["hw"]["variant"] = "borrowed"

    assert _predict_with_model(workspace, tmp_path, edit) == EXIT_DATA
    assert "borrowed" in capsys.readouterr().err


def _retrained_hw(doc):
    """The hw entry and hw_params of a retrained multi-parameter component."""
    table = {c["name"]: c["hw_params"] for c in doc["component_table"]}
    for name, entry in doc["per_component"].items():
        if entry["hw"]["variant"] == "retrained" and len(table[name]) > 1:
            return entry["hw"], table[name]
    raise AssertionError("no retrained multi-parameter component in the model")


@pytest.mark.parametrize("where", ["past_end", "negative", "other_param"])
def test_model_linear_feature_index_is_checked(workspace, tmp_path, capsys, where):
    def edit(doc):
        hw, params = _retrained_hw(doc)
        j = hw["linear"]["feature_index"]
        moved = {"past_end": len(params), "negative": -1, "other_param": (j + 1) % len(params)}
        hw["linear"]["feature_index"] = moved[where]

    assert _predict_with_model(workspace, tmp_path, edit) == EXIT_DATA
    assert "important parameter" in capsys.readouterr().err


def test_model_component_missing_from_per_component_is_data_error(workspace, tmp_path, capsys):
    assert (
        _predict_with_model(workspace, tmp_path, lambda d: d["per_component"].pop("BPTAGE"))
        == EXIT_DATA
    )
    assert "component table" in capsys.readouterr().err


def test_unset_gbt_flags_take_library_defaults():
    from firepower.baselines import METHOD_KEYS
    from firepower.cli import _gbt_hyperparams, build_parser
    from firepower.generalization import DEFAULT_GATE_THRESHOLD
    from firepower.harness import DEFAULT_KS
    from firepower.knowledge import DEFAULT_THRESHOLD
    from firepower.trees import GbtHyperparams

    args = build_parser().parse_args(["extract", "--known", "k.json", "--out", "kb.json"])
    assert _gbt_hyperparams(args) == GbtHyperparams()
    assert args.threshold == DEFAULT_THRESHOLD
    parse = build_parser().parse_args
    build = parse(["build", "--kb", "kb.json", "--target-train", "t.json", "--out", "m.json"])
    assert build.gate_threshold == DEFAULT_GATE_THRESHOLD
    assert _gbt_hyperparams(build) == GbtHyperparams()
    exp = parse(["experiment", "--known", "k.json", "--target", "t.json", "--out", "out"])
    assert (exp.ks, exp.seeds, exp.threshold) == (DEFAULT_KS, 10, DEFAULT_THRESHOLD)
    assert exp.methods == METHOD_KEYS and _gbt_hyperparams(exp) == GbtHyperparams()
    assert parse(["synth", "--out-dir", "data"]).seed == 0


def _command_argv(workspace, tmp_path, command):
    data = workspace / "data"
    out = str(tmp_path / "out")
    return {
        "extract": ["extract", "--known", str(data / "known.json"), "--out", out],
        "build": ["build", "--kb", str(workspace / "kb.json"), "--target-train",
                  str(data / "target.json"), "--out", out],
        "experiment": ["experiment", "--known", str(data / "known.json"), "--target",
                       str(data / "target.json"), "--out", out],
    }[command]


def _run_with_value(workspace, tmp_path, command, key, value, via_config):
    argv = _command_argv(workspace, tmp_path, command)
    if via_config:
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({key: value}))  # NaN and Infinity as JSON's extensions
        argv += ["--config", str(cfg)]
    else:
        argv.append(f"--{key.replace('_', '-')}={value}")  # "=" lets "-inf" be a value
    return main(argv)


@pytest.mark.parametrize("via_config", [False, True])
@pytest.mark.parametrize("command", ["extract", "build", "experiment"])
@pytest.mark.parametrize(
    "key,value",
    [("n_estimators", 0), ("max_depth", 0), ("learning_rate", 0.0), ("learning_rate", 1.5),
     ("learning_rate", float("nan"))],
)
def test_bad_gbt_flags_are_usage_errors(workspace, tmp_path, capsys, command, key, value, via_config):
    assert _run_with_value(workspace, tmp_path, command, key, value, via_config) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("via_config", [False, True])
@pytest.mark.parametrize(
    "command,key",
    [("extract", "threshold"), ("experiment", "threshold"), ("build", "gate_threshold")],
)
@pytest.mark.parametrize(
    "value", [float("nan"), float("inf"), float("-inf"), pytest.param(10**400, id="int-beyond-float")]
)
def test_non_finite_thresholds_are_usage_errors(workspace, tmp_path, capsys, command, key, value, via_config):
    assert _run_with_value(workspace, tmp_path, command, key, value, via_config) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error:") and "finite" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "command,flag,value,message",
    [
        ("extract", "--threshold", "-inf", "must be a finite number"),
        ("build", "--gate-threshold", "-inf", "must be a finite number"),
        ("extract", "--learning-rate", "-1e-3", "GBT flags: hyperparameter learning_rate -0.001 is not in (0, 1]"),
        ("experiment", "--ks", "-1,2", "--ks values must be at least 1, not -1"),
    ],
)
def test_negative_values_after_a_space_reach_the_value_checks(
    workspace, tmp_path, capsys, command, flag, value, message
):
    assert main(_command_argv(workspace, tmp_path, command) + [flag, value]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_negative_threshold_after_a_space_is_a_value(workspace, tmp_path):
    from firepower.knowledge import load_knowledge_base

    argv = _command_argv(workspace, tmp_path, "extract") + ["--threshold", "-0.5"] + HP_FLAGS
    assert main(argv) == EXIT_OK
    assert load_knowledge_base(tmp_path / "out").threshold == -0.5


def _first_split(gbt):
    """The index of the first split node in a format-2 GBT's feature and value lists."""
    return next(i for i, j in enumerate(gbt["feature"]) if j != -1)


def _set_first_split(gbt, key, value):
    gbt[key][_first_split(gbt)] = value


def _drop_last_node(gbt):
    """Drop the last node of the first tree that has a split: a split loses a child."""
    sizes = gbt["tree_sizes"]
    t = next(t for t, size in enumerate(sizes) if size > 1)
    end = sum(sizes[: t + 1])
    del gbt["feature"][end - 1], gbt["value"][end - 1]
    sizes[t] -= 1


def _move_boundary(gbt, shift):
    """Move the border between the first two trees that have a split by `shift` nodes."""
    sizes = gbt["tree_sizes"]
    t = next(t for t in range(len(sizes) - 1) if sizes[t] > 1 and sizes[t + 1] > 1)
    sizes[t] += shift
    sizes[t + 1] -= shift


def test_kb_tree_feature_out_of_range_is_data_error(workspace, tmp_path, capsys):
    def edit(doc):
        hw = next(iter(doc["per_component"].values()))["hardware_model"]
        _set_first_split(hw, "feature", 42)

    kb = _edited_copy(workspace / "kb.json", tmp_path / "kb.json", edit)
    code = main(
        [
            "build",
            "--kb",
            kb,
            "--target-train",
            str(workspace / "data" / "target.json"),
            "--out",
            str(tmp_path / "model.json"),
        ]
        + HP_FLAGS
    )
    assert code == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("error:") and "feature 42" in err and "Traceback" not in err


def _append_leaf(gbt, value):
    gbt["tree_sizes"].append(1)
    gbt["feature"].append(-1)
    gbt["value"].append(value)


@pytest.mark.parametrize(
    "edit,message",
    [
        pytest.param(lambda g: _set_first_split(g, "feature", 99), "feature 99", id="feature-past-end"),
        pytest.param(lambda g: _set_first_split(g, "feature", -2), "feature -2", id="feature-negative"),
        pytest.param(lambda g: _set_first_split(g, "feature", True), "feature True", id="feature-bool"),
        pytest.param(lambda g: _set_first_split(g, "feature", 0.0), "feature 0.0", id="feature-float"),
        pytest.param(lambda g: g["feature"].__setitem__(-1, -1.0), "feature -1.0", id="leaf-marker-float"),
        pytest.param(lambda g: _set_first_split(g, "value", float("nan")), "threshold nan", id="threshold-nan"),
        pytest.param(lambda g: _set_first_split(g, "value", "1.5"), "threshold '1.5'", id="threshold-text"),
        pytest.param(lambda g: _append_leaf(g, float("inf")), "leaf value inf", id="leaf-inf"),
        pytest.param(lambda g: _append_leaf(g, False), "leaf value False", id="leaf-bool"),
        pytest.param(_drop_last_node, "does not close within", id="child-missing"),
        pytest.param(lambda g: _move_boundary(g, -1), "does not close within", id="tree-ends-late"),
        pytest.param(lambda g: _move_boundary(g, 1), "closes after", id="tree-ends-early"),
        pytest.param(lambda g: g["value"].pop(), "feature holds", id="lists-unequal"),
        pytest.param(lambda g: g["tree_sizes"].__setitem__(0, g["tree_sizes"][0] + 1), "add up to", id="sizes-past-nodes"),
        pytest.param(lambda g: g["tree_sizes"].pop(), "add up to", id="sizes-short-of-nodes"),
        pytest.param(lambda g: g["tree_sizes"].__setitem__(0, 0), "tree size 0", id="size-zero"),
        pytest.param(lambda g: g["tree_sizes"].__setitem__(0, True), "tree size True", id="size-bool"),
        pytest.param(lambda g: g.update(feature={}), "feature is a dict", id="feature-not-a-list"),
        pytest.param(lambda g: g["cumulative_gain"].pop(), "cumulative_gain", id="gain-short"),
        pytest.param(lambda g: g["cumulative_gain"].__setitem__(0, float("nan")), "not a finite", id="gain-nan"),
        pytest.param(lambda g: g["cumulative_gain"].__setitem__(0, 10**400), "not a finite", id="gain-huge-int"),
        pytest.param(lambda g: g.update(base_prediction="x"), "base prediction 'x'", id="base-text"),
        pytest.param(lambda g: g.update(base_prediction=float("nan")), "base prediction nan", id="base-nan"),
        pytest.param(lambda g: g.update(base_prediction=10**400), "base prediction 1000", id="base-huge-int"),
        pytest.param(lambda g: _set_first_split(g, "value", 10**400), "threshold 1000", id="threshold-huge-int"),
    ],
)
def test_model_tree_is_checked_on_load(workspace, tmp_path, capsys, edit, message):
    code = _predict_with_model(workspace, tmp_path, lambda d: edit(d["per_component"]["BPTAGE"]["event"]))
    assert code == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err and "Traceback" not in err
    assert not (tmp_path / "preds.csv").exists()


FORMAT1 = Path(__file__).parent / "data" / "format1"


def _first_split_v1(doc):
    """The first internal node of a format-1 GBT document's trees."""
    for tree in doc["trees"]:
        if "feature_index" in tree:
            return tree
    raise AssertionError("every tree of the GBT is a single leaf")


@pytest.mark.parametrize(
    "edit,message",
    [
        pytest.param(lambda g: _first_split_v1(g).update(feature_index=99), "feature 99", id="feature-past-end"),
        pytest.param(lambda g: _first_split_v1(g).update(feature_index=-1), "feature -1", id="feature-negative"),
        pytest.param(lambda g: _first_split_v1(g).update(feature_index=True), "feature True", id="feature-bool"),
        pytest.param(lambda g: _first_split_v1(g).update(threshold=float("nan")), "threshold nan", id="threshold-nan"),
        pytest.param(lambda g: _first_split_v1(g).update(threshold="1.5"), "threshold '1.5'", id="threshold-text"),
        pytest.param(lambda g: g["trees"].append({"value": float("inf")}), "leaf value inf", id="leaf-inf"),
        pytest.param(lambda g: g["trees"].append({"value": 10**400}), "leaf value 1000", id="leaf-huge-int"),
        pytest.param(lambda g: _first_split_v1(g).pop("right"), "not a mapping", id="child-missing"),
        pytest.param(lambda g: g["cumulative_gain"].pop(), "cumulative_gain", id="gain-short"),
        pytest.param(lambda g: g.update(base_prediction="x"), "base prediction 'x'", id="base-text"),
        pytest.param(lambda g: g.update(base_prediction=float("nan")), "base prediction nan", id="base-nan"),
    ],
)
def test_format1_model_tree_is_checked_on_load(tmp_path, capsys, edit, message):
    model = _edited_copy(
        FORMAT1 / "model.json", tmp_path / "model.json", lambda d: edit(d["per_component"]["IFU"]["event"])
    )
    out = tmp_path / "preds.csv"
    code = main(["predict", "--model", model, "--input", str(FORMAT1 / "test.json"), "--out", str(out)])
    assert code == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err and "Traceback" not in err
    assert not out.exists()


def test_format1_kb_tree_feature_out_of_range_is_data_error(tmp_path, capsys):
    def edit(doc):
        _first_split_v1(doc["per_component"]["IFU"]["hardware_model"])["feature_index"] = 42

    kb = _edited_copy(FORMAT1 / "kb.json", tmp_path / "kb.json", edit)
    out = tmp_path / "model.json"
    code = main(
        ["build", "--kb", kb, "--target-train", str(FORMAT1 / "train.json"), "--out", str(out)] + HP_FLAGS
    )
    assert code == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("error:") and "feature 42" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("key", ["slope", "intercept"])
@pytest.mark.parametrize("value", ["x", None, float("nan")])
def test_model_linear_numbers_are_checked_on_load(workspace, tmp_path, capsys, key, value):
    def edit(doc):
        _retrained_hw(doc)[0]["linear"][key] = value

    code = _predict_with_model(workspace, tmp_path, edit)
    assert code == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"linear model {key} {value!r}" in err and "Traceback" not in err
    assert not (tmp_path / "preds.csv").exists()


def test_kb_base_prediction_is_checked_on_load(workspace, tmp_path, capsys):
    def edit(doc):
        next(iter(doc["per_component"].values()))["hardware_model"]["base_prediction"] = "x"

    kb = _edited_copy(workspace / "kb.json", tmp_path / "kb.json", edit)
    code = main(
        ["build", "--kb", kb, "--target-train", str(workspace / "data" / "target.json"),
         "--out", str(tmp_path / "model.json")] + HP_FLAGS
    )
    assert code == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("error:") and "base prediction 'x'" in err and "Traceback" not in err
    assert not (tmp_path / "model.json").exists()


@pytest.mark.parametrize(
    "method",
    ["mcpat_calib_component", "mcpat_calib_component_transfer", "firepower", "firepower_no_retrain"],
)
def test_missing_component_label_is_data_error(workspace, tmp_path, capsys, method):
    def drop_ifu(doc):
        power = doc["samples"]["component_power"]
        j = power["names"].index("IFU")
        for row in power["rows"]:
            row[j] = None

    data = workspace / "data"
    target = _edited_copy(data / "target.json", tmp_path / "target.json", drop_ifu)
    code = main(
        ["experiment", "--known", str(data / "known.json"), "--target", target, "--ks", "2",
         "--seeds", "1", "--methods", method, "--out", str(tmp_path / "exp"), "--n-estimators", "5"]
    )
    assert code == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert "lacks a label for 'IFU'" in err


@pytest.mark.parametrize("field", ["total_power", "component_power", "event_stats", "analytical_estimate"])
@pytest.mark.parametrize(
    "value",
    [float("nan"), float("inf"), float("-inf"), "12.5", True, pytest.param(10**400, id="int-beyond-float")],
)
def test_sample_numbers_are_checked_on_load(workspace, tmp_path, capsys, field, value):
    def edit(doc):
        samples = doc["samples"]
        if field in ("component_power", "event_stats"):
            samples[field]["rows"][0][0] = value
        else:
            column = samples.get(field) or [None] * len(samples["config_id"])
            samples[field] = [value, *column[1:]]

    data = _edited_copy(workspace / "data" / "target.json", tmp_path / "target.json", edit)
    code = main(["predict", "--model", str(workspace / "model.json"), "--input", data,
                 "--out", str(tmp_path / "preds.csv")])
    assert code == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert f"sample (T01, w0) {field}" in err and "is not a finite number" in err
    assert not (tmp_path / "preds.csv").exists()


@pytest.mark.parametrize("via_config", [False, True])
@pytest.mark.parametrize("key,value", [("ks", -1), ("ks", 0), ("seeds", -2)])
def test_out_of_range_ks_and_seeds_are_usage_errors(workspace, tmp_path, capsys, key, value, via_config):
    if via_config:
        value = [value] if key == "ks" else value
    code = _run_with_value(workspace, tmp_path, "experiment", key, value, via_config)
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"--{key}" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("via_config", [False, True])
def test_seed_count_beyond_sys_maxsize_is_usage_error(workspace, tmp_path, capsys, monkeypatch, via_config):
    # A 401-digit count once ended in an OverflowError traceback from range().
    import firepower.cli

    loads = []
    monkeypatch.setattr(firepower.cli, "load_dataset", lambda path: loads.append(path))
    code = _run_with_value(workspace, tmp_path, "experiment", "seeds", 10**400, via_config)
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"--seeds must be at most {sys.maxsize}" in err
    assert "Traceback" not in err
    assert loads == [] and not (tmp_path / "out").exists()


@pytest.mark.parametrize("via_config", [False, True])
def test_largest_seed_count_reaches_the_harness_as_a_range(workspace, tmp_path, monkeypatch, via_config):
    import firepower.cli

    calls = []
    monkeypatch.setattr(firepower.cli, "run_experiment", lambda *a, **kw: calls.append(kw) or [])
    code = _run_with_value(workspace, tmp_path, "experiment", "seeds", sys.maxsize, via_config)
    assert code == EXIT_OK
    assert calls[0]["seeds"] == range(sys.maxsize)


@pytest.mark.parametrize("via_config", [False, True])
def test_unknown_method_is_usage_error_before_any_file_is_read(
    workspace, tmp_path, capsys, monkeypatch, via_config
):
    import firepower.cli

    loads = []
    monkeypatch.setattr(firepower.cli, "load_dataset", lambda path: loads.append(path))
    code = _run_with_value(workspace, tmp_path, "experiment", "methods", "firepower,nope", via_config)
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error:") and "--methods name 'nope'" in err and "Traceback" not in err
    assert loads == [] and not (tmp_path / "out").exists()


@pytest.mark.parametrize("via_config", [False, True])
@pytest.mark.parametrize(
    "key,value", [("ks", "2,2"), ("methods", "mcpat_calib,mcpat_calib")], ids=["ks", "methods"]
)
def test_repeated_ks_or_methods_are_usage_errors_before_any_file_is_read(
    workspace, tmp_path, capsys, monkeypatch, key, value, via_config
):
    # A repeat would run its cells again and write duplicate rows.
    import firepower.cli

    loads = []
    monkeypatch.setattr(firepower.cli, "load_dataset", lambda path: loads.append(path))
    if via_config:
        value = [int(v) if key == "ks" else v for v in value.split(",")]
    code = _run_with_value(workspace, tmp_path, "experiment", key, value, via_config)
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"--{key} must not repeat" in err and "Traceback" not in err
    assert loads == [] and not (tmp_path / "out").exists()


def _drop_mshr(doc):
    """A registry without MSHREntry, which built-in components read."""
    doc.pop("component_table")
    doc["parameters"]["canonical"].remove("MSHREntry")
    for cfg in doc["configurations"]:
        del cfg["params"]["MSHREntry"]


@pytest.mark.parametrize("command", ["extract", "build", "experiment"])
def test_parameter_missing_from_registry_is_data_error(workspace, tmp_path, capsys, command):
    data = workspace / "data"
    known = _edited_copy(data / "known.json", tmp_path / "known.json", _drop_mshr)
    target = _edited_copy(data / "target.json", tmp_path / "target.json", _drop_mshr)
    out = str(tmp_path / "out")
    argv = {
        "extract": ["extract", "--known", known, "--out", out],
        "build": ["build", "--kb", str(workspace / "kb.json"), "--target-train", target, "--out", out],
        "experiment": ["experiment", "--known", known, "--target", target, "--ks", "2",
                       "--seeds", "1", "--out", out],
    }[command]
    assert main(argv + HP_FLAGS) == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("error:") and "lacks parameter 'MSHREntry'" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_registry_gap_fails_before_any_fit(workspace, tmp_path, capsys, monkeypatch):
    from firepower import trees

    fits = []
    fit_gbt = trees.fit_gbt
    monkeypatch.setattr(trees, "fit_gbt", lambda *a, **kw: fits.append(1) or fit_gbt(*a, **kw))
    known = _edited_copy(workspace / "data" / "known.json", tmp_path / "known.json", _drop_mshr)
    code = main(["extract", "--known", known, "--out", str(tmp_path / "out")] + HP_FLAGS)
    assert code == EXIT_DATA
    assert "lacks parameter 'MSHREntry'" in capsys.readouterr().err
    assert fits == []


def test_kb_unknown_retrain_parameter_is_data_error(workspace, tmp_path, capsys):
    def edit(doc):
        entry = next(e for e in doc["per_component"].values() if e["strategy"]["kind"] == "retrain")
        entry["strategy"]["param"] = "Bogus"

    kb = _edited_copy(workspace / "kb.json", tmp_path / "kb.json", edit)
    code = main(
        ["build", "--kb", kb, "--target-train", str(workspace / "data" / "target.json"),
         "--out", str(tmp_path / "model.json")] + HP_FLAGS
    )
    assert code == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("error:") and "'Bogus'" in err and "Traceback" not in err
    assert not (tmp_path / "model.json").exists()


@pytest.mark.parametrize("epsilon", [0.0, 1e-6, "1e-09"])
def test_model_epsilon_other_than_the_clamp_is_data_error(workspace, tmp_path, capsys, epsilon):
    assert _predict_with_model(workspace, tmp_path, lambda d: d.update(epsilon=epsilon)) == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("error:") and "epsilon" in err and "Traceback" not in err
    assert not (tmp_path / "preds.csv").exists()


def test_predict_without_a_correlation_writes_an_empty_r(tmp_path, capsys):
    # Two samples of one configuration with the same events: the predicted
    # totals do not vary, so R is undefined; MAPE is still written.
    doc = json.loads((FORMAT1 / "test.json").read_text())
    first = doc["samples"][0]
    doc["samples"] = [first, {**first, "workload": "copy"}]
    two = tmp_path / "two.json"
    two.write_text(json.dumps(doc))
    out = tmp_path / "preds.csv"
    assert main(["predict", "--model", str(FORMAT1 / "model.json"), "--input", str(two), "--out", str(out)]) == EXIT_OK
    assert "R undefined" in capsys.readouterr().out
    header, row = (tmp_path / "preds.csv.summary.csv").read_text().splitlines()
    (total,) = [line.split(",") for line in out.read_text().splitlines() if line.startswith(f"{first['config_id']},copy,Total,")]
    assert header == "mape_percent,pearson_r" and row == f"{mape([float(total[3])], [float(total[4])])!r},"
    # The predictions are those of a run on the whole file, which has an R.
    full = tmp_path / "full.csv"
    assert main(["predict", "--model", str(FORMAT1 / "model.json"), "--input", str(FORMAT1 / "test.json"),
                 "--out", str(full)]) == EXIT_OK
    assert (tmp_path / "full.csv.summary.csv").read_text().splitlines()[1].split(",")[1] != ""
    lines = full.read_text().splitlines()
    rows = [line for line in lines if line.startswith(f"{first['config_id']},{first['workload']},")]
    copies = [line.replace(f",{first['workload']},", ",copy,", 1) for line in rows]
    assert out.read_bytes() == ("\n".join([lines[0], *rows, *copies]) + "\n").encode()


def _spec_field(key, value, component=None):
    def edit(doc):
        (doc if component is None else doc["components"][component])[key] = value
    return edit


@pytest.mark.parametrize(
    "flags, edit, code, message",
    [
        pytest.param(["--seed", "-1"], None, EXIT_USAGE, "--seed must not be negative, not -1", id="seed-flag"),
        pytest.param([], _spec_field("seed", -1), EXIT_DATA, "seed -1 is not an integer >= 0", id="seed-negative"),
        pytest.param([], _spec_field("seed", 1.5), EXIT_DATA, "seed 1.5 is not an integer >= 0", id="seed-float"),
        pytest.param([], _spec_field("seed", "x"), EXIT_DATA, "seed 'x' is not an integer >= 0", id="seed-text"),
        pytest.param([], _spec_field("noise_sigma", "a"), EXIT_DATA, "noise_sigma 'a' is not a finite number >= 0",
                     id="noise-text"),
        pytest.param([], lambda d: d["workload_base"].__setitem__(2, "x"), EXIT_DATA,
                     "workload_base entry 'x' is not a finite number", id="workload-base-text"),
        pytest.param([], _spec_field("hw_coeffs_known", [0.5, "x"], 0), EXIT_DATA,
                     "component 'BPTAGE' hw_coeffs_known [0.5, 'x'] is not a list of 2 finite numbers",
                     id="coeffs-text"),
        pytest.param([], _spec_field("arch_scale_known", "x", 0), EXIT_DATA,
                     "component 'BPTAGE' arch_scale_known 'x' is not a finite number", id="arch-scale-text"),
        pytest.param([], _spec_field("ref_param", "Nope", 0), EXIT_DATA,
                     "component 'BPTAGE' ref_param 'Nope' is not a hardware parameter", id="ref-param-unknown"),
        pytest.param([], _spec_field("hw_coeffs_target", [1.0], 0), EXIT_DATA,
                     "component 'BPTAGE' hw_coeffs_target [1.0] is not a list of 2 finite numbers",
                     id="coeffs-one-entry"),
        pytest.param([], _spec_field("extra", 1), EXIT_DATA, "the document has unknown field 'extra'",
                     id="unknown-key"),
        # A spec the checks pass whose functions give a power no dataset file may hold.
        pytest.param([], _spec_field("arch_scale_known", -1.0, 0), EXIT_DATA,
                     "sample (K01, w0): nonpositive power label for 'BPTAGE'", id="arch-scale-negative"),
    ],
)
def test_synth_names_a_bad_seed_or_spec_field(tmp_path, capsys, flags, edit, code, message):
    from firepower.synthgen import default_spec, spec_to_dict

    argv = ["synth", "--out-dir", str(tmp_path / "out"), *flags]
    if edit is not None:
        doc = spec_to_dict(default_spec(seed=0))
        edit(doc)
        (tmp_path / "spec.json").write_text(json.dumps(doc))
        argv += ["--spec", str(tmp_path / "spec.json")]
    assert main(argv) == code
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def _output_flags(workspace, tmp_path, target):
    """Per output flag, the argv that writes that output to target and any
    other output into tmp_path."""
    data, kb, model = workspace / "data", str(workspace / "kb.json"), str(workspace / "model.json")
    build = ["build", "--kb", kb, "--target-train", str(data / "target.json")]
    return {
        "extract --out": ["extract", "--known", str(data / "known.json"), "--out", target, *HP_FLAGS],
        "build --out": [*build, "--out", target, *HP_FLAGS],
        "build --report": [*build, "--out", str(tmp_path / "model.json"), "--report", target, *HP_FLAGS],
        "predict --out": ["predict", "--model", model, "--input", str(data / "target.json"), "--out", target],
    }


@pytest.mark.parametrize("flag", ["extract --out", "build --out", "build --report", "predict --out"])
@pytest.mark.parametrize("where", ["missing-directory", "directory"])
def test_failed_output_write_names_the_users_path(workspace, tmp_path, capsys, flag, where):
    # The error names the path given, not the temp file written beside it,
    # and no temp file is left: a missing directory fails before one is
    # made, a directory in the way of the rename after.
    out = tmp_path / "out"
    out.mkdir()
    if where == "missing-directory":
        target, errno = out / "missing" / "file.csv", 2
    else:
        target, errno = out / "taken", 21
        target.mkdir()
    assert main(_output_flags(workspace, tmp_path, str(target))[flag]) == EXIT_DATA
    err = capsys.readouterr().err
    assert err == f"error: [Errno {errno}] {os.strerror(errno)}: {str(target)!r}\n"
    assert [p.name for p in out.rglob("*")] == ([] if where == "missing-directory" else ["taken"])


def _set_param(value):
    def edit(doc):
        doc["configurations"][0]["params"]["FetchWidth"] = value
    return edit


_NOT_A_COUNT = "configuration T01: parameter 'FetchWidth' must be a positive integer"


@pytest.mark.parametrize(
    "kind, edit, message",
    [
        pytest.param("dataset", _set_param(0), _NOT_A_COUNT, id="param-zero"),
        pytest.param("dataset", _set_param(2.0), _NOT_A_COUNT, id="param-float"),
        pytest.param("dataset", _set_param(True), _NOT_A_COUNT, id="param-bool"),
        pytest.param("dataset", lambda d: d["parameters"]["canonical"].append("FetchWidth"),
                     "duplicate canonical parameter names", id="canonical-repeat"),
        pytest.param("dataset", lambda d: d["parameters"]["aliases"].update(Foo="Bar"),
                     "alias 'Foo' maps to unknown parameter 'Bar'", id="alias-unknown"),
        pytest.param("dataset", lambda d: d["component_table"][0].update(hw_params=[]),
                     "component 'BPTAGE' has no hardware parameters", id="hw-params-empty"),
        pytest.param("kb", lambda d: d["component_table"][0]["hw_params"].append("FetchWidth"),
                     "component 'BPTAGE' repeats a hardware parameter", id="kb-hw-param-repeat"),
        pytest.param("dataset", lambda d: d["component_table"][1].update(name="BPTAGE"),
                     "duplicate component names in component_table", id="component-repeat"),
        pytest.param("dataset", lambda d: d.update(configurations=[]), "dataset has no configurations",
                     id="no-configurations"),
        pytest.param("dataset", lambda d: [d], "dataset document must be a mapping", id="top-level-list"),
        pytest.param("spec", lambda d: d["components"].__setitem__(0, 1),
                     "synthetic spec: a component is not a mapping", id="spec-component-not-mapping"),
        pytest.param("spec", lambda d: d.update(components=d["components"][:-1]),
                     "synthetic spec: components must name each built-in component once", id="spec-drops-component"),
    ],
)
def test_input_checks_name_the_fault(workspace, tmp_path, capsys, kind, edit, message):
    # Each file is refused with exit 2 and the check's own message; an edit
    # that returns a value replaces the document with it.
    from firepower.synthgen import default_spec, spec_to_dict

    doc = {"dataset": lambda: json.loads((workspace / "data" / "target.json").read_text()),
           "kb": lambda: json.loads((workspace / "kb.json").read_text()),
           "spec": lambda: spec_to_dict(default_spec(seed=0))}[kind]()
    replaced = edit(doc)
    path = tmp_path / f"{kind}.json"
    path.write_text(json.dumps(doc if replaced is None else replaced))
    out = tmp_path / "out"
    argv = {
        "dataset": ["predict", "--model", str(workspace / "model.json"), "--input", str(path), "--out", str(out)],
        "kb": ["build", "--kb", str(path), "--target-train", str(workspace / "data" / "target.json"),
               "--out", str(out), *HP_FLAGS],
        "spec": ["synth", "--spec", str(path), "--out-dir", str(out)],
    }[kind]
    assert main(argv) == EXIT_DATA
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()
