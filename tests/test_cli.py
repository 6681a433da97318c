import json

import pytest

from firepower.cli import EXIT_DATA, EXIT_GATE, EXIT_OK, EXIT_USAGE, main
from firepower.metrics import mape, pearson_r

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
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
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
        ("extract", "--learning-rate", "-1e-3", "learning_rate must lie in (0, 1]"),
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


def _first_split(doc):
    """The first internal node of a GBT document's trees."""
    for tree in doc["trees"]:
        if "feature_index" in tree:
            return tree
    raise AssertionError("every tree of the GBT is a single leaf")


def test_kb_tree_feature_out_of_range_is_data_error(workspace, tmp_path, capsys):
    def edit(doc):
        hw = next(iter(doc["per_component"].values()))["hardware_model"]
        _first_split(hw)["feature_index"] = 42

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


@pytest.mark.parametrize(
    "edit,message",
    [
        pytest.param(lambda g: _first_split(g).update(feature_index=99), "feature 99", id="feature-past-end"),
        pytest.param(lambda g: _first_split(g).update(feature_index=-1), "feature -1", id="feature-negative"),
        pytest.param(lambda g: _first_split(g).update(feature_index=True), "feature True", id="feature-bool"),
        pytest.param(lambda g: _first_split(g).update(threshold=float("nan")), "threshold nan", id="threshold-nan"),
        pytest.param(lambda g: _first_split(g).update(threshold="1.5"), "threshold '1.5'", id="threshold-text"),
        pytest.param(lambda g: g["trees"].append({"value": float("inf")}), "leaf value inf", id="leaf-inf"),
        pytest.param(lambda g: _first_split(g).pop("right"), "not a mapping", id="child-missing"),
        pytest.param(lambda g: g["cumulative_gain"].pop(), "cumulative_gain", id="gain-short"),
        pytest.param(lambda g: g.update(base_prediction="x"), "base prediction 'x'", id="base-text"),
        pytest.param(lambda g: g.update(base_prediction=float("nan")), "base prediction nan", id="base-nan"),
    ],
)
def test_model_tree_is_checked_on_load(workspace, tmp_path, capsys, edit, message):
    code = _predict_with_model(workspace, tmp_path, lambda d: edit(d["per_component"]["BPTAGE"]["event"]))
    assert code == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err and "Traceback" not in err
    assert not (tmp_path / "preds.csv").exists()


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
        for sample in doc["samples"]:
            sample["component_power"].pop("IFU", None)

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
