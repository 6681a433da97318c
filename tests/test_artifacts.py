"""Knowledge-base and model files: format 2, format 1 back-compat, versions,
and the loader's checks, through the library and the CLI."""

import contextlib
import copy
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from firepower import trees
from firepower.application import build_target_model, load_model, model_to_dict, save_model
from firepower.cli import EXIT_DATA, EXIT_OK, main
from firepower.dataset import load_dataset
from firepower.errors import ModelError, SchemaError
from firepower.knowledge import (
    extract_knowledge,
    knowledge_base_to_dict,
    load_knowledge_base,
    save_knowledge_base,
)

# Written by firepower before format 2 (commit a954740): `extract` and `build`
# with --n-estimators 4 --max-depth 3 on a 6 + 4 configuration x 3 workload
# synth pair (seed 0), `build` on train.json (2 target configurations), and
# `predict` of model.json on test.json (the other 2) into preds.csv.
FORMAT1 = Path(__file__).parent / "data" / "format1"
FIXTURE_HP = ["--n-estimators", "4", "--max-depth", "3"]
_HP = trees.GbtHyperparams(n_estimators=4, max_depth=3)


def _run(argv) -> tuple[int, str]:
    """main(argv) and what it printed on stderr; an exception escapes."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    return code, err.getvalue()


def _predict(model, out) -> tuple[int, str]:
    return _run(["predict", "--model", str(model), "--input", str(FORMAT1 / "test.json"), "--out", str(out)])


def _build(kb, out) -> tuple[int, str]:
    return _run(
        ["build", "--kb", str(kb), "--target-train", str(FORMAT1 / "train.json"), "--out", str(out)]
        + FIXTURE_HP
    )


def _write(path, doc) -> Path:
    path.write_text(json.dumps(doc))
    return path


def _fixture(name) -> dict:
    return json.loads((FORMAT1 / name).read_text())


def _format2(kind) -> dict:
    """The format-1 fixture's kb or model, written again in format 2."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "doc.json"
        if kind == "kb":
            save_knowledge_base(load_knowledge_base(FORMAT1 / "kb.json"), path)
        else:
            save_model(load_model(FORMAT1 / "model.json"), path)
        return json.loads(path.read_text())


# --- format 1 still loads, bit for bit ---------------------------------------


def test_format1_fixtures_predate_the_version_key():
    for name in ("kb.json", "model.json"):
        doc = _fixture(name)
        assert "format_version" not in doc
        assert "trees" in next(iter(doc["per_component"].values()))[
            "hardware_model" if name == "kb.json" else "event"
        ]


def test_format1_model_predicts_bit_equal(tmp_path):
    assert _predict(FORMAT1 / "model.json", tmp_path / "preds.csv")[0] == EXIT_OK
    assert (tmp_path / "preds.csv").read_bytes() == (FORMAT1 / "preds.csv").read_bytes()


def test_model_built_from_format1_kb_predicts_bit_equal(tmp_path):
    assert _build(FORMAT1 / "kb.json", tmp_path / "model.json")[0] == EXIT_OK
    assert json.loads((tmp_path / "model.json").read_text())["format_version"] == 2
    assert _predict(tmp_path / "model.json", tmp_path / "preds.csv")[0] == EXIT_OK
    assert (tmp_path / "preds.csv").read_bytes() == (FORMAT1 / "preds.csv").read_bytes()


def test_format1_kb_importances_bit_equal():
    kb = load_knowledge_base(FORMAT1 / "kb.json")
    doc = _fixture("kb.json")
    for comp in kb.component_table:
        ck = kb.per_component[comp.name]
        assert ck.importance == doc["per_component"][comp.name]["importance"]
        assert dict(zip(comp.hw_params, trees.feature_importance(ck.hardware_model).tolist())) == ck.importance


def test_format1_rewritten_as_format2_is_the_same_model(tmp_path):
    kb = load_knowledge_base(FORMAT1 / "kb.json")
    model = load_model(FORMAT1 / "model.json")
    save_knowledge_base(kb, tmp_path / "kb.json")
    save_model(model, tmp_path / "model.json")
    for name in ("kb.json", "model.json"):
        assert (tmp_path / name).stat().st_size < (FORMAT1 / name).stat().st_size
    again = load_model(tmp_path / "model.json")
    assert model_to_dict(again) == model_to_dict(model)
    test = load_dataset(FORMAT1 / "test.json")
    assert np.array_equal(again.predict_components(test), model.predict_components(test))
    kb_again = load_knowledge_base(tmp_path / "kb.json")
    for name, ck in kb.per_component.items():
        assert trees.gbt_to_dict(kb_again.per_component[name].hardware_model) == trees.gbt_to_dict(
            ck.hardware_model
        )
        assert kb_again.per_component[name].importance == ck.importance
    # A component that inherits its kb model carries it into the model unchanged.
    for name, (hw, _) in model.per_component.items():
        if hw.variant == "inherited":
            assert trees.gbt_to_dict(hw.model) == trees.gbt_to_dict(kb.per_component[name].hardware_model)


def test_numpy_integer_counts_save_and_reload(tmp_path):
    # GbtHyperparams accepts numpy integer counts and stores them as int,
    # which JSON can write.
    hp = trees.GbtHyperparams(n_estimators=np.int64(4), max_depth=np.int32(3), min_samples_leaf=np.uint8(1))
    assert hp == _HP and {type(v) for v in (hp.n_estimators, hp.max_depth, hp.min_samples_leaf)} == {int}
    kb = extract_knowledge(load_dataset(FORMAT1 / "test.json"), hp)
    save_knowledge_base(kb, tmp_path / "kb.json")
    assert knowledge_base_to_dict(load_knowledge_base(tmp_path / "kb.json")) == knowledge_base_to_dict(kb)
    model = build_target_model(kb, load_dataset(FORMAT1 / "train.json"), hp)
    save_model(model, tmp_path / "model.json")
    assert model_to_dict(load_model(tmp_path / "model.json")) == model_to_dict(model)


# --- versions -----------------------------------------------------------------


@pytest.mark.parametrize("version", [3, "2", 0, True, None, 2.0])
@pytest.mark.parametrize("kind", ["kb", "model"])
def test_unknown_format_version_is_data_error(tmp_path, kind, version):
    doc = _format2(kind)
    doc["format_version"] = version
    path = _write(tmp_path / f"{kind}.json", doc)
    if kind == "kb":
        code, err = _build(path, tmp_path / "out.json")
    else:
        code, err = _predict(path, tmp_path / "out.csv")
    assert code == EXIT_DATA
    assert err.startswith("error:") and f"unknown format_version {version!r}" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out.json").exists() and not (tmp_path / "out.csv").exists()


def test_format2_file_with_format1_trees_is_data_error(tmp_path):
    doc = _fixture("model.json")
    doc["format_version"] = 2
    code, err = _predict(_write(tmp_path / "model.json", doc), tmp_path / "out.csv")
    assert code == EXIT_DATA
    assert "missing field 'tree_sizes'" in err and "Traceback" not in err


# --- deep nesting ---------------------------------------------------------------


def _spine_v1(depth: int) -> str:
    """The JSON text of a format-1 tree whose left spine is `depth` splits deep."""
    split = '{"feature_index": 0, "threshold": 0.5, "left": '
    return split * depth + '{"value": 1.0}' + ', "right": {"value": 2.0}}' * depth


@pytest.mark.parametrize("kind", ["kb", "model"])
def test_deeply_nested_format1_file_is_data_error(tmp_path, kind):
    doc = _fixture(f"{kind}.json")
    gbt_key = "hardware_model" if kind == "kb" else "event"
    doc["per_component"]["BPTAGE"][gbt_key]["trees"][0] = "SPINE"
    text = json.dumps(doc).replace('"SPINE"', _spine_v1(3000))
    path = tmp_path / f"{kind}.json"
    path.write_text(text)
    if kind == "kb":
        code, err = _build(path, tmp_path / "out.json")
    else:
        code, err = _predict(path, tmp_path / "out.csv")
    assert code == EXIT_DATA
    assert err.startswith("error:") and "nested too deeply" in err and "Traceback" not in err


def test_deep_format1_tree_is_schema_error():
    # Built in Python, so only the decode recurses, not the JSON parser.
    tree = {"value": 1.0}
    for _ in range(50_000):
        tree = {"feature_index": 0, "threshold": 0.5, "left": tree, "right": {"value": 2.0}}
    doc = trees.gbt_to_dict(trees.fit_gbt(np.arange(4.0)[:, None], np.arange(4.0), _HP))
    del doc["tree_sizes"], doc["feature"], doc["value"]
    doc["trees"] = [tree]
    with pytest.raises(SchemaError, match="nested too deeply"):
        trees.gbt_from_dict(doc, 1)


def test_format1_tree_nested_3000_deep_is_schema_error():
    # A file this deep stops in the JSON parser (the CLI test above); a
    # document built in Python reaches the decoder's own check.
    tree = {"value": 1.0}
    for _ in range(3000):
        tree = {"feature_index": 0, "threshold": 0.5, "left": tree, "right": {"value": 2.0}}
    doc = trees.gbt_to_dict(trees.fit_gbt(np.arange(4.0)[:, None], np.arange(4.0), _HP))
    del doc["tree_sizes"], doc["feature"], doc["value"]
    doc["trees"] = [tree]
    with pytest.raises(SchemaError, match="^GBT tree is nested too deeply to decode$"):
        trees.gbt_from_dict(doc, 1)


def test_deep_format2_tree_round_trips():
    depth = 5000
    doc = trees.gbt_to_dict(trees.fit_gbt(np.arange(4.0)[:, None], np.arange(4.0), _HP))
    doc["tree_sizes"] = [2 * depth + 1]
    doc["feature"] = [0] * depth + [-1] * (depth + 1)
    doc["value"] = [float(-i) for i in range(depth)] + [1.0] * (depth + 1)
    m = trees.gbt_from_dict(json.loads(json.dumps(doc)))
    assert trees.gbt_to_dict(m) == doc
    assert m.predict([0.5]) == doc["base_prediction"] + m.hyperparams.learning_rate * 1.0


# --- the kb loader's checks ---------------------------------------------------


def _drop_bptage(doc):
    del doc["per_component"]["BPTAGE"]


def _extra_component(doc):
    doc["per_component"]["Extra"] = copy.deepcopy(doc["per_component"]["BPTAGE"])


def _set_importance(value):
    def edit(doc):
        doc["per_component"]["BPTAGE"]["importance"] = value

    return edit


def _widen(gbt):
    """Make a GBT document claim one feature more than it reads."""
    gbt["feature_count"] += 1
    gbt["cumulative_gain"].append(0.0)


def _set_strategy(doc):
    doc["per_component"]["BPTAGE"]["strategy"] = {"kind": "retrain", "param": "RobEntry"}


@pytest.mark.parametrize(
    "edit,message",
    [
        pytest.param(_drop_bptage, "per_component does not match", id="component-missing"),
        pytest.param(_extra_component, "per_component does not match", id="component-extra"),
        pytest.param(lambda d: d.update(threshold="x"), "threshold 'x'", id="threshold-text"),
        pytest.param(lambda d: d.update(threshold=float("nan")), "threshold nan", id="threshold-nan"),
        pytest.param(lambda d: d.update(threshold=None), "threshold None", id="threshold-null"),
        pytest.param(_set_importance({"x": "y"}), "importances for ['x']", id="importance-keys"),
        pytest.param(
            _set_importance({"BranchCount": 0.5, "FetchWidth": 0.5}), "importances for", id="importance-order"
        ),
        pytest.param(
            _set_importance({"FetchWidth": "y", "BranchCount": 0.5}),
            "importance of FetchWidth 'y'",
            id="importance-text",
        ),
        pytest.param(
            _set_importance({"FetchWidth": float("inf"), "BranchCount": 0.5}),
            "importance of FetchWidth inf",
            id="importance-inf",
        ),
        pytest.param(_set_importance(["FetchWidth"]), "knowledge base: malformed", id="importance-list"),
        pytest.param(
            lambda d: _widen(d["per_component"]["BPTAGE"]["hardware_model"]),
            "knowledge base: component 'BPTAGE' hardware model reads 3 features, not 2",
            id="hardware-model-width",
        ),
        pytest.param(
            _set_strategy,
            "knowledge base: component 'BPTAGE' retrains on 'RobEntry', not one of its hardware parameters",
            id="retrain-param-outside-component",
        ),
    ],
)
@pytest.mark.parametrize("fixture_format", [1, 2])
def test_kb_loader_checks(tmp_path, edit, message, fixture_format):
    doc = _fixture("kb.json") if fixture_format == 1 else _format2("kb")
    edit(doc)
    code, err = _build(_write(tmp_path / "kb.json", doc), tmp_path / "model.json")
    assert code == EXIT_DATA
    assert err.startswith("error:") and message in err and "Traceback" not in err
    assert not (tmp_path / "model.json").exists()


@pytest.mark.parametrize(
    "component,role,message",
    [
        pytest.param(
            "BPTAGE", "event", "model: component 'BPTAGE' event model reads 4 features, not 3", id="event"
        ),
        pytest.param(
            "I-TLB", "hw", "model: component 'I-TLB' hardware model reads 2 features, not 1", id="inherited-hw"
        ),
    ],
)
@pytest.mark.parametrize("fixture_format", [1, 2])
def test_model_loader_checks_gbt_widths(tmp_path, component, role, message, fixture_format):
    doc = _fixture("model.json") if fixture_format == 1 else _format2("model")
    entry = doc["per_component"][component]
    _widen(entry["event"] if role == "event" else entry["hw"]["gbt"])
    code, err = _predict(_write(tmp_path / "model.json", doc), tmp_path / "preds.csv")
    assert code == EXIT_DATA
    assert err.startswith("error:") and message in err and "Traceback" not in err
    assert not (tmp_path / "preds.csv").exists()


def _set_linear(key, value):
    def edit(doc):
        doc["per_component"]["BPTAGE"]["hw"]["linear"][key] = value

    return edit


@pytest.mark.parametrize(
    "edit,message",
    [
        pytest.param(_set_linear("feature_index", True), "feature_index True is not of type int", id="index-bool"),
        pytest.param(_set_linear("feature_index", 0.0), "feature_index 0.0 is not of type int", id="index-float"),
        pytest.param(_set_linear("feature_index", "0"), "feature_index '0' is not of type int", id="index-text"),
        pytest.param(_set_linear("is_constant", "yes"), "is_constant 'yes' is not of type bool", id="flag-text"),
        pytest.param(_set_linear("is_constant", 0), "is_constant 0 is not of type bool", id="flag-int"),
        pytest.param(_set_linear("is_constant", None), "is_constant None is not of type bool", id="flag-null"),
    ],
)
@pytest.mark.parametrize("fixture_format", [1, 2])
def test_model_loader_checks_linear_types(tmp_path, edit, message, fixture_format):
    # BPTAGE's hardware model is a retrained linear model in both fixtures.
    doc = _fixture("model.json") if fixture_format == 1 else _format2("model")
    edit(doc)
    code, err = _predict(_write(tmp_path / "model.json", doc), tmp_path / "preds.csv")
    assert code == EXIT_DATA
    assert err.startswith("error: model: component 'BPTAGE' linear model ") and message in err
    assert "Traceback" not in err and not (tmp_path / "preds.csv").exists()


def _set_hyperparam(name, value):
    def edit(hyperparams):
        if name is None:
            hyperparams.clear()
        else:
            hyperparams[name] = value

    return edit


_HYPERPARAM_EDITS = [
    pytest.param(_set_hyperparam(None, None), "hyperparams {} do not hold exactly", id="empty"),
    pytest.param(lambda h: h.pop("l2_leaf_reg"), "do not hold exactly", id="field-missing"),
    pytest.param(_set_hyperparam("subsample", 0.5), "do not hold exactly", id="field-extra"),
    pytest.param(_set_hyperparam("n_estimators", True), "n_estimators True is not an integer", id="count-bool"),
    pytest.param(_set_hyperparam("max_depth", 0), "max_depth 0 is not an integer >= 1", id="count-zero"),
    pytest.param(_set_hyperparam("min_samples_leaf", 2.0), "min_samples_leaf 2.0 is not an integer", id="count-float"),
    pytest.param(_set_hyperparam("learning_rate", True), "learning_rate True is not a finite number", id="rate-bool"),
    pytest.param(_set_hyperparam("learning_rate", float("nan")), "learning_rate nan is not a finite", id="rate-nan"),
    pytest.param(_set_hyperparam("learning_rate", 1.5), "learning_rate 1.5 is not in (0, 1]", id="rate-above-1"),
    pytest.param(_set_hyperparam("learning_rate", 0.0), "learning_rate 0.0 is not in (0, 1]", id="rate-zero"),
    pytest.param(_set_hyperparam("l2_leaf_reg", float("inf")), "l2_leaf_reg inf is not a finite", id="l2-inf"),
    pytest.param(_set_hyperparam("l2_leaf_reg", -1.0), "l2_leaf_reg -1.0 is negative", id="l2-negative"),
]


@pytest.mark.parametrize("edit,message", _HYPERPARAM_EDITS)
@pytest.mark.parametrize("fixture_format", [1, 2])
def test_loaders_require_valid_hyperparams(tmp_path, edit, message, fixture_format):
    # Defaults must not stand in for a missing field, nor a bool for a number.
    kb = _fixture("kb.json") if fixture_format == 1 else _format2("kb")
    edit(kb["per_component"]["BPTAGE"]["hardware_model"]["hyperparams"])
    code, err = _build(_write(tmp_path / "kb.json", kb), tmp_path / "built.json")
    assert code == EXIT_DATA and "Traceback" not in err
    assert err.startswith("error: knowledge base: component 'BPTAGE' hardware model hyperpar")
    assert message in err and not (tmp_path / "built.json").exists()
    for component, role in (("BPTAGE", "event"), ("I-TLB", "hw")):
        model = _fixture("model.json") if fixture_format == 1 else _format2("model")
        entry = model["per_component"][component]
        edit((entry["event"] if role == "event" else entry["hw"]["gbt"])["hyperparams"])
        code, err = _predict(_write(tmp_path / "model.json", model), tmp_path / "preds.csv")
        what = "event model" if role == "event" else "hardware model"
        assert code == EXIT_DATA and "Traceback" not in err
        assert err.startswith(f"error: model: component {component!r} {what} hyperpar")
        assert message in err and not (tmp_path / "preds.csv").exists()


# --- fuzzing the format-2 GBT decoder -------------------------------------------

_X = np.random.default_rng(3).uniform(0, 10, size=(24, 3))
_BASE = trees.gbt_to_dict(trees.fit_gbt(_X, 2.0 * _X[:, 0] + _X[:, 1] ** 2, _HP))
_LISTS = ("tree_sizes", "feature", "value")

_junk = st.one_of(
    st.integers(-3, 12),
    st.integers(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.booleans(),
    st.none(),
    st.text(max_size=3),
    st.lists(st.integers(-1, 3), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=1),
    st.just(10**400),
)


@st.composite
def _mutation(draw):
    """One edit of one of a GBT's three lists: set, insert or delete an
    entry, truncate, replace the whole list, flip a node between leaf and
    split, or move one unit from an entry to the next."""
    key = draw(st.sampled_from(_LISTS))
    op = draw(st.sampled_from(["set", "insert", "delete", "truncate", "replace", "flip", "shift"]))
    index = draw(st.integers(0, 200))
    value = draw(_junk)

    def apply(doc):
        entries = doc[key]
        if op == "replace":
            doc[key] = value
        elif type(entries) is not list:
            return
        elif op == "truncate":
            del entries[index % (len(entries) + 1) :]
        elif not entries:
            entries.append(value)
        elif op == "set":
            entries[index % len(entries)] = value
        elif op == "insert":
            entries.insert(index % (len(entries) + 1), value)
        elif op == "flip":  # a leaf becomes a split and a split a leaf: trees end early or late
            i = index % len(entries)
            entries[i] = 0 if entries[i] == trees.LEAF else trees.LEAF
        elif op == "shift":  # one entry up, the next down: a node moves between trees
            i = index % len(entries)
            if i + 1 < len(entries) and {type(entries[i]), type(entries[i + 1])} <= {int, float}:
                entries[i] += 1
                entries[i + 1] -= 1
        else:
            del entries[index % len(entries)]

    return apply


def _linked_trees(sizes, feature, value, feature_count):
    """The linked decoder of format 2 that the array decoder replaced: the
    roots of the trees as TreeNodes, or its SchemaError."""
    for name, entries in (("tree_sizes", sizes), ("feature", feature), ("value", value)):
        if type(entries) is not list:
            raise SchemaError(f"GBT {name} is a {type(entries).__name__}, not a list")
    for size in sizes:
        if type(size) is not int or size < 1:
            raise SchemaError(f"GBT tree size {size!r} is not a positive integer")
    total = sum(sizes)
    if len(feature) != total or len(value) != total:
        raise SchemaError(
            f"GBT tree_sizes add up to {total} nodes, but feature holds {len(feature)} and value {len(value)}"
        )
    for j, v in zip(feature, value):
        if type(j) is not int or not trees.LEAF <= j < feature_count:
            raise SchemaError(f"GBT tree node reads feature {j!r}, not one of {feature_count}")
        trees.finite_number(v, "GBT leaf value" if j == trees.LEAF else "GBT threshold")
    roots, nodes = [], iter(zip(feature, value))
    for t, size in enumerate(sizes):
        pending = []  # splits still short of a child, innermost last
        for k in range(size):
            j, v = next(nodes)
            node = trees.TreeNode(value=v) if j == trees.LEAF else trees.TreeNode(j, v)
            if pending:
                parent = pending[-1]
                if parent.left is None:
                    parent.left = node
                else:
                    pending.pop().right = node
            elif k:
                raise SchemaError(f"GBT tree {t} closes after {k} of its {size} nodes")
            else:
                roots.append(node)
            if j != trees.LEAF:
                pending.append(node)
        if pending:
            raise SchemaError(f"GBT tree {t} does not close within its {size} nodes")
    return roots


def _preorder_nodes(root):
    """A linked tree's nodes in preorder, each as (feature_index, threshold, value) reprs."""
    out, stack = [], [root]
    while stack:
        node = stack.pop()
        out.append((node.feature_index, repr(float(node.threshold)), repr(float(node.value))))
        if node.left is not None:
            stack += [node.right, node.left]
    return out


def _linked_error(doc) -> str | None:
    """The message of the linked decoder's SchemaError on a GBT document, or None."""
    try:
        _linked_trees(doc["tree_sizes"], doc["feature"], doc["value"], doc["feature_count"])
    except SchemaError as exc:
        return str(exc)
    return None


@given(st.lists(_mutation(), min_size=1, max_size=4))
@settings(max_examples=300, deadline=None)
def test_format2_decoder_raises_only_data_errors(mutations):
    # Each mutant either raises the SchemaError the linked decoder raised,
    # or loads the linked decoder's trees, and then predict_many is the
    # scalar walk of every row, a NaN entry's included.
    doc = copy.deepcopy(_BASE)
    for apply in mutations:
        apply(doc)
    message = _linked_error(doc)
    if message is not None:
        with pytest.raises(SchemaError) as got:
            trees.gbt_from_dict(doc)
        assert str(got.value) == message
        return
    m = trees.gbt_from_dict(doc)
    want = _linked_trees(doc["tree_sizes"], doc["feature"], doc["value"], doc["feature_count"])
    assert [_preorder_nodes(root) for root in m.trees] == [_preorder_nodes(root) for root in want]
    X = np.concatenate((_X, [[np.nan, 5.0, 5.0], [5.0, np.nan, 5.0]]))
    assert m.predict_many(X).tobytes() == np.array([m.predict(x) for x in X]).tobytes()
    assert trees.gbt_to_dict(m)["tree_sizes"] == doc["tree_sizes"]


_MODEL2 = json.dumps(_format2("model"))


@given(st.lists(_mutation(), min_size=1, max_size=3), st.sampled_from(["IFU", "BPTAGE", "LSU"]))
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_cli_predict_on_fuzzed_model_exits_cleanly(mutations, component):
    doc = json.loads(_MODEL2)
    gbt = doc["per_component"][component]["event"]
    for apply in mutations:
        apply(gbt)
    with tempfile.TemporaryDirectory() as tmp:
        code, err = _predict(_write(Path(tmp) / "model.json", doc), Path(tmp) / "preds.csv")
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err
    assert (code == EXIT_OK) == (err == "")


@given(st.lists(_mutation(), min_size=1, max_size=3))
@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
def test_cli_predict_on_a_rejected_mutant_is_a_data_error(mutations):
    # A model whose event GBT the linked decoder rejects exits 2, naming
    # what it named, without a traceback.
    doc = json.loads(_MODEL2)
    gbt = doc["per_component"]["BPTAGE"]["event"]
    for apply in mutations:
        apply(gbt)
    message = _linked_error(gbt)
    assume(message is not None)
    with tempfile.TemporaryDirectory() as tmp:
        code, err = _predict(_write(Path(tmp) / "model.json", doc), Path(tmp) / "preds.csv")
        assert not (Path(tmp) / "preds.csv").exists()
    assert code == EXIT_DATA and "Traceback" not in err
    assert err.startswith("error:") and message in err
