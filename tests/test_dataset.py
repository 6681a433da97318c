import copy
import dataclasses
import gc
import json
import math
import os
import re
import stat
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from firepower import dataset as dataset_module
from firepower.cli import main
from firepower.dataset import (
    BUILTIN_ALIASES,
    CANONICAL_PARAMETERS,
    ComponentDef,
    Configuration,
    Dataset,
    PowerSample,
    average_power_per_config,
    builtin_component_table,
    builtin_registry,
    component_labels,
    dataset_from_dict,
    dataset_to_dict,
    design_matrix,
    feature_row,
    few_shot_split,
    load_dataset,
    save_dataset,
)
from firepower.errors import AliasError, FirePowerError, SchemaError, ValidationError
from firepower.harness import run_experiment
from firepower.synthgen import default_spec, generate_pair
from firepower.trees import GbtHyperparams

from conftest import format1_doc, tiny_doc, with_samples


def test_canonical_parameter_count():
    assert len(CANONICAL_PARAMETERS) == 14


def test_alias_canonicalization():
    reg = builtin_registry()
    assert reg.canonicalize("LDQEntry") == "LDQ/STQEntry"
    assert reg.canonicalize("STQEntry") == "LDQ/STQEntry"
    assert reg.canonicalize("ICacheWay") == "DCache/ICacheWay"
    assert reg.canonicalize("ICacheTLBEntry") == "DTLBEntry"
    assert reg.canonicalize("FpIssueWidth") == "Mem/FpIssueWidth"


def test_canonicalization_idempotent():
    reg = builtin_registry()
    for alias in BUILTIN_ALIASES:
        canon = reg.canonicalize(alias)
        assert reg.canonicalize(canon) == canon


def test_unknown_parameter_rejected():
    reg = builtin_registry()
    with pytest.raises(AliasError):
        reg.canonicalize("WarpCount")


def test_builtin_table_has_22_components():
    table = builtin_component_table()
    assert len(table) == 22
    union = set()
    for comp in table:
        union.update(comp.hw_params)
    assert union == set(CANONICAL_PARAMETERS)


def test_builtin_table_retrain_pattern():
    table = builtin_component_table()
    dominant = {c.name: c.important_param for c in table if c.important_param}
    assert dominant == {
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


def test_important_param_must_belong_to_component():
    with pytest.raises(ValidationError):
        ComponentDef(name="X", hw_params=("FetchWidth",), important_param="RobEntry")


def test_load_valid_document(tiny_dataset):
    assert tiny_dataset.architecture == "Tiny"
    assert len(tiny_dataset.configurations) == 3
    assert len(tiny_dataset.samples) == 6
    # Aliased inputs land on canonical names.
    assert "LDQ/STQEntry" in tiny_dataset.configurations[0].params
    assert "LDQEntry" not in tiny_dataset.configurations[0].params


def test_other_logic_residual_derivation():
    doc = tiny_doc()
    for s in doc["samples"]:
        del s["component_power"]["Other Logic"]
    ds = dataset_from_dict(doc)
    for s in ds.samples:
        parts = sum(v for k, v in s.component_power.items() if k != "Other Logic")
        assert s.component_power["Other Logic"] == pytest.approx(s.total_power - parts)


def test_component_sum_tolerance_enforced():
    doc = tiny_doc()
    doc["samples"][0]["total_power"] *= 1.2
    with pytest.raises(ValidationError):
        dataset_from_dict(doc)


def _table_without_other_logic(doc):
    doc["component_table"] = [c for c in doc["component_table"] if c["name"] != "Other Logic"]
    for sample in doc["samples"]:
        sample["total_power"] -= sample["component_power"].pop("Other Logic")
    return doc


def test_no_residual_without_other_logic_in_the_table(tmp_path):
    # A table of Front and Core alone: a full label set is checked against
    # its total, and no Other Logic label is made up that a reload rejects.
    doc = _table_without_other_logic(tiny_doc())
    sample = doc["samples"][0]
    sample["component_power"] = {"Front": 1.0, "Core": 2.0}
    sample["total_power"] = 100.0
    with pytest.raises(ValidationError, match=r"sum to 3, total is 100 \(beyond 0.5% tolerance\)"):
        dataset_from_dict(doc)
    sample["total_power"] = 3.0
    doc["samples"][1]["component_power"] = {"Core": 2.0}  # a partial set is left as it is
    ds = dataset_from_dict(doc)
    assert all("Other Logic" not in s.component_power for s in ds.samples)
    assert dict(ds.samples[1].component_power) == {"Core": 2.0}
    assert dataset_from_dict(dataset_to_dict(ds)) == ds
    save_dataset(ds, tmp_path / "ds.json")
    assert load_dataset(tmp_path / "ds.json") == ds


def test_conflicting_merged_parameter_values():
    doc = tiny_doc()
    doc["configurations"][0]["params"]["STQEntry"] = 99
    with pytest.raises(ValidationError):
        dataset_from_dict(doc)


def test_missing_parameter_rejected():
    doc = tiny_doc()
    del doc["configurations"][0]["params"]["RobEntry"]
    with pytest.raises(SchemaError):
        dataset_from_dict(doc)


def test_nonpositive_power_rejected():
    doc = tiny_doc()
    doc["samples"][0]["component_power"]["Front"] = -1.0
    with pytest.raises(ValidationError):
        dataset_from_dict(doc)


def test_duplicate_sample_rejected():
    doc = tiny_doc()
    doc["samples"].append(copy.deepcopy(doc["samples"][0]))
    with pytest.raises(ValidationError, match=r"^duplicate sample for \('C1', 'w0'\)$"):
        dataset_from_dict(doc)


def test_duplicate_config_id_rejected():
    doc = tiny_doc()
    doc["configurations"].append(copy.deepcopy(doc["configurations"][0]))
    with pytest.raises(ValidationError, match="^duplicate configuration ids$"):
        dataset_from_dict(doc)


def test_sample_with_unknown_config_rejected():
    doc = tiny_doc()
    doc["samples"][0]["config_id"] = "C9"
    with pytest.raises(ValidationError, match=r"^sample \(C9, w0\): unknown configuration id 'C9'$"):
        dataset_from_dict(doc)


def test_round_trip(tmp_path, tiny_dataset):
    path = tmp_path / "ds.json"
    save_dataset(tiny_dataset, path)
    again = load_dataset(path)
    assert dataset_to_dict(again) == dataset_to_dict(tiny_dataset)


def test_compact_file_round_trip(tmp_path):
    # A registry alias of the file's own, analytical estimates and a custom
    # component table survive the one-line file unchanged.
    doc = tiny_doc()
    doc["parameters"] = {
        "canonical": list(CANONICAL_PARAMETERS),
        "aliases": {**BUILTIN_ALIASES, "LSQEntry": "LDQ/STQEntry"},
    }
    params = doc["configurations"][0]["params"]
    params["LSQEntry"] = params.pop("LDQEntry")
    for sample in doc["samples"][::2]:
        sample["analytical_estimate"] = 0.9 * sample["total_power"]
    ds = dataset_from_dict(doc)
    path = tmp_path / "ds.json"
    save_dataset(ds, path)
    assert load_dataset(path) == ds
    text = path.read_text()
    assert json.loads(text) == dataset_to_dict(ds)
    assert text.count("\n") == 1 and text.endswith("\n")


def test_average_power_matches_brute_force(tiny_dataset):
    averages = average_power_per_config(tiny_dataset, "Front")
    for cfg in tiny_dataset.configurations:
        values = [
            s.component_power["Front"]
            for s in tiny_dataset.samples
            if s.config_id == cfg.id
        ]
        assert averages[cfg.id] == pytest.approx(sum(values) / len(values))


def _left_fold(values):
    total = 0.0
    for v in values:
        total += v
    return total


def test_sums_are_left_folds_on_every_python():
    # Python 3.12+ sum() compensates its rounding: sum([1.0, 1e-16, 1e-16])
    # is 1.0000000000000002 there and 1.0 on 3.10 and 3.11.  The average
    # (a hardware GBT label) and the Other Logic residual must be the 3.11
    # ones, or outputs would change with the Python version.
    labels = [1.0, 1e-16, 1e-16]
    doc = tiny_doc()
    c1 = [s for s in doc["samples"] if s["config_id"] == "C1"]
    c1.append(copy.deepcopy(c1[0]))
    c1[-1]["workload"] = "w2"
    doc["samples"].append(c1[-1])
    for s, front in zip(c1, labels):
        s["total_power"] += front - s["component_power"]["Front"]
        s["component_power"]["Front"] = front
    assert average_power_per_config(dataset_from_dict(doc), "Front")["C1"] == 1.0 / 3

    sample = {"config_id": "C1", "workload": "w0", "total_power": 3.0,
              "component_power": {"Front": 1.0, "Core": 1e-16}}
    doc = tiny_doc()
    doc["component_table"].insert(0, {"name": "Tail", "hw_params": ["FetchWidth"],
                                      "event_stats": []})
    doc["samples"] = [{**sample, "component_power": {"Tail": 1e-16, **sample["component_power"]}}]
    (parsed,) = dataset_from_dict(doc).samples
    assert parsed.component_power["Other Logic"] == 3.0 - _left_fold([1e-16, 1.0, 1e-16])


def test_average_power_sample_order_invariant(tiny_dataset):
    shuffled = Dataset.of_samples(
        tiny_dataset.architecture,
        tiny_dataset.configurations,
        tuple(reversed(tiny_dataset.samples)),
        tiny_dataset.component_table,
        tiny_dataset.registry,
    )
    assert average_power_per_config(shuffled, "Core") == average_power_per_config(
        tiny_dataset, "Core"
    )


def test_few_shot_split_partitions(tiny_dataset):
    train, test = few_shot_split(tiny_dataset, ["C2"])
    assert {c.id for c in train.configurations} == {"C2"}
    assert {c.id for c in test.configurations} == {"C1", "C3"}
    key = lambda s: (s.config_id, s.workload)  # noqa: E731
    merged = sorted(map(key, train.samples)) + sorted(map(key, test.samples))
    assert sorted(merged) == sorted(map(key, tiny_dataset.samples))


def test_few_shot_split_rejects_degenerate_cases(tiny_dataset):
    with pytest.raises(ValidationError):
        few_shot_split(tiny_dataset, [])
    with pytest.raises(ValidationError):
        few_shot_split(tiny_dataset, ["C1", "C2", "C3"])
    with pytest.raises(ValidationError):
        few_shot_split(tiny_dataset, ["nope"])


def test_feature_vector_ordering(tiny_dataset):
    sample = tiny_dataset.samples[0]
    comp = tiny_dataset.component("Front")
    cfg = tiny_dataset.config(sample.config_id)
    assert feature_row(comp, cfg, sample.event_stats) == [4.0, 8.0, 1.0]
    hw_only = ComponentDef(name="Front", hw_params=comp.hw_params)
    assert feature_row(hw_only, cfg, sample.event_stats) == [4.0, 8.0]
    X = design_matrix(tiny_dataset, comp)
    assert X.shape == (len(tiny_dataset.samples), 3)
    assert list(X[0]) == [4.0, 8.0, 1.0]


def test_feature_vector_missing_event(tiny_dataset):
    sample = tiny_dataset.samples[0]
    comp = ComponentDef(name="Front", hw_params=("FetchWidth",), event_stats=("absent",))
    with pytest.raises(ValidationError, match="absent"):
        feature_row(comp, tiny_dataset.config(sample.config_id), sample.event_stats)
    with pytest.raises(ValidationError, match=r"sample \(C1, w0\).*absent"):
        design_matrix(tiny_dataset, comp)


_NUMBER_LIKE = st.one_of(
    st.floats(),  # NaN and both infinities included
    st.integers(min_value=-(10**400), max_value=10**400),
    st.booleans(),
    st.none(),
    st.text(max_size=4),
    st.sampled_from(["12.5", "nan", "1e400"]),
    st.lists(st.floats(), max_size=2),
    st.dictionaries(st.text(max_size=2), st.floats(), max_size=2),
)


@given(
    field=st.sampled_from(["total_power", "component_power", "event_stats", "analytical_estimate"]),
    whole=st.booleans(),
    value=_NUMBER_LIKE,
)
@settings(max_examples=300, deadline=None)
def test_sample_numbers_load_as_finite_floats_or_fail_cleanly(field, whole, value):
    # One value of sample 0, or (whole) the field itself, is replaced.
    doc = tiny_doc()
    sample = doc["samples"][0]
    if field in ("component_power", "event_stats") and not whole:
        sample[field][next(iter(sample[field]))] = value
    else:
        sample[field] = value
    try:
        ds = dataset_from_dict(doc)
    except (SchemaError, ValidationError):
        return
    for s in ds.samples:
        numbers = [s.total_power, *s.component_power.values(), *s.event_stats.values()]
        if s.analytical_estimate is not None:
            numbers.append(s.analytical_estimate)
        assert all(type(v) is float and math.isfinite(v) for v in numbers)


def format2_doc(doc):
    """A format-1 dataset document in format 2's layout, values as they are:
    each mapping's names in first-seen order, null where a sample has none."""
    entries = doc["samples"]
    samples = {key: [e[key] for e in entries] for key in ("config_id", "workload", "total_power")}
    for key in ("component_power", "event_stats"):
        names = list(dict.fromkeys(name for e in entries for name in e.get(key, {})))
        samples[key] = {"names": names, "rows": [[e.get(key, {}).get(name) for name in names] for e in entries]}
    if any(e.get("analytical_estimate") is not None for e in entries):
        samples["analytical_estimate"] = [e.get("analytical_estimate") for e in entries]
    return {**doc, "format_version": 2, "samples": samples}


@pytest.mark.parametrize("version", [1, 2])
def test_loading_leaves_the_document_unchanged(version):
    # Sample 0 gains the Other Logic residual.  With one numpy float the
    # numbers go through the per-sample check, not the column-wise one.
    for numpy_total in (False, True):
        doc = tiny_doc()
        del doc["samples"][0]["component_power"]["Other Logic"]
        doc["samples"][1]["event_stats"] = {}
        del doc["samples"][2]["component_power"]
        if numpy_total:
            doc["samples"][3]["total_power"] = np.float64(doc["samples"][3]["total_power"])
        doc = doc if version == 1 else format2_doc(doc)
        before = copy.deepcopy(doc)
        ds = dataset_from_dict(doc)
        assert doc == before
        assert "Other Logic" in ds.samples[0].component_power
        assert ds.samples[3].total_power == float(before["samples"][3]["total_power"] if version == 1
                                                  else before["samples"]["total_power"][3])


def _set(key, name, value):
    """An edit that sets sample 3's entry name of mapping key to value."""
    return lambda sample: sample[key].__setitem__(name, value)


def _scale_total(sample):
    sample["total_power"] *= 1.2


def _drop_other_logic_and_grow_front(sample):
    del sample["component_power"]["Other Logic"]
    sample["component_power"]["Front"] = sample["total_power"] * 2


# One fault of sample 3, (C2, w1), and the message that names it.
_SAMPLE_FAULTS = [
    pytest.param(_set("component_power", "Front", float("nan")),
                 "sample (C2, w1) component_power of Front nan is not a finite number", id="nan-label"),
    pytest.param(_set("event_stats", "core_act", float("-inf")),
                 "sample (C2, w1) event_stats of core_act -inf is not a finite number", id="inf-event"),
    pytest.param(_set("component_power", "Core", True),
                 "sample (C2, w1) component_power of Core True is not a finite number", id="bool-label"),
    pytest.param(lambda s: s.__setitem__("total_power", "12.5"),
                 "sample (C2, w1) total_power '12.5' is not a finite number", id="text-total"),
    pytest.param(lambda s: s.__setitem__("total_power", 10**400),
                 f"sample (C2, w1) total_power {10**400!r} is not a finite number", id="int-beyond-float"),
    pytest.param(lambda s: s.__setitem__("analytical_estimate", float("nan")),
                 "sample (C2, w1) analytical_estimate nan is not a finite number", id="nan-estimate"),
    pytest.param(lambda s: s.__setitem__("total_power", None),
                 "sample (C2, w1) total_power None is not a finite number", id="null-total"),
    pytest.param(lambda s: s.__setitem__("total_power", 0), "sample (C2, w1): total_power must be positive",
                 id="zero-total"),
    pytest.param(_set("component_power", "Bogus", 1.0), "sample (C2, w1): unknown component 'Bogus'",
                 id="unknown-component"),
    pytest.param(_set("component_power", "Front", -1.0), "sample (C2, w1): nonpositive power label for 'Front'",
                 id="nonpositive-label"),
    pytest.param(_drop_other_logic_and_grow_front, "sample (C2, w1): nonpositive power label for 'Other Logic'",
                 id="nonpositive-residual"),
    pytest.param(_scale_total, "sample (C2, w1): component powers sum to 25.5, total is 30.6 "
                 "(beyond 0.5% tolerance)", id="sum-tolerance"),
]


@pytest.mark.parametrize("version", [1, 2])
@pytest.mark.parametrize("edit, message", _SAMPLE_FAULTS)
def test_sample_faults_are_named_alike_in_both_formats(edit, message, version):
    # A second fault, of another kind, in a later sample: the first sample at
    # fault in file order is the one named.
    doc = tiny_doc()
    doc["samples"][3]["component_power"]["Other Logic"] = 1.0
    doc["samples"][3]["total_power"] = 25.5  # 14.0 + 10.5 + 1.0
    edit(doc["samples"][3])
    doc["samples"][5]["component_power"]["Core"] = -2.0
    doc = doc if version == 1 else format2_doc(doc)
    with pytest.raises(FirePowerError) as exc:
        dataset_from_dict(doc)
    assert str(exc.value) == message


@pytest.mark.parametrize("version", [1, 2])
@pytest.mark.parametrize("value", [0, 3, 2.0, "2", True, None])
def test_unknown_dataset_format_version_is_a_schema_error(version, value):
    doc = tiny_doc() if version == 1 else format2_doc(tiny_doc())
    doc["format_version"] = value
    with pytest.raises(SchemaError, match=rf"^dataset: unknown format_version {re.escape(repr(value))} "
                       r"\(this version reads 1 and 2\)$"):
        dataset_from_dict(doc)


def _shorten(*path):
    def edit(samples):
        for key in path[:-1]:
            samples = samples[key]
        samples[path[-1]] = samples[path[-1]][:-1]
    return edit


def _unlabeled_name(samples):
    """Name a component the table lacks, null in every row."""
    samples["component_power"]["names"].append("Bogus")
    for row in samples["component_power"]["rows"]:
        row.append(None)


def _row(i, value):
    return lambda samples: samples["component_power"]["rows"].__setitem__(i, value)


@pytest.mark.parametrize(
    "edit, message",
    [
        pytest.param(_shorten("total_power"), "samples total_power is not a list of 6 entries, one per config_id",
                     id="short-totals"),
        pytest.param(_shorten("workload"), "samples workload is not a list of 6 entries, one per config_id",
                     id="short-workloads"),
        pytest.param(lambda s: s.__setitem__("analytical_estimate", [1.0] * 7),
                     "samples analytical_estimate is not a list of 6 entries, one per config_id", id="long-estimates"),
        pytest.param(_shorten("event_stats", "rows"),
                     "samples event_stats rows is not a list of 6 entries, one per config_id", id="short-rows"),
        pytest.param(_row(2, [1.0, 2.0]), "samples component_power row 2 is not a list of 3 entries, one per name",
                     id="short-row"),
        pytest.param(_row(4, {"Front": 1.0}), "samples component_power row 4 is not a list of 3 entries, one per name",
                     id="row-not-a-list"),
        pytest.param(lambda s: s["component_power"].__setitem__("names", ["Front", "Front", "Core"]),
                     "samples component_power names are not a list of distinct strings", id="repeated-name"),
        pytest.param(lambda s: s.pop("event_stats"), "missing field 'event_stats'", id="no-event-stats"),
        pytest.param(lambda s: s.__setitem__("config_id", "C1"), "samples config_id is not a list of 2 entries",
                     id="text-config-ids"),
        pytest.param(_unlabeled_name, "samples component_power name 'Bogus' is not a component of the table",
                     id="unknown-name-without-labels"),
    ],
)
def test_misshapen_format2_columns_are_schema_errors(edit, message):
    doc = format2_doc(tiny_doc())
    edit(doc["samples"])
    with pytest.raises(SchemaError) as exc:
        dataset_from_dict(doc)
    assert str(exc.value).startswith(f"dataset: {message}")


def test_saved_file_is_format2_columns(tiny_dataset):
    doc = dataset_to_dict(_without(tiny_dataset, 2, "component_power", "Core"))
    samples = doc["samples"]
    assert doc["format_version"] == 2 and list(doc)[0] == "format_version"
    assert list(samples) == ["config_id", "workload", "total_power", "component_power", "event_stats"]
    assert samples["config_id"] == ["C1", "C1", "C2", "C2", "C3", "C3"]
    power = samples["component_power"]
    assert power["names"] == ["Front", "Core", "Other Logic"]
    assert power["rows"][2][1] is None and None not in power["rows"][1]
    assert power["rows"][0] == [tiny_dataset.samples[0].component_power[n] for n in power["names"]]


def test_residual_folds_in_each_formats_own_order():
    # 1.0 + 1e-16 + 1e-16 is 1.0, and 1e-16 + 1e-16 + 1.0 is 1.0000000000000002.
    # Format 1 adds a sample's labels in its own key order, format 2 in the
    # order of the names; a saved file keeps the residual it was given.
    doc = tiny_doc()
    doc["component_table"].insert(0, {"name": "Tail", "hw_params": ["FetchWidth"], "event_stats": []})
    doc["samples"] = [
        {"config_id": "C1", "workload": "w0", "total_power": 3.0,
         "component_power": {"Front": 1.0, "Core": 1e-16, "Tail": 1e-16}},
        {"config_id": "C1", "workload": "w1", "total_power": 3.0,
         "component_power": {"Tail": 1e-16, "Core": 1e-16, "Front": 1.0}},
    ]
    own = dataset_from_dict(doc)
    assert [s.component_power["Other Logic"] for s in own.samples] == [3.0 - 1.0, 3.0 - 1.0000000000000002]
    saved = dataset_to_dict(own)
    assert saved["samples"]["component_power"]["names"] == ["Front", "Core", "Tail", "Other Logic"]
    assert dataset_from_dict(saved) == own
    in_names_order = dataset_from_dict(format2_doc(doc))
    assert [s.component_power["Other Logic"] for s in in_names_order.samples] == [2.0, 2.0]


def test_sum_check_adds_up_in_each_formats_own_order():
    # Sample 3's labels add up to 1.0000000000000002 in its own key order,
    # beyond 0.5% of its total, and to 1.0 in the order of the names, within.
    doc = tiny_doc()
    doc["samples"][3]["total_power"] = 0.9950248756218907
    doc["samples"][3]["component_power"] = {"Other Logic": 1e-16, "Core": 1e-16, "Front": 1.0}
    with pytest.raises(ValidationError, match=r"^sample \(C2, w1\): component powers sum to 1, total is 0.995025 "):
        dataset_from_dict(doc)
    assert dataset_from_dict(format2_doc(doc)).samples[3].component_power["Front"] == 1.0


def test_column_builder_refuses_a_nonpositive_label(tiny_dataset):
    # The loader's label check: the first sample, then its first component,
    # whose label is not positive; an absent entry (NaN) is not one.
    keys = [("C1", "w0"), ("C1", "w1"), ("C2", "w0")]
    power = np.array([[1.0, np.nan], [2.0, 0.0], [-1.0, 1.0]])

    def build(totals, power):
        return Dataset.of_columns(
            tiny_dataset.architecture, tiny_dataset.configurations, tiny_dataset.component_table,
            tiny_dataset.registry, keys[: len(totals)], totals, (["Front", "Core"], power),
            ([], np.empty((len(totals), 0))))

    with pytest.raises(ValidationError, match=r"^sample \(C1, w1\): nonpositive power label for 'Core'$"):
        build([1.0, 2.0, 3.0], power)
    with pytest.raises(ValidationError, match=r"^sample \(C1, w1\): total_power must be positive$"):
        build([1.0, -2.0, 3.0], power)
    (sample,) = build([1.0], power[:1]).samples
    assert dict(sample.component_power) == {"Front": 1.0}


@pytest.mark.parametrize("edits", [
    pytest.param({3: {"Front": -1.0}}, id="label"),
    pytest.param({3: {"total_power": -5.0}}, id="total"),
    pytest.param({3: {"total_power": -5.0, "Front": -1.0}}, id="total-before-label"),
    pytest.param({3: {"total_power": 0.0}, 1: {"Core": -1.0}}, id="sample-order"),
])
def test_hand_built_dataset_refuses_what_a_file_is_refused_for(tiny_dataset, edits):
    # Construction checks the labels of every Dataset, with the message the
    # loader gives a file that holds the same numbers.
    doc, samples = tiny_doc(), list(tiny_dataset.samples)
    for i, edit in edits.items():
        edit = dict(edit)
        total = edit.pop("total_power", samples[i].total_power)
        power = {**samples[i].component_power, **edit}
        samples[i] = dataclasses.replace(samples[i], total_power=total, component_power=power)
        doc["samples"][i].update(total_power=total, component_power=power)
    with pytest.raises(ValidationError) as loaded:
        dataset_from_dict(doc)
    with pytest.raises(ValidationError) as built:
        with_samples(tiny_dataset, samples)
    assert str(built.value) == str(loaded.value)
    assert re.match(r"^sample \(C\d, w\d\): (total_power must be positive|nonpositive power label for)",
                    str(built.value))


_NUMBERS = st.one_of(st.floats(0.5, 100.0), st.integers(1, 2**70))


@st.composite
def _format1_documents(draw):
    """tiny_doc with drawn samples: partial or absent component_power, event
    statistics that differ in keys and order, ints up to 2**70 among the
    floats, and analytical estimates on some samples or on none."""
    doc, entries = tiny_doc(), []
    estimates = draw(st.booleans())
    for cid in ("C1", "C2", "C3"):
        for w in range(draw(st.integers(1, 2))):
            parts = {name: draw(_NUMBERS) for name in _NAMES}
            order = draw(st.permutations(_NAMES))
            entry = {"config_id": cid, "workload": f"w{w}", "total_power": sum(parts.values()),
                     "component_power": {name: parts[name] for name in order[: draw(st.integers(0, 3))]}}
            order = draw(st.permutations(_EVENTS))[: draw(st.integers(0, 4))]
            entry["event_stats"] = {name: draw(st.one_of(st.floats(-10.0, 10.0), st.integers(-(2**70), 2**70)))
                                    for name in order}
            for key in ("component_power", "event_stats"):
                if not entry[key] and draw(st.booleans()):
                    del entry[key]
            if estimates:
                entry["analytical_estimate"] = draw(st.one_of(st.none(), _NUMBERS))
            entries.append(entry)
    doc["samples"] = entries
    return doc


@given(doc=_format1_documents())
@example(doc={**tiny_doc(), "samples": [
    {"config_id": "C1", "workload": "w0", "total_power": 2**70 + 3, "analytical_estimate": 2**53 + 1,
     "component_power": {"Core": 2**62 + 1, "Front": 2**70 - 2**62}, "event_stats": {"x_act": -(2**70)}},
    {"config_id": "C2", "workload": "w0", "total_power": 4.5, "component_power": {}},
]})
@settings(max_examples=150, deadline=None)
def test_format2_save_of_a_format1_file_loads_bit_equal(doc):
    try:
        ds = dataset_from_dict(doc)
    except ValidationError:  # a residual that rounds to 0 or below
        return
    text = json.dumps(dataset_to_dict(ds))
    assert json.loads(text)["format_version"] == 2
    again = dataset_from_dict(json.loads(text))
    for a, b in ((ds.power, again.power), (ds.events, again.events)):
        assert list(a.columns.items()) == list(b.columns.items())
        assert a.values.dtype == b.values.dtype and a.values.tobytes() == b.values.tobytes()
    assert [s.total_power.hex() for s in ds.samples] == [s.total_power.hex() for s in again.samples]
    assert [(s.config_id, s.workload, s.analytical_estimate) for s in ds.samples] == [
        (s.config_id, s.workload, s.analytical_estimate) for s in again.samples]
    assert again == ds and json.dumps(dataset_to_dict(again)) == text


def _reference_label_floats(entry, names):
    """The component labels of a sample entry as float(v), with the residual
    of a full set of the others left-folded from 0.0."""
    labels = {name: float(v) for name, v in entry["component_power"].items()}
    if "Other Logic" not in labels and set(names) - {"Other Logic"} <= set(labels):
        labels["Other Logic"] = float(entry["total_power"]) - _left_fold(labels.values())
    return labels


@given(
    ints=st.lists(st.integers(1, 2**70), min_size=3, max_size=3),
    events=st.lists(st.integers(-(2**70), 2**70), min_size=2, max_size=2),
    residual=st.booleans(),
)
@example(ints=[2**53 + 1, 2**63 + 1, 2**70 - 1], events=[2**64 - 1, -(2**53) - 3], residual=True)
@example(ints=[3, 2**62 + 7, 1], events=[0, 1], residual=False)
@settings(max_examples=100, deadline=None)
def test_integer_numbers_load_bit_equal_to_float(ints, events, residual):
    doc = tiny_doc()
    entry = doc["samples"][0]
    entry["component_power"] = dict(zip(("Front", "Core", "Other Logic"), ints))
    entry["total_power"] = sum(ints)
    entry["event_stats"] = dict(zip(("front_act", "core_act"), events))
    if residual:
        del entry["component_power"]["Other Logic"]
    want = _reference_label_floats(entry, _NAMES)
    if want["Other Logic"] <= 0:
        with pytest.raises(ValidationError, match="nonpositive power label for 'Other Logic'"):
            dataset_from_dict(doc)
        return
    s = dataset_from_dict(doc).samples[0]
    assert {k: v.hex() for k, v in s.component_power.items()} == {k: v.hex() for k, v in want.items()}
    assert {k: v.hex() for k, v in s.event_stats.items()} == {
        k: float(v).hex() for k, v in entry["event_stats"].items()
    }


_NAMES = ("Front", "Core", "Other Logic")
_EVENTS = ("front_act", "core_act", "x_act", "y_act")


@st.composite
def _ragged_entries(draw):
    """Sample entries of tiny_doc's configurations whose component_power
    and event_stats hold different keys in different orders, or are absent;
    each with the dicts the loaded sample should read as."""
    floats = st.floats(min_value=0.5, max_value=100.0)
    entries, refs = [], []
    for cid in ("C1", "C2", "C3"):
        for w in range(draw(st.integers(1, 2))):
            parts = {name: draw(floats) for name in _NAMES}
            total = _left_fold(parts.values())
            order = draw(st.permutations(_NAMES))
            power = {name: parts[name] for name in order[: draw(st.integers(0, 3))]}
            order = draw(st.permutations(_EVENTS))
            events = {name: draw(st.floats(0.0, 10.0)) for name in order[: draw(st.integers(0, 4))]}
            entry = {"config_id": cid, "workload": f"w{w}", "total_power": total,
                     "component_power": power, "event_stats": events}
            for key in ("component_power", "event_stats"):
                if not entry[key] and draw(st.booleans()):
                    del entry[key]
            ref_power = dict(power)
            if {"Front", "Core"} <= set(power) and "Other Logic" not in power:
                ref_power["Other Logic"] = total - _left_fold(power.values())
            entries.append(entry)
            refs.append((ref_power, dict(events)))
    return entries, refs


def _in_column_order(refs):
    """Each reference dict's keys in first-seen order over all of them."""
    columns = list(dict.fromkeys(name for ref in refs for name in ref))
    return [[name for name in columns if name in ref] for ref in refs]


@given(drawn=_ragged_entries())
@settings(max_examples=150, deadline=None)
def test_sample_mappings_read_as_their_dicts(drawn):
    entries, refs = drawn
    doc = tiny_doc()
    doc["samples"] = entries
    ds = dataset_from_dict(doc)
    saved = format1_doc(dataset_to_dict(ds))["samples"]
    for i, key in enumerate(("component_power", "event_stats")):
        column_refs = [ref[i] for ref in refs]
        orders = _in_column_order(column_refs)
        for s, ref, order, entry in zip(ds.samples, column_refs, orders, saved):
            view = getattr(s, key)
            assert dict(view) == ref and list(view) == order
            assert view == ref and ref == view and view != {**ref, "extra": 1.0}
            assert len(view) == len(ref)
            assert all(type(v) is float for v in view.values())
            for name in (*_NAMES, *_EVENTS, "absent"):
                assert (name in view) == (name in ref)
                assert view.get(name) == ref.get(name)
                assert view.get(name, -1.0) == ref.get(name, -1.0)
            with pytest.raises(TypeError):
                view["Front"] = 1.0
            # A file whose samples order their keys differently is saved in column order.
            assert entry[key] == ref and list(entry[key]) == order
    # The same samples made from plain dicts pack to the same dataset.
    rebuilt = with_samples(ds, tuple(
        PowerSample(s.config_id, s.workload, s.total_power, dict(p), dict(e))
        for s, (p, e) in zip(ds.samples, refs)
    ))
    assert rebuilt == ds
    assert json.dumps(dataset_to_dict(rebuilt)) == json.dumps(dataset_to_dict(ds))
    train, test = few_shot_split(ds, ["C2"])
    assert train.samples == tuple(s for s in ds.samples if s.config_id == "C2")
    assert test.samples == tuple(s for s in ds.samples if s.config_id != "C2")
    assert format1_doc(dataset_to_dict(train))["samples"] == [e for e in saved if e["config_id"] == "C2"]


def test_sample_mappings_are_read_only():
    sample = PowerSample("C1", "w0", 3.0, {"Front": 1.0, "Core": 2.0})
    for view in (sample.component_power, sample.event_stats):
        with pytest.raises(TypeError):
            view["Front"] = 5.0
        with pytest.raises(TypeError):
            del view["Front"]
        assert not hasattr(view, "update")
    assert sample.component_power == {"Front": 1.0, "Core": 2.0} and sample.event_stats == {}
    with pytest.raises(dataclasses.FrozenInstanceError):
        sample.component_power = {}
    with pytest.raises(ValidationError, match="NaN"):
        PowerSample("C1", "w0", 3.0, {"Front": float("nan")})


# The per-sample loops the bulk readers replaced, kept as their reference.


def _reference_design_matrix(ds, comp):
    rows = []
    for s in ds.samples:
        try:
            rows.append(feature_row(comp, ds.config(s.config_id), s.event_stats))
        except ValidationError as exc:
            raise ValidationError(f"sample ({s.config_id}, {s.workload}): {exc}") from None
    return np.array(rows).reshape(len(rows), len(comp.hw_params) + len(comp.event_stats))


def _reference_labels(samples, component):
    try:
        return [s.component_power[component] for s in samples]
    except KeyError:
        s = next(s for s in samples if component not in s.component_power)
        raise ValidationError(
            f"sample ({s.config_id}, {s.workload}) lacks a label for {component!r}"
        ) from None


def _reference_averages(ds, component):
    comp = ds.component(component)
    result = {}
    for cfg in ds.configurations:
        samples = [s for s in ds.samples if s.config_id == cfg.id]
        if not samples:
            raise ValidationError(f"configuration {cfg.id!r} has no samples")
        values = _reference_labels(samples, comp.name)
        result[cfg.id] = _left_fold(values) / len(values)
    return result


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ValidationError as exc:
        return f"ValidationError: {exc}"


def _assert_bit_equal(got, want):
    if isinstance(want, str):
        assert got == want
    elif isinstance(want, dict):
        assert list(got) == list(want)
        assert [v.hex() for v in got.values()] == [v.hex() for v in want.values()]
    else:
        want = np.asarray(want, dtype=float)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def _bulk_readers_match_references(ds):
    comps = list(ds.component_table) + [
        ComponentDef("hw only", ("FetchWidth", "DecodeWidth")),
        ComponentDef("events", ("RobEntry",), tuple(dict.fromkeys(
            name for comp in ds.component_table for name in comp.event_stats))),
    ]
    for comp in comps:
        _assert_bit_equal(_outcome(design_matrix, ds, comp), _outcome(_reference_design_matrix, ds, comp))
    for comp in ds.component_table:
        _assert_bit_equal(_outcome(component_labels, ds, comp.name),
                          _outcome(_reference_labels, ds.samples, comp.name))
        _assert_bit_equal(_outcome(average_power_per_config, ds, comp.name),
                          _outcome(_reference_averages, ds, comp.name))


def test_bulk_readers_bit_equal_to_per_sample_loops(synth_pair, tiny_dataset):
    ds_known, ds_target, _ = synth_pair
    train, test = few_shot_split(ds_target, [c.id for c in ds_target.configurations[::3]])
    order = np.random.default_rng(0).permutation(len(ds_known.samples))
    shuffled = with_samples(ds_known, tuple(ds_known.samples[i] for i in order))
    for ds in (ds_known, train, test, shuffled, tiny_dataset):
        _bulk_readers_match_references(ds)


def _without(ds, index, key, name):
    """ds with sample index lacking name in its key mapping."""
    samples = list(ds.samples)
    s = samples[index]
    entries = {k: dict(getattr(s, k)) for k in ("component_power", "event_stats")}
    del entries[key][name]
    samples[index] = dataclasses.replace(s, **entries)
    return with_samples(ds, tuple(samples))


def _lacking_parameter(ds, config_id, param):
    configs = tuple(
        Configuration(c.id, c.architecture, {p: v for p, v in c.params.items() if p != param})
        if c.id == config_id else c
        for c in ds.configurations
    )
    return dataclasses.replace(ds, configurations=configs)


def test_bulk_reader_errors_match_per_sample_loops(tiny_dataset):
    # tiny_dataset's samples: C1 w0, C1 w1, C2 w0, C2 w1, C3 w0, C3 w1.
    front = tiny_dataset.component("Front")
    cases = {
        "label": (_without(tiny_dataset, 3, "component_power", "Front"),
                  "sample (C2, w1) lacks a label for 'Front'"),
        "event": (_without(tiny_dataset, 3, "event_stats", "front_act"),
                  "sample (C2, w1): configuration 'C2' lacks event statistic 'front_act' "
                  "for component 'Front'"),
    }
    for name, (ds, message) in cases.items():
        _bulk_readers_match_references(ds)
        reader = component_labels if name == "label" else design_matrix
        with pytest.raises(ValidationError) as exc:
            reader(ds, "Front" if name == "label" else front)
        assert str(exc.value) == message, name
    no_samples = with_samples(tiny_dataset, tiny_dataset.samples[2:])
    assert _outcome(average_power_per_config, no_samples, "Front") == \
        "ValidationError: configuration 'C1' has no samples"
    _bulk_readers_match_references(no_samples)


def test_broken_references_raise_at_construction(tiny_dataset):
    # A missing parameter or an unknown configuration is refused as the
    # Dataset is built, before any reader sees it.
    without_event = _without(tiny_dataset, 1, "event_stats", "front_act")
    cases = {
        "parameter": (lambda: _lacking_parameter(tiny_dataset, "C3", "FetchWidth"),
                      "configuration 'C3' lacks parameter 'FetchWidth'"),
        # A sample's missing event is a reader's fault; the parameter is found first.
        "event before parameter": (lambda: _lacking_parameter(without_event, "C3", "FetchWidth"),
                                   "configuration 'C3' lacks parameter 'FetchWidth'"),
        "unknown configuration": (
            lambda: dataclasses.replace(tiny_dataset, configurations=tiny_dataset.configurations[:2]),
            "sample (C3, w0): unknown configuration id 'C3'"),
    }
    for name, (build, message) in cases.items():
        with pytest.raises(ValidationError) as exc:
            build()
        assert str(exc.value) == message, name


_EDIT_BASE = generate_pair(default_spec(seed=0, n_known_configs=3, n_target_configs=2, n_workloads=2))[0]
_BASE_IDS = [c.id for c in _EDIT_BASE.configurations]

_EDITS = st.one_of(
    st.tuples(st.just("drop configuration"), st.integers(0, 9)),
    st.tuples(st.just("repeat configuration id"), st.integers(0, 9), st.integers(0, 9)),
    st.tuples(st.just("duplicate sample"), st.integers(0, 9), st.integers(0, 9)),
    st.tuples(st.just("rename configuration"), st.integers(0, 9), st.sampled_from(_BASE_IDS + ["Z9"])),
    st.tuples(st.just("drop parameter"), st.integers(0, 9), st.sampled_from(CANONICAL_PARAMETERS)),
)


def _edited(edits):
    """The synth dataset's configurations as (id, params) and samples as
    (config_id, workload, source sample index), with edits applied in order."""
    configs = [(c.id, dict(c.params)) for c in _EDIT_BASE.configurations]
    samples = [(s.config_id, s.workload, i) for i, s in enumerate(_EDIT_BASE.samples)]
    for kind, i, *rest in edits:
        if kind == "drop configuration" and len(configs) > 1:
            del configs[i % len(configs)]
        elif kind == "repeat configuration id":
            configs[rest[0] % len(configs)] = (configs[i % len(configs)][0], configs[rest[0] % len(configs)][1])
        elif kind == "duplicate sample":
            samples.insert(rest[0] % (len(samples) + 1), samples[i % len(samples)])
        elif kind == "rename configuration":
            samples[i % len(samples)] = (rest[0], *samples[i % len(samples)][1:])
        elif kind == "drop parameter":
            configs[i % len(configs)][1].pop(rest[0], None)
    return configs, samples


def _first_reference_fault(configs, samples, table):
    """The first fault in construction's order, found by plain loops."""
    ids = [cid for cid, _ in configs]
    if len(set(ids)) < len(ids):
        return "ValidationError: duplicate configuration ids"
    needed = dict.fromkeys(p for comp in table for p in comp.hw_params)
    for cid, params in configs:
        for p in needed:
            if p not in params:
                return f"ValidationError: configuration {cid!r} lacks parameter {p!r}"
    for cid, workload, _ in samples:
        if cid not in ids:
            return f"ValidationError: sample ({cid}, {workload}): unknown configuration id {cid!r}"
    seen = set()
    for cid, workload, _ in samples:
        if (cid, workload) in seen:
            return f"ValidationError: duplicate sample for {(cid, workload)}"
        seen.add((cid, workload))
    return None


def _first_fault(build):
    try:
        build()
    except FirePowerError as exc:
        return f"{type(exc).__name__}: {exc}"
    return None


@given(edits=st.lists(_EDITS, min_size=1, max_size=3))
@settings(max_examples=150, deadline=None)
def test_edited_references_fail_alike_loaded_or_replaced(edits):
    ds = _EDIT_BASE
    configs, samples = _edited(edits)
    replaced = _first_fault(lambda: with_samples(
        ds,
        tuple(dataclasses.replace(ds.samples[k], config_id=cid, workload=w) for cid, w, k in samples),
        configurations=tuple(Configuration(cid, ds.architecture, params) for cid, params in configs),
    ))
    doc = format1_doc(dataset_to_dict(ds))
    entries = doc["samples"]
    doc["configurations"] = [{"id": cid, "params": params} for cid, params in configs]
    doc["samples"] = [{**entries[k], "config_id": cid, "workload": w} for cid, w, k in samples]
    loaded = _first_fault(lambda: dataset_from_dict(doc))
    assert replaced == _first_reference_fault(configs, samples, ds.component_table)
    lacking = [(cid, params) for cid, params in configs if len(params) < len(CANONICAL_PARAMETERS)]
    if lacking:
        # A file's configuration must give every registry parameter, which the
        # loader checks first; the table reads every one of them.
        cid, params = lacking[0]
        missing = [p for p in CANONICAL_PARAMETERS if p not in params]
        assert loaded == f"SchemaError: configuration {cid}: missing parameters {missing}"
    else:
        assert loaded == replaced


def test_built_dataset_retains_under_1kb_per_sample(tmp_path):
    # Two 20-configuration x 100-workload datasets, 4000 samples; with a
    # dict per sample for each of its two mappings this was about 2.9 KB.
    spec = default_spec(seed=0, n_known_configs=20, n_target_configs=20, n_workloads=100)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        known, target, _ = generate_pair(spec)
        gc.collect()
        built = tracemalloc.get_traced_memory()[0] - before
        del target
        save_dataset(known, tmp_path / "known.json")
        del known
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        loaded = load_dataset(tmp_path / "known.json")
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert built / 4000 < 1024
    assert len(loaded.samples) == 2000 and kept / 2000 < 1024


def test_production_paths_make_no_power_sample(tmp_path, monkeypatch):
    # A Dataset is its columns: generating, saving, loading and splitting
    # one, the CLI chain and run_experiment make no PowerSample.  Reading
    # `samples` makes them, once.
    made = []

    def counted(*args, **kwargs):
        made.append(args[:2])
        return PowerSample(*args, **kwargs)

    monkeypatch.setattr(dataset_module, "PowerSample", counted)
    known, target, _ = generate_pair(default_spec(seed=0, n_known_configs=4, n_target_configs=5, n_workloads=3))
    train, test = few_shot_split(target, [c.id for c in target.configurations[:3]])
    paths = {name: str(tmp_path / f"{name}.json") for name in ("known", "train", "test", "kb", "model")}
    for name, ds in (("known", known), ("train", train), ("test", test)):
        save_dataset(ds, paths[name])
    hp = ["--n-estimators", "5"]
    assert main(["extract", "--known", paths["known"], "--out", paths["kb"], *hp]) == 0
    assert main(["build", "--kb", paths["kb"], "--target-train", paths["train"], "--out", paths["model"], *hp]) == 0
    assert main(["predict", "--model", paths["model"], "--input", paths["test"],
                 "--out", str(tmp_path / "preds.csv")]) == 0
    run_experiment(known, target, ks=[2], hp=GbtHyperparams(n_estimators=5))
    loaded = load_dataset(paths["test"])
    for ds in (known, target, train, test, loaded, *few_shot_split(loaded, [loaded.configurations[0].id])):
        assert "samples" not in ds.__dict__
    assert made == []
    assert len(loaded.samples) == len(loaded.keys) == len(made)
    assert loaded.samples is loaded.samples and len(made) == len(loaded.keys)


def test_malformed_file(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    from firepower.errors import ParseError

    with pytest.raises(ParseError):
        load_dataset(path)
    with pytest.raises(ParseError):
        load_dataset(tmp_path / "missing.json")


def test_atomic_write_leaves_no_temp_files(tmp_path, tiny_dataset):
    path = tmp_path / "ds.json"
    save_dataset(tiny_dataset, path)
    save_dataset(tiny_dataset, path)  # overwrite in place
    assert [p.name for p in tmp_path.iterdir()] == ["ds.json"]
    json.loads(path.read_text())


@pytest.mark.parametrize("umask", [0o022, 0o077])
def test_atomic_write_honours_umask(tmp_path, tiny_dataset, umask):
    old = os.umask(umask)
    try:
        save_dataset(tiny_dataset, tmp_path / "ds.json")
    finally:
        os.umask(old)
    assert stat.S_IMODE(os.stat(tmp_path / "ds.json").st_mode) == 0o666 & ~umask
