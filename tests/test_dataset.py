import copy
import json
import math
import os
import stat

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from firepower.dataset import (
    BUILTIN_ALIASES,
    CANONICAL_PARAMETERS,
    ComponentDef,
    Dataset,
    average_power_per_config,
    builtin_component_table,
    builtin_registry,
    dataset_from_dict,
    dataset_to_dict,
    design_matrix,
    feature_row,
    few_shot_split,
    load_dataset,
    save_dataset,
)
from firepower.errors import AliasError, SchemaError, ValidationError

from conftest import tiny_doc


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
    with pytest.raises(ValidationError):
        dataset_from_dict(doc)


def test_duplicate_config_id_rejected():
    doc = tiny_doc()
    doc["configurations"].append(copy.deepcopy(doc["configurations"][0]))
    with pytest.raises(ValidationError):
        dataset_from_dict(doc)


def test_sample_with_unknown_config_rejected():
    doc = tiny_doc()
    doc["samples"][0]["config_id"] = "C9"
    with pytest.raises(ValidationError):
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
    shuffled = Dataset(
        architecture=tiny_dataset.architecture,
        configurations=tiny_dataset.configurations,
        samples=tuple(reversed(tiny_dataset.samples)),
        component_table=tiny_dataset.component_table,
        registry=tiny_dataset.registry,
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
