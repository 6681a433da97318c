import numpy as np
import pytest

import firepower as fp
from firepower.dataset import dataset_from_dict, hw_row
from firepower.errors import ValidationError
from firepower.trees import GbtHyperparams


@pytest.fixture(scope="session")
def synth_pair():
    spec = fp.default_spec(seed=0)
    return fp.generate_pair(spec)


@pytest.fixture(scope="session")
def small_hp():
    return GbtHyperparams(n_estimators=20)


@pytest.fixture(scope="session")
def kb0(synth_pair, small_hp):
    ds_known, _, _ = synth_pair
    return fp.extract_knowledge(ds_known, small_hp)


def tiny_doc():
    """A hand-sized dataset document with a two-component table."""
    rng = np.random.default_rng(7)
    params = lambda a, b: {  # noqa: E731
        "FetchWidth": a,
        "DecodeWidth": b,
        "FetchBufferEntry": 8,
        "RobEntry": 32,
        "IntPhyRegister": 64,
        "FpPhyRegister": 64,
        "LDQEntry": 8,
        "BranchCount": 8,
        "MemIssueWidth": 1,
        "IntIssueWidth": 2,
        "DCacheWay": 4,
        "DCacheTLBEntry": 8,
        "MSHREntry": 2,
        "ICacheFetchBytes": 2,
    }
    configs = [
        {"id": "C1", "params": params(4, 1)},
        {"id": "C2", "params": params(6, 3)},
        {"id": "C3", "params": params(8, 5)},
    ]
    samples = []
    for cfg in configs:
        for w in range(2):
            front = 2.0 * cfg["params"]["FetchWidth"] + w + 1.0
            core = 3.0 * cfg["params"]["DecodeWidth"] + 0.5 * w + 1.0
            other = float(rng.uniform(1.0, 2.0))
            samples.append(
                {
                    "config_id": cfg["id"],
                    "workload": f"w{w}",
                    "total_power": front + core + other,
                    "component_power": {"Front": front, "Core": core, "Other Logic": other},
                    "event_stats": {"front_act": 1.0 + w, "core_act": 2.0 + w},
                }
            )
    return {
        "architecture": "Tiny",
        "component_table": [
            {
                "name": "Front",
                "hw_params": ["FetchWidth", "BranchCount"],
                "event_stats": ["front_act"],
                "important_param": "FetchWidth",
            },
            {
                "name": "Core",
                "hw_params": ["DecodeWidth", "IntIssueWidth"],
                "event_stats": ["core_act"],
            },
            {
                "name": "Other Logic",
                "hw_params": ["FetchWidth", "DecodeWidth"],
                "event_stats": [],
            },
        ],
        "configurations": configs,
        "samples": samples,
    }


def with_samples(ds, samples, configurations=None):
    """ds with these hand-built samples, in their order, and optionally
    other configurations, packed by Dataset.of_samples."""
    configurations = ds.configurations if configurations is None else configurations
    return fp.Dataset.of_samples(ds.architecture, configurations, samples, ds.component_table, ds.registry)


def feature_row(comp, cfg, event_stats) -> list[float]:
    """The per-sample oracle of a design_matrix row: [H_i values in
    comp.hw_params order] then [E_i values in comp.event_stats order]."""
    row = hw_row(comp.hw_params, cfg)
    for name in comp.event_stats:
        if name not in event_stats:
            raise ValidationError(
                f"configuration {cfg.id!r} lacks event statistic {name!r} "
                f"for component {comp.name!r}"
            )
        row.append(float(event_stats[name]))
    return row


@pytest.fixture
def tiny_dataset():
    return dataset_from_dict(tiny_doc())


def format1_doc(doc):
    """A format-2 dataset document in format 1's layout, one object per
    sample, keys and values as format 1's writer wrote them."""
    samples = doc["samples"]
    n = len(samples["config_id"])
    estimates = samples.get("analytical_estimate", [None] * n)

    def mapping(key, i):
        names, rows = samples[key]["names"], samples[key]["rows"]
        return {name: v for name, v in zip(names, rows[i]) if v is not None}

    entries = [
        {
            "config_id": samples["config_id"][i],
            "workload": samples["workload"][i],
            "total_power": samples["total_power"][i],
            "component_power": mapping("component_power", i),
            "event_stats": mapping("event_stats", i),
            "analytical_estimate": estimates[i],
        }
        for i in range(n)
    ]
    return {**{k: v for k, v in doc.items() if k != "format_version"}, "samples": entries}


def _reverse_ifu_hw_params(doc):
    (ifu,) = [c for c in doc["component_table"] if c["name"] == "IFU"]
    ifu["hw_params"].reverse()


def _swap_first_components(doc):
    table = doc["component_table"]
    table[0], table[1] = table[1], table[0]


# Edits of a dataset document on the built-in table that build and
# run_experiment reject, with the part of the message that names the fault.
TABLE_EDITS = [
    pytest.param(_swap_first_components, "disagree on the component table", id="component-order"),
    pytest.param(
        _reverse_ifu_hw_params,
        "disagree on the hw_params of component 'IFU': ['FetchWidth', 'DecodeWidth', "
        "'FetchBufferEntry', 'ICacheFetchBytes'] against ['ICacheFetchBytes', "
        "'FetchBufferEntry', 'DecodeWidth', 'FetchWidth']",
        id="hw-params-order",
    ),
]
