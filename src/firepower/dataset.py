"""Data model for architectures, configurations, power samples and components.

A dataset file is a JSON document with top-level keys `architecture`,
`parameters` (optional registry override), `component_table` (optional),
`configurations` and `samples`.  All hardware-parameter names are
canonicalized through an alias registry on load, so that e.g. "ICacheWay"
and "DCacheWay" both resolve to the merged parameter "DCache/ICacheWay".
"""

from __future__ import annotations

import json
import operator
import os
import tempfile
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cached_property, reduce

import numpy as np

from .errors import AliasError, ParseError, SchemaError, ValidationError

OTHER_LOGIC = "Other Logic"

# Residual tolerance: sum of component labels vs total power.
COMPONENT_SUM_RTOL = 0.005

# The 14 canonical hardware parameters, in fixed order.
CANONICAL_PARAMETERS = (
    "FetchWidth",
    "DecodeWidth",
    "FetchBufferEntry",
    "RobEntry",
    "IntPhyRegister",
    "FpPhyRegister",
    "LDQ/STQEntry",
    "BranchCount",
    "Mem/FpIssueWidth",
    "IntIssueWidth",
    "DCache/ICacheWay",
    "DTLBEntry",
    "MSHREntry",
    "ICacheFetchBytes",
)

# Merged-parameter aliases: several simulator-facing names map to one knob.
BUILTIN_ALIASES = {
    "LDQEntry": "LDQ/STQEntry",
    "STQEntry": "LDQ/STQEntry",
    "MemIssueWidth": "Mem/FpIssueWidth",
    "FpIssueWidth": "Mem/FpIssueWidth",
    "DCacheWay": "DCache/ICacheWay",
    "ICacheWay": "DCache/ICacheWay",
    "DCacheTLBEntry": "DTLBEntry",
    "ICacheTLBEntry": "DTLBEntry",
}


@dataclass(frozen=True)
class ParameterRegistry:
    """Canonical hardware-parameter names plus their aliases."""

    canonical: tuple[str, ...] = CANONICAL_PARAMETERS
    aliases: dict[str, str] = field(default_factory=lambda: dict(BUILTIN_ALIASES))

    def __post_init__(self):
        if len(set(self.canonical)) != len(self.canonical):
            raise ValidationError("duplicate canonical parameter names")
        for alias, target in self.aliases.items():
            if target not in self.canonical:
                raise ValidationError(f"alias {alias!r} maps to unknown parameter {target!r}")

    def canonicalize(self, name: str) -> str:
        if name in self.canonical:
            return name
        if name in self.aliases:
            return self.aliases[name]
        raise AliasError(f"unknown hardware parameter {name!r}")


def builtin_registry() -> ParameterRegistry:
    return ParameterRegistry()


@dataclass(frozen=True)
class ComponentDef:
    """A power-friendly component: its parameter and event-statistic subsets."""

    name: str
    hw_params: tuple[str, ...]
    event_stats: tuple[str, ...] = ()
    important_param: str | None = None

    def __post_init__(self):
        if not self.hw_params:
            raise ValidationError(f"component {self.name!r} has no hardware parameters")
        if len(set(self.hw_params)) != len(self.hw_params):
            raise ValidationError(f"component {self.name!r} repeats a hardware parameter")
        if self.important_param is not None and self.important_param not in self.hw_params:
            raise ValidationError(
                f"component {self.name!r}: important parameter "
                f"{self.important_param!r} not among its hardware parameters"
            )


def builtin_component_table() -> list[ComponentDef]:
    """The built-in 22-component table for out-of-order cores.

    8 Frontend, 7 Execution, 6 Mem Access components plus "Other Logic",
    which absorbs everything not covered by the others.  Event-statistic
    lists ship empty and are normally supplied by the dataset file.
    """
    c = ComponentDef
    return [
        # Frontend
        c("BPTAGE", ("FetchWidth", "BranchCount"), (), "FetchWidth"),
        c("BPBTB", ("FetchWidth", "BranchCount"), (), "FetchWidth"),
        c("BPOthers", ("FetchWidth", "BranchCount"), (), "FetchWidth"),
        c("IFU", ("FetchWidth", "DecodeWidth", "FetchBufferEntry", "ICacheFetchBytes")),
        c("I-TLB", ("DTLBEntry",)),
        c("ICacheTagArray", ("DCache/ICacheWay", "ICacheFetchBytes"), (), "DCache/ICacheWay"),
        # FetchWidth is included so the designated important parameter is a
        # member of the component's own feature set.
        c("ICacheDataArray", ("DCache/ICacheWay", "ICacheFetchBytes", "FetchWidth"), (), "FetchWidth"),
        c("ICacheOthers", ("DCache/ICacheWay", "ICacheFetchBytes")),
        # Execution
        c("RNU", ("DecodeWidth",), (), "DecodeWidth"),
        c("ROB", ("DecodeWidth", "RobEntry")),
        c("FP ISU", ("DecodeWidth", "Mem/FpIssueWidth")),
        c("Int ISU", ("DecodeWidth", "IntIssueWidth"), (), "DecodeWidth"),
        c("Mem ISU", ("DecodeWidth", "Mem/FpIssueWidth")),
        c("Regfile", ("DecodeWidth", "IntPhyRegister", "FpPhyRegister")),
        c("FU Pool", ("Mem/FpIssueWidth", "IntIssueWidth"), (), "Mem/FpIssueWidth"),
        # Mem Access
        c("LSU", ("LDQ/STQEntry", "Mem/FpIssueWidth")),
        c("D-TLB", ("DTLBEntry",), (), "DTLBEntry"),
        c("DCacheTagArray", ("DCache/ICacheWay", "DTLBEntry", "Mem/FpIssueWidth")),
        c("DCacheDataArray", ("DCache/ICacheWay", "DTLBEntry", "Mem/FpIssueWidth")),
        c("DCacheMSHR", ("MSHREntry",), (), "MSHREntry"),
        c("DCacheOthers", ("DCache/ICacheWay", "DTLBEntry", "MSHREntry", "Mem/FpIssueWidth")),
        # Everything else
        c(OTHER_LOGIC, CANONICAL_PARAMETERS),
    ]


@dataclass(frozen=True)
class Configuration:
    """A named point in an architecture's design space."""

    id: str
    architecture: str
    params: dict[str, int]


@dataclass(frozen=True)
class PowerSample:
    """(configuration, workload) power labels in mW, plus optional extras."""

    config_id: str
    workload: str
    total_power: float
    component_power: dict[str, float] = field(default_factory=dict)
    event_stats: dict[str, float] = field(default_factory=dict)
    analytical_estimate: float | None = None


@dataclass(frozen=True)
class Dataset:
    architecture: str
    configurations: tuple[Configuration, ...]
    samples: tuple[PowerSample, ...]
    component_table: tuple[ComponentDef, ...]
    registry: ParameterRegistry = field(default_factory=builtin_registry)

    @cached_property
    def _config_index(self) -> dict[str, Configuration]:
        return {cfg.id: cfg for cfg in self.configurations}

    @cached_property
    def _samples_by_config(self) -> dict[str, list[PowerSample]]:
        """Each configuration's samples, in their original order."""
        groups: dict[str, list[PowerSample]] = {}
        for s in self.samples:
            groups.setdefault(s.config_id, []).append(s)
        return groups

    def config(self, config_id: str) -> Configuration:
        try:
            return self._config_index[config_id]
        except KeyError:
            raise ValidationError(f"unknown configuration id {config_id!r}") from None

    def component(self, name: str) -> ComponentDef:
        for comp in self.component_table:
            if comp.name == name:
                return comp
        raise ValidationError(f"unknown component {name!r}")

    def config_ids(self) -> list[str]:
        return [cfg.id for cfg in self.configurations]

    def samples_of(self, config_id: str) -> list[PowerSample]:
        return list(self._samples_by_config.get(config_id, ()))


def left_sum(values) -> float:
    """Floats added one by one, left to right, from 0.0: what sum() does on
    Python 3.10 and 3.11.  From 3.12 on, sum() compensates its rounding
    error, which changes the last bits of some sums, so outputs that must
    not depend on the Python version use this instead."""
    return reduce(operator.add, values, 0.0)


def _require(mapping: dict, key: str, context: str):
    if key not in mapping:
        raise SchemaError(f"{context}: missing field {key!r}")
    return mapping[key]


def _parse_registry(doc: dict) -> ParameterRegistry:
    raw = doc.get("parameters")
    if raw is None:
        return builtin_registry()
    canonical = tuple(_require(raw, "canonical", "parameters"))
    aliases = dict(raw.get("aliases", {}))
    return ParameterRegistry(canonical=canonical, aliases=aliases)


def component_to_dict(c: ComponentDef) -> dict:
    return {
        "name": c.name,
        "hw_params": list(c.hw_params),
        "event_stats": list(c.event_stats),
        "important_param": c.important_param,
    }


def component_from_dict(entry: dict, registry: ParameterRegistry | None = None) -> ComponentDef:
    """Inverse of component_to_dict.  With a registry, parameter names are
    canonicalized first; aliased names may merge, keeping first occurrences."""
    name = _require(entry, "name", "component_table")
    hw_params = _require(entry, "hw_params", f"component {name}")
    important = entry.get("important_param")
    if registry is not None:
        hw_params = dict.fromkeys(registry.canonicalize(p) for p in hw_params)
        if important is not None:
            important = registry.canonicalize(important)
    return ComponentDef(
        name=name,
        hw_params=tuple(hw_params),
        event_stats=tuple(entry.get("event_stats", ())),
        important_param=important,
    )


def _parse_component_table(doc: dict, registry: ParameterRegistry) -> tuple[ComponentDef, ...]:
    raw = doc.get("component_table")
    if raw is None:
        # The built-in table reads canonical names; the registry must hold them all.
        table = tuple(builtin_component_table())
        missing = [(c.name, p) for c in table for p in c.hw_params if p not in registry.canonical]
        if missing:
            name, param = missing[0]
            raise ValidationError(
                f"parameter registry lacks parameter {param!r}, "
                f"which built-in component {name!r} reads"
            )
        return table
    table = [component_from_dict(entry, registry) for entry in raw]
    if len({c.name for c in table}) != len(table):
        raise ValidationError("duplicate component names in component_table")
    return tuple(table)


def _parse_configuration(entry: dict, architecture: str, registry: ParameterRegistry) -> Configuration:
    cid = str(_require(entry, "id", "configuration"))
    raw_params = _require(entry, "params", f"configuration {cid}")
    params: dict[str, int] = {}
    for name, value in raw_params.items():
        canon = registry.canonicalize(name)
        if canon in params and params[canon] != value:
            raise ValidationError(
                f"configuration {cid}: conflicting values for merged parameter {canon!r}"
            )
        if not isinstance(value, int) or isinstance(value, bool) or value < 1:
            raise ValidationError(
                f"configuration {cid}: parameter {name!r} must be a positive integer"
            )
        params[canon] = value
    missing = [p for p in registry.canonical if p not in params]
    if missing:
        raise SchemaError(f"configuration {cid}: missing parameters {missing}")
    return Configuration(id=cid, architecture=architecture, params=params)


def _parse_sample(entry: dict, table: tuple[ComponentDef, ...]) -> PowerSample:
    cid = str(_require(entry, "config_id", "sample"))
    workload = str(_require(entry, "workload", f"sample of {cid}"))
    context = f"sample ({cid}, {workload})"
    total = float(_require(entry, "total_power", context))
    if total <= 0:
        raise ValidationError(f"{context}: total_power must be positive")
    comp_power = {str(k): float(v) for k, v in entry.get("component_power", {}).items()}
    names = {c.name for c in table}
    for comp_name in comp_power:
        if comp_name not in names:
            raise ValidationError(f"{context}: unknown component {comp_name!r}")
    # Other Logic absorbs the residual when the remaining 21 are labeled.
    if OTHER_LOGIC not in comp_power and names - {OTHER_LOGIC} <= set(comp_power):
        comp_power[OTHER_LOGIC] = total - left_sum(comp_power.values())
    for comp_name, value in comp_power.items():
        if value <= 0:
            raise ValidationError(f"{context}: nonpositive power label for {comp_name!r}")
    if set(comp_power) == names:
        parts = left_sum(comp_power.values())
        if abs(parts - total) > COMPONENT_SUM_RTOL * total:
            raise ValidationError(
                f"{context}: component powers sum to {parts:.6g}, "
                f"total is {total:.6g} (beyond {COMPONENT_SUM_RTOL:.1%} tolerance)"
            )
    events = {str(k): float(v) for k, v in entry.get("event_stats", {}).items()}
    analytical = entry.get("analytical_estimate")
    if analytical is not None:
        analytical = float(analytical)
    return PowerSample(
        config_id=cid,
        workload=workload,
        total_power=total,
        component_power=comp_power,
        event_stats=events,
        analytical_estimate=analytical,
    )


def read_json_file(path: str | os.PathLike, kind: str):
    """Parse a JSON file; an unreadable or malformed one raises ParseError."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {kind} file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"malformed {kind} file {path}: {exc}") from exc


@contextmanager
def schema_errors(kind: str):
    """Report a missing key or a misshapen value in a `kind` document as a
    SchemaError, not a bare KeyError, TypeError, AttributeError or
    ValueError.  Usable as a decorator on the document decoders."""
    try:
        yield
    except KeyError as exc:
        raise SchemaError(f"{kind}: missing field {exc}") from exc
    except (TypeError, AttributeError, ValueError) as exc:
        raise SchemaError(f"{kind}: malformed document ({exc})") from exc


@schema_errors("dataset")
def dataset_from_dict(doc: dict) -> Dataset:
    if not isinstance(doc, dict):
        raise SchemaError("dataset document must be a mapping")
    architecture = str(_require(doc, "architecture", "dataset"))
    registry = _parse_registry(doc)
    table = _parse_component_table(doc, registry)
    raw_configs = _require(doc, "configurations", "dataset")
    if not raw_configs:
        raise SchemaError("dataset has no configurations")
    configurations = tuple(
        _parse_configuration(entry, architecture, registry) for entry in raw_configs
    )
    if len({c.id for c in configurations}) != len(configurations):
        raise ValidationError("duplicate configuration ids")
    samples = tuple(_parse_sample(entry, table) for entry in _require(doc, "samples", "dataset"))
    config_ids = {c.id for c in configurations}
    seen: set[tuple[str, str]] = set()
    for s in samples:
        if s.config_id not in config_ids:
            raise ValidationError(f"sample references unknown configuration {s.config_id!r}")
        key = (s.config_id, s.workload)
        if key in seen:
            raise ValidationError(f"duplicate sample for {key}")
        seen.add(key)
    return Dataset(
        architecture=architecture,
        configurations=configurations,
        samples=samples,
        component_table=table,
        registry=registry,
    )


def load_dataset(path: str | os.PathLike) -> Dataset:
    return dataset_from_dict(read_json_file(path, "dataset"))


def dataset_to_dict(ds: Dataset) -> dict:
    return {
        "architecture": ds.architecture,
        "parameters": {
            "canonical": list(ds.registry.canonical),
            "aliases": dict(ds.registry.aliases),
        },
        "component_table": [component_to_dict(c) for c in ds.component_table],
        "configurations": [{"id": c.id, "params": dict(c.params)} for c in ds.configurations],
        "samples": [
            {
                "config_id": s.config_id,
                "workload": s.workload,
                "total_power": s.total_power,
                "component_power": dict(s.component_power),
                "event_stats": dict(s.event_stats),
                "analytical_estimate": s.analytical_estimate,
            }
            for s in ds.samples
        ],
    }


def write_text_atomic(path: str | os.PathLike, text: str):
    """Write via a temp file in the same directory, then rename.  The file
    gets the mode a plain open() would give it (0o666 less the umask)."""
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=os.path.basename(path))
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def save_dataset(ds: Dataset, path: str | os.PathLike):
    """Compact one-line JSON: without an indent, json uses its C encoder."""
    write_text_atomic(path, json.dumps(dataset_to_dict(ds)) + "\n")


def component_labels(samples, component: str) -> list[float]:
    """Each sample's label for one component; ValidationError if one lacks it."""
    try:
        return [s.component_power[component] for s in samples]
    except KeyError:
        s = next(s for s in samples if component not in s.component_power)
        raise ValidationError(
            f"sample ({s.config_id}, {s.workload}) lacks a label for {component!r}"
        ) from None


def average_power_per_config(ds: Dataset, component: str) -> dict[str, float]:
    """Arithmetic mean of a component's power over each configuration's workloads."""
    comp = ds.component(component)
    result: dict[str, float] = {}
    for cfg in ds.configurations:
        samples = ds.samples_of(cfg.id)
        if not samples:
            raise ValidationError(f"configuration {cfg.id!r} has no samples")
        values = component_labels(samples, comp.name)
        result[cfg.id] = left_sum(values) / len(values)
    return result


def few_shot_split(ds: Dataset, labeled_config_ids: list[str]) -> tuple[Dataset, Dataset]:
    """Split into (labeled-train, held-out-test) datasets by configuration id."""
    labeled = list(dict.fromkeys(labeled_config_ids))
    all_ids = set(ds.config_ids())
    unknown = [cid for cid in labeled if cid not in all_ids]
    if unknown:
        raise ValidationError(f"unknown configuration ids {unknown}")
    if not labeled:
        raise ValidationError("no labeled configurations given")
    if len(labeled) >= len(all_ids):
        raise ValidationError("labeled set leaves no configurations for testing")
    labeled_set = set(labeled)

    def subset(keep: bool) -> Dataset:
        configs = tuple(c for c in ds.configurations if (c.id in labeled_set) == keep)
        samples = tuple(s for s in ds.samples if (s.config_id in labeled_set) == keep)
        return Dataset(
            architecture=ds.architecture,
            configurations=configs,
            samples=samples,
            component_table=ds.component_table,
            registry=ds.registry,
        )

    return subset(True), subset(False)


def hw_row(hw_params: tuple[str, ...], cfg: Configuration) -> list[float]:
    """H_i: cfg's values of hw_params, in order; ValidationError if one is missing."""
    for p in hw_params:
        if p not in cfg.params:
            raise ValidationError(f"configuration {cfg.id!r} lacks parameter {p!r}")
    return [float(cfg.params[p]) for p in hw_params]


def feature_row(comp: ComponentDef, cfg: Configuration, event_stats: dict) -> list[float]:
    """[H_i values in comp.hw_params order] then [E_i values in comp.event_stats order]."""
    row = hw_row(comp.hw_params, cfg)
    for name in comp.event_stats:
        if name not in event_stats:
            raise ValidationError(
                f"configuration {cfg.id!r} lacks event statistic {name!r} "
                f"for component {comp.name!r}"
            )
        row.append(float(event_stats[name]))
    return row


def design_matrix(ds: Dataset, comp: ComponentDef) -> np.ndarray:
    """One feature_row per sample, in sample order: n_samples x (|H_i| + |E_i|)."""
    rows = []
    for s in ds.samples:
        try:
            rows.append(feature_row(comp, ds.config(s.config_id), s.event_stats))
        except ValidationError as exc:
            raise ValidationError(f"sample ({s.config_id}, {s.workload}): {exc}") from None
    return np.array(rows).reshape(len(rows), len(comp.hw_params) + len(comp.event_stats))
