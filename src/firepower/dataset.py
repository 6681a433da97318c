"""Data model for architectures, configurations, power samples and components.

A dataset file is a JSON document with top-level keys `architecture`,
`parameters` (optional registry override), `component_table` (optional),
`configurations` and `samples`.  save_dataset writes format 2, whose
samples are columns: a list per field and, per mapping, one `names` list
and one row per sample, null where it has no entry.  A file without
`format_version` is format 1, a list of sample objects, and still loads.
All hardware-parameter names are canonicalized through an alias registry
on load, so that e.g. "ICacheWay" and "DCacheWay" both resolve to the
merged parameter "DCache/ICacheWay".
"""

from __future__ import annotations

import json
import operator
import os
import tempfile
from collections.abc import Mapping
from contextlib import contextmanager, suppress
from dataclasses import dataclass, field
from functools import cached_property, partial, reduce
from itertools import chain

import numpy as np

from .errors import AliasError, ParseError, SchemaError, ValidationError
from .trees import FORMAT_VERSION, finite_number, format_version

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


def _rows(mappings: list[Mapping]) -> tuple[tuple[str, ...], list[list], int]:
    """(names, rows, given): the keys of mappings in first-seen order, one
    list of values per mapping in that order (None where it has no entry),
    and how many entries the mappings hold."""
    names = tuple(mappings[0]) if mappings else ()
    if all(tuple(m) == names for m in mappings):  # the same keys in the same order
        return names, [list(m.values()) for m in mappings], len(mappings) * len(names)
    names = tuple(dict.fromkeys(chain.from_iterable(mappings)))
    return names, [[m.get(name) for name in names] for m in mappings], sum(map(len, mappings))


def _matrix(names, rows: list[list]) -> np.ndarray:
    """rows as a len(rows) x len(names) float64 matrix, NaN for None."""
    return np.array(rows, dtype=float).reshape(len(rows), len(names))


class _Table:
    """A samples x names float64 matrix, NaN where a sample has no entry,
    and its name -> column dict, columns in first-seen order.  Read-only;
    two tables are equal if their names and values are, NaN equal to NaN."""

    __slots__ = ("values", "columns", "dense")

    def __init__(self, names, values: np.ndarray):
        values.flags.writeable = False
        self.values = values
        self.columns = {name: j for j, name in enumerate(names)}
        self.dense = not np.isnan(values).any()  # no absent entry

    @classmethod
    def of(cls, mappings: list[Mapping]) -> "_Table":
        """The rows of mappings; ValidationError if one holds NaN or None,
        which would read as an absent entry."""
        names, rows, given = _rows(mappings)
        values = _matrix(names, rows)
        if np.count_nonzero(~np.isnan(values)) != given:
            raise ValidationError("a sample's component_power or event_stats value is NaN or None")
        return cls(names, values)

    def __eq__(self, other) -> bool:
        return (isinstance(other, _Table) and self.columns == other.columns
                and np.array_equal(self.values, other.values, equal_nan=True))

    def column(self, name: str) -> np.ndarray:
        """A copy of name's column, all NaN if no sample has it."""
        j = self.columns.get(name)
        if j is None:
            return np.full(len(self.values), np.nan)
        return self.values[:, j].copy()

    def row_dict(self, i: int) -> dict[str, float]:
        """Row i as a plain dict in column order, absent entries left out."""
        pairs = zip(self.columns, self.values[i].tolist())
        return dict(pairs) if self.dense else {name: v for name, v in pairs if v == v}


class _RowView(Mapping):
    """One sample's entries of a _Table: read-only, iterated in column order
    without the absent entries, values as Python floats."""

    __slots__ = ("_table", "_row")

    def __init__(self, table: _Table, row: int):
        self._table = table
        self._row = row

    def __getitem__(self, name: str) -> float:
        value = self._table.values.item(self._row, self._table.columns[name])
        if value != value:
            raise KeyError(name)
        return value

    def __iter__(self):
        return iter(self._table.row_dict(self._row))

    def __len__(self) -> int:
        return len(self._table.row_dict(self._row))

    def __repr__(self) -> str:
        return repr(self._table.row_dict(self._row))


@dataclass(frozen=True, slots=True)
class PowerSample:
    """(configuration, workload) power labels in mW, plus optional extras.

    component_power and event_stats are read-only mappings.  A sample made
    from plain mappings holds a one-row table of its own; the samples of a
    Dataset are views of rows of its two tables."""

    config_id: str
    workload: str
    total_power: float
    component_power: Mapping[str, float] = field(default_factory=dict)
    event_stats: Mapping[str, float] = field(default_factory=dict)
    analytical_estimate: float | None = None

    def __post_init__(self):
        if type(self.component_power) is not _RowView:
            object.__setattr__(self, "component_power", _RowView(_Table.of([self.component_power]), 0))
        if type(self.event_stats) is not _RowView:
            object.__setattr__(self, "event_stats", _RowView(_Table.of([self.event_stats]), 0))


@dataclass(frozen=True)
class Dataset:
    """Configurations and their power samples, stored as columns: per
    sample, its (config_id, workload) key, its total power and its
    analytical estimate (None if it has none), and its row of two samples
    x names float64 tables (NaN where it has no entry), the component
    powers and the event statistics.  Here, and only here, the samples are
    checked, in sample order: a positive total, then positive power labels.
    So are their references: distinct configuration ids, each with every
    parameter the table reads, and distinct (configuration, workload)
    samples of known configurations."""

    architecture: str
    configurations: tuple[Configuration, ...]
    component_table: tuple[ComponentDef, ...]
    keys: tuple[tuple[str, str], ...] = field(repr=False)
    totals: tuple[float, ...] = field(repr=False)
    estimates: tuple[float | None, ...] = field(repr=False)
    power: _Table = field(repr=False)
    events: _Table = field(repr=False)
    registry: ParameterRegistry = field(default_factory=builtin_registry)
    _config_index: dict[str, int] = field(init=False, repr=False, compare=False)
    _config_positions: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in ("keys", "totals", "estimates"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        n = len(self.keys)
        if not n == len(self.totals) == len(self.estimates) == len(self.power.values) == len(self.events.values):
            raise ValidationError("a dataset's sample columns differ in length")
        totals = np.array(self.totals, dtype=float)
        bad = np.flatnonzero(~(totals > 0) | (self.power.values <= 0).any(axis=1))
        if bad.size:
            i = bad[0]
            context = "sample ({}, {})".format(*self.keys[i])
            if not totals[i] > 0:
                raise ValidationError(f"{context}: total_power must be positive")
            name = list(self.power.columns)[np.argmax(self.power.values[i] <= 0)]
            raise ValidationError(f"{context}: nonpositive power label for {name!r}")
        index = {cfg.id: j for j, cfg in enumerate(self.configurations)}
        if len(index) != len(self.configurations):
            raise ValidationError("duplicate configuration ids")
        needed = dict.fromkeys(chain.from_iterable(c.hw_params for c in self.component_table))
        for cfg in self.configurations:
            if not needed.keys() <= cfg.params.keys():
                hw_row(tuple(needed), cfg)  # raises, naming the first parameter cfg lacks
        try:
            positions = np.array([index[cid] for cid, _ in self.keys], dtype=np.intp)
        except KeyError:
            cid, workload = next(key for key in self.keys if key[0] not in index)
            raise ValidationError(f"sample ({cid}, {workload}): unknown configuration id {cid!r}") from None
        if len(set(self.keys)) < n:
            seen: set[tuple[str, str]] = set()  # set.add returns None: next() stops at a repeat
            key = next(k for k in self.keys if k in seen or seen.add(k))
            raise ValidationError(f"duplicate sample for {key}")
        object.__setattr__(self, "_config_index", index)
        object.__setattr__(self, "_config_positions", positions)

    @classmethod
    def of_columns(cls, architecture, configurations, component_table, registry, keys, totals, power, events,
                   estimates=None) -> "Dataset":
        """Sample i has key keys[i], total totals[i], analytical estimate
        estimates[i] (default none) and row i of power and events, each a
        (names, samples x names float64 matrix) pair, NaN where it has no entry."""
        return cls(architecture, configurations, component_table, keys, totals,
                   [None] * len(keys) if estimates is None else estimates,
                   _Table(*power), _Table(*events), registry)

    @classmethod
    def of_samples(cls, architecture, configurations, samples, component_table, registry=None) -> "Dataset":
        """A Dataset of PowerSamples made by hand, in their order: the one
        place where samples are packed into tables."""
        samples = tuple(samples)
        return cls(
            architecture,
            configurations,
            component_table,
            [(s.config_id, s.workload) for s in samples],
            [s.total_power for s in samples],
            [s.analytical_estimate for s in samples],
            _Table.of([s.component_power for s in samples]),
            _Table.of([s.event_stats for s in samples]),
            builtin_registry() if registry is None else registry,
        )

    @cached_property
    def samples(self) -> tuple[PowerSample, ...]:
        """The samples as PowerSamples, made on first read, their mappings
        read-only views of their rows of the two tables."""
        return tuple(
            PowerSample(cid, workload, total, _RowView(self.power, i), _RowView(self.events, i), estimate)
            for i, ((cid, workload), total, estimate) in enumerate(zip(self.keys, self.totals, self.estimates))
        )

    @cached_property
    def _rows_by_config(self) -> list[np.ndarray]:
        """Each configuration's sample rows, in sample order, one array per
        configuration in configuration order."""
        order = np.argsort(self._config_positions, kind="stable")
        counts = np.bincount(self._config_positions, minlength=len(self.configurations))
        return np.split(order, np.cumsum(counts)[:-1])

    def config(self, config_id: str) -> Configuration:
        try:
            return self.configurations[self._config_index[config_id]]
        except KeyError:
            raise ValidationError(f"unknown configuration id {config_id!r}") from None

    def component(self, name: str) -> ComponentDef:
        for comp in self.component_table:
            if comp.name == name:
                return comp
        raise ValidationError(f"unknown component {name!r}")

    def config_ids(self) -> list[str]:
        return [cfg.id for cfg in self.configurations]


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


def _with_residual(power: Mapping, total, names: set[str]) -> Mapping:
    """power, or a new dict that adds Other Logic last, total less the left
    fold of power's values in power's own order, if power labels every
    component of the table but Other Logic, which the table has."""
    if OTHER_LOGIC in names and OTHER_LOGIC not in power and len(power) == len(names) - 1:
        return {**power, OTHER_LOGIC: float(total) - left_sum(power.values())}
    return power


def _check_sample(entry: dict, names: set[str]):
    """Raise on the first fault of one sample in format 1's form, checked
    against the component names.  _validated calls this on the samples that
    may be at fault, so that the message names the sample and the field."""
    cid = str(_require(entry, "config_id", "sample"))
    workload = str(_require(entry, "workload", f"sample of {cid}"))
    context = f"sample ({cid}, {workload})"
    numbers = [("total_power", _require(entry, "total_power", context))]
    for key in ("component_power", "event_stats"):
        numbers += [(f"{key} of {name}", v) for name, v in entry.get(key, {}).items()]
    if entry.get("analytical_estimate") is not None:
        numbers.append(("analytical_estimate", entry["analytical_estimate"]))
    for name, value in numbers:
        finite_number(value, f"{context} {name}")
    total = float(entry["total_power"])
    if total <= 0:
        raise ValidationError(f"{context}: total_power must be positive")
    comp_power = entry.get("component_power", {})
    for comp_name in comp_power:
        if comp_name not in names:
            raise ValidationError(f"{context}: unknown component {comp_name!r}")
    comp_power = _with_residual(comp_power, total, names)
    for comp_name, value in comp_power.items():
        if value <= 0:
            raise ValidationError(f"{context}: nonpositive power label for {comp_name!r}")
    parts = left_sum(comp_power.values())
    if len(comp_power) == len(names) and abs(parts - total) > COMPONENT_SUM_RTOL * total:
        raise ValidationError(
            f"{context}: component powers sum to {parts:.6g}, "
            f"total is {total:.6g} (beyond {COMPONENT_SUM_RTOL:.1%} tolerance)"
        )


def _format1_columns(entries: list, names: set[str]) -> tuple:
    """Format 1's sample list as (keys, totals, estimates, power, events),
    the two mappings as _rows gives them, each sample's Other Logic
    residual derived in the sample's own key order."""
    keys, powers = [], []
    for entry in entries:
        cid = str(_require(entry, "config_id", "sample"))
        keys.append((cid, str(_require(entry, "workload", f"sample of {cid}"))))
        powers.append(entry.get("component_power", {}))
        with suppress(TypeError, ValueError, OverflowError):  # not a number, which _check_sample names
            powers[-1] = _with_residual(powers[-1], entry.get("total_power"), names)
    totals, estimates = ([e.get(key) for e in entries] for key in ("total_power", "analytical_estimate"))
    return keys, totals, estimates, _rows(powers), _rows([e.get("event_stats", {}) for e in entries])


def _format2_columns(samples: dict) -> tuple:
    """Format 2's samples as (keys, totals, estimates, power, events), the
    two mappings as (names, rows, how many entries are not null); a list
    of the wrong length is a SchemaError that names the field."""
    n = len(samples["config_id"])

    def column(value, name: str) -> list:
        if type(value) is not list or len(value) != n:
            raise SchemaError(f"dataset: samples {name} is not a list of {n} entries, one per config_id")
        return value

    def table(key: str) -> tuple:
        names, rows = samples[key]["names"], column(samples[key]["rows"], f"{key} rows")
        if type(names) is not list or set(map(type, names)) - {str} or len(set(names)) < len(names):
            raise SchemaError(f"dataset: samples {key} names are not a list of distinct strings")
        for i, row in enumerate(rows):
            if type(row) is not list or len(row) != len(names):
                message = f"row {i} is not a list of {len(names)} entries, one per name"
                raise SchemaError(f"dataset: samples {key} {message}")
        return tuple(names), rows, n * len(names) - sum(row.count(None) for row in rows)

    keys = list(zip(*(map(str, column(samples[key], key)) for key in ("config_id", "workload"))))
    totals = column(samples["total_power"], "total_power")
    estimates = column(samples.get("analytical_estimate", [None] * n), "analytical_estimate")
    return keys, totals, estimates, table("component_power"), table("event_stats")


def _format1_entry(samples: dict, i: int) -> dict:
    """Sample i of format 2's samples in format 1's form."""
    entry = {key: samples[key][i] for key in ("config_id", "workload", "total_power")}
    for key in ("component_power", "event_stats"):
        pairs = zip(samples[key]["names"], samples[key]["rows"][i])
        entry[key] = {name: v for name, v in pairs if v is not None}
    entry["analytical_estimate"] = samples["analytical_estimate"][i] if "analytical_estimate" in samples else None
    return entry


def _validated(totals: list, estimates: list, power: tuple, events: tuple, names: set[str], entry) -> tuple:
    """(totals, estimates, power, events) as float lists and (names, matrix)
    pairs, of a file's sample columns: power and events as (names, rows,
    how many entries are given), entry(i) sample i in format 1's form.
    The columns are checked all at once for what _check_sample checks, and
    the samples that may be at fault go to _check_sample, in file order, to
    be named.  A sample that lacks only Other Logic gets the residual of its
    labels added up in column order."""
    (power_names, power_rows, power_given), (event_names, event_rows, event_given) = power, events

    def numbers():
        return (np.array(totals, dtype=float), np.array(estimates, dtype=float),
                _matrix(power_names, power_rows), _matrix(event_names, event_rows))

    # Only ints and floats, finite, and None only for an absent entry.
    cells = chain(estimates, chain.from_iterable(power_rows), chain.from_iterable(event_rows))
    present = (len(totals), len(estimates) - estimates.count(None), power_given, event_given)
    try:
        typed = set(map(type, totals)) <= {int, float} and set(map(type, cells)) <= {int, float, type(None)}
        arrays = typed and numbers()
    except OverflowError:  # an int beyond the float range
        arrays = None
    if not arrays or any(np.count_nonzero(np.isfinite(a)) != k for a, k in zip(arrays, present)):
        for i in range(len(totals)):
            _check_sample(entry(i), names)
        arrays = numbers()  # of numbers _check_sample takes, such as numpy's floats
    totals, estimates, power, event_values = arrays
    index = {name: j for j, name in enumerate(power_names)}
    unknown = [j for name, j in index.items() if name not in names]
    # Each sample's labels added up as left_sum adds them, in column order.
    parts = reduce(operator.add, np.where(np.isnan(power), 0.0, power).T, np.zeros(len(power)))
    others = [index.get(name) for name in names if name != OTHER_LOGIC]
    if OTHER_LOGIC in names and None not in others:
        j = index.get(OTHER_LOGIC)
        derive = ~np.isnan(power[:, others]).any(axis=1) & (True if j is None else np.isnan(power[:, j]))
        if derive.any():
            if j is None:
                j = index[OTHER_LOGIC] = len(index)
                power = np.hstack([power, np.full((len(power), 1), np.nan)])
            power[derive, j] = totals[derive] - parts[derive]
            parts[derive] += power[derive, j]  # added last, as _with_residual adds it
    # The sum check's slack leaves a format-1 sample whose keys add up in
    # an order of their own to _check_sample, which decides.
    off = (np.count_nonzero(~np.isnan(power), axis=1) == len(names)) & (
        np.abs(parts - totals) > COMPONENT_SUM_RTOL * (1 - 1e-9) * totals)
    bad = ~(totals > 0) | ~np.isnan(power[:, unknown]).all(axis=1) | (power <= 0).any(axis=1) | off
    for i in np.flatnonzero(bad):
        _check_sample(entry(i), names)
    if unknown:  # a name that no sample labels
        name = power_names[unknown[0]]
        raise SchemaError(f"dataset: samples component_power name {name!r} is not a component of the table")
    estimates = [v if v == v else None for v in estimates.tolist()]
    return totals.tolist(), estimates, (list(index), power), (event_names, event_values)


def read_json_file(path: str | os.PathLike, kind: str):
    """Parse a JSON file; an unreadable, malformed or too deeply nested one
    raises ParseError."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {kind} file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"malformed {kind} file {path}: {exc}") from exc
    except RecursionError:
        raise ParseError(f"{kind} file {path} is nested too deeply to parse") from None


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
    version = format_version(doc, "dataset")
    architecture = str(_require(doc, "architecture", "dataset"))
    registry = _parse_registry(doc)
    table = _parse_component_table(doc, registry)
    raw_configs = _require(doc, "configurations", "dataset")
    if not raw_configs:
        raise SchemaError("dataset has no configurations")
    configurations = tuple(
        _parse_configuration(entry, architecture, registry) for entry in raw_configs
    )
    samples = _require(doc, "samples", "dataset")
    names = {c.name for c in table}
    if version == 1:
        keys, totals, estimates, power, events = _format1_columns(samples, names)
        entry = samples.__getitem__
    else:
        keys, totals, estimates, power, events = _format2_columns(samples)
        entry = partial(_format1_entry, samples)
    totals, estimates, power, events = _validated(totals, estimates, power, events, names, entry)
    # Samples share their configuration's id and workload name strings.
    config_ids = {c.id: c.id for c in configurations}
    workloads: dict[str, str] = {}
    keys = [(config_ids.get(c, c), workloads.setdefault(w, w)) for c, w in keys]
    return Dataset.of_columns(architecture, configurations, table, registry, keys, totals, power, events, estimates)


def load_dataset(path: str | os.PathLike) -> Dataset:
    return dataset_from_dict(read_json_file(path, "dataset"))


def _named_rows_to_dict(table: _Table) -> dict:
    """{"names": the column names, "rows": one list per sample, null where it has no entry}."""
    values = table.values if table.dense else np.where(np.isnan(table.values), None, table.values)
    return {"names": list(table.columns), "rows": values.tolist()}


def dataset_to_dict(ds: Dataset) -> dict:
    """ds as a format-2 document, the sample columns read from its matrices."""
    samples = {
        "config_id": [cid for cid, _ in ds.keys],
        "workload": [workload for _, workload in ds.keys],
        "total_power": list(ds.totals),
        "component_power": _named_rows_to_dict(ds.power),
        "event_stats": _named_rows_to_dict(ds.events),
    }
    if any(e is not None for e in ds.estimates):
        samples["analytical_estimate"] = list(ds.estimates)
    return {
        "format_version": FORMAT_VERSION,
        "architecture": ds.architecture,
        "parameters": {
            "canonical": list(ds.registry.canonical),
            "aliases": dict(ds.registry.aliases),
        },
        "component_table": [component_to_dict(c) for c in ds.component_table],
        "configurations": [{"id": c.id, "params": dict(c.params)} for c in ds.configurations],
        "samples": samples,
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


def _lacks_label(key: tuple[str, str], component: str) -> ValidationError:
    return ValidationError("sample ({}, {}) lacks a label for {!r}".format(*key, component))


def component_labels(ds: Dataset, component: str) -> np.ndarray:
    """Each sample's label for one component, in sample order;
    ValidationError naming the first sample that lacks it."""
    labels = ds.power.column(component)
    missing = np.flatnonzero(np.isnan(labels))
    if missing.size:
        raise _lacks_label(ds.keys[missing[0]], component)
    return labels


def average_power_per_config(ds: Dataset, component: str) -> dict[str, float]:
    """Arithmetic mean of a component's power over each configuration's
    workloads: a left fold over its samples in sample order."""
    comp = ds.component(component)
    labels = ds.power.column(comp.name)
    result: dict[str, float] = {}
    for cfg, rows in zip(ds.configurations, ds._rows_by_config):
        if not rows.size:
            raise ValidationError(f"configuration {cfg.id!r} has no samples")
        values = labels[rows]
        missing = np.flatnonzero(np.isnan(values))
        if missing.size:
            raise _lacks_label(ds.keys[rows[missing[0]]], comp.name)
        result[cfg.id] = left_sum(values.tolist()) / len(rows)
    return result


def few_shot_split(ds: Dataset, labeled_config_ids: list[str]) -> tuple[Dataset, Dataset]:
    """Split into (labeled-train, held-out-test) datasets by configuration
    id, each with its samples' rows in sample order under ds's names."""
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
    is_labeled = [c.id in labeled_set for c in ds.configurations]
    labeled_rows = np.array(is_labeled, dtype=bool)[ds._config_positions]

    def subset(keep: bool) -> Dataset:
        rows = np.flatnonzero(labeled_rows == keep)
        picked = rows.tolist()
        return Dataset(
            ds.architecture,
            tuple(c for c, flag in zip(ds.configurations, is_labeled) if flag == keep),
            ds.component_table,
            [ds.keys[i] for i in picked],
            [ds.totals[i] for i in picked],
            [ds.estimates[i] for i in picked],
            _Table(ds.power.columns, ds.power.values[rows]),
            _Table(ds.events.columns, ds.events.values[rows]),
            ds.registry,
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
    """One feature_row per sample, in sample order: n_samples x (|H_i| + |E_i|).

    Built from the configurations' H_i rows and the event-statistic
    columns; a sample that lacks an event statistic raises feature_row's
    ValidationError, the first such sample in sample order."""
    hw = np.array([hw_row(comp.hw_params, cfg) for cfg in ds.configurations])
    X = np.empty((len(ds.keys), len(comp.hw_params) + len(comp.event_stats)))
    X[:, : len(comp.hw_params)] = hw.reshape(-1, len(comp.hw_params))[ds._config_positions]
    for j, name in enumerate(comp.event_stats, start=len(comp.hw_params)):
        X[:, j] = ds.events.column(name)
    for i in np.flatnonzero(np.isnan(X).any(axis=1)):
        cid, workload = ds.keys[i]
        try:
            feature_row(comp, ds.config(cid), ds.events.row_dict(i))
        except ValidationError as exc:
            raise ValidationError(f"sample ({cid}, {workload}): {exc}") from None
    return X
