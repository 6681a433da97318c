"""Spans and counters at the boundaries of firepower's public functions.

The tracer wraps functions from the benchmark's side: while installed, the
module-level names and class attributes listed in ``TARGETS`` are replaced
by timing wrappers in every ``firepower`` module that binds them, and
``uninstall`` puts the originals back, so untraced rounds run the program
untouched.  Each span records its id, parent, round, name, start and end;
spans are kept in memory and written as JSON lines by ``write_jsonl``.

A span's self time is its duration minus the time its direct children
cover.  Counters are taken at the same boundaries.  Work the tracer does
for itself after a call returns (such as counting tree nodes) is charged
to neither the span nor its parent.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
from time import perf_counter

import numpy as np


def _fit_counts(args, kwargs, model):
    return {
        "trees.fits": 1,
        "trees.fit_rows": int(np.shape(args[0])[0]),
        "trees.nodes": sum(_node_count(t) for t in model.trees),
    }


def _node_count(root) -> int:
    count, stack = 0, [root]
    while stack:
        node = stack.pop()
        count += 1
        if node.left is not None:
            stack.append(node.left)
            stack.append(node.right)
    return count


def _predict_many_counts(args, kwargs, out):
    return {"trees.predict_many_rows": int(out.shape[0])}


def _load_counts(args, kwargs, ds):
    return {"dataset.samples_loaded": len(ds.samples)}


def _method_span(args, kwargs):
    return "harness." + args[0]


# (span name or name function, module, owner attribute path, counter function)
TARGETS = (
    ("dataset.load", "dataset", "load_dataset", _load_counts),
    ("dataset.average_power", "dataset", "average_power_per_config", None),
    ("dataset.split", "dataset", "few_shot_split", None),
    ("trees.fit", "trees", "fit_gbt", _fit_counts),
    ("trees.predict", "trees", "GbtModel.predict", None),
    ("trees.predict_many", "trees", "GbtModel.predict_many", _predict_many_counts),
    ("trees.codec", "trees", "gbt_to_dict", None),
    ("trees.codec", "trees", "gbt_from_dict", None),
    ("knowledge.extract", "knowledge", "extract_knowledge", None),
    ("knowledge.save", "knowledge", "save_knowledge_base", None),
    ("knowledge.load", "knowledge", "load_knowledge_base", None),
    ("application.build", "application", "build_target_model", None),
    ("application.event_fit", "application", "train_event_model", None),
    ("application.hw_predict", "application", "EffectiveHardwareModel.predict", None),
    ("application.predict_component", "application", "FirePowerModel.predict_component_power", None),
    ("application.save", "application", "save_model", None),
    ("application.load", "application", "load_model", None),
    ("generalization.evaluate", "generalization", "evaluate_generalization", None),
    ("baselines.train_monolithic", "baselines", "train_monolithic", None),
    ("baselines.train_per_component", "baselines", "train_monolithic_per_component", None),
    ("baselines.transfer_build", "baselines", "TransferWrapper.build", None),
    ("harness.run_experiment", "harness", "run_experiment", None),
    (_method_span, "harness", "_method_predictions", None),
)


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (id, parent, round, name, start, end)
        self.self_s: dict[str, float] = {}
        self.total_s: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.counts: dict[str, int] = {}
        self.bookkeeping_s = 0.0  # time after a child span, charged to no span
        self.round = 0
        self._stack: list[list] = []  # [span id, seconds covered by children]
        self._restore: list[tuple] = []

    # -- spans -------------------------------------------------------------

    def call(self, name, fn, args=(), kwargs=None, counter=None):
        """Run fn(*args, **kwargs) inside a span named ``name``."""
        kwargs = kwargs or {}
        if callable(name):
            name = name(args, kwargs)
        stack = self._stack
        span_id = len(self.spans)
        parent = stack[-1] if stack else None
        frame = [span_id, 0.0]
        self.spans.append(None)  # reserve the id; filled in on exit
        stack.append(frame)
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            self.spans[span_id] = (
                span_id, parent[0] if parent else None, self.round, name, start, end
            )
            duration = end - start
            self.self_s[name] = self.self_s.get(name, 0.0) + duration - frame[1]
            self.total_s[name] = self.total_s.get(name, 0.0) + duration
            self.calls[name] = self.calls.get(name, 0) + 1
        if counter is not None:
            for key, value in counter(args, kwargs, result).items():
                self.counts[key] = self.counts.get(key, 0) + value
        if parent is not None:
            # The parent's children cover this span plus the bookkeeping above.
            done = perf_counter()
            self.bookkeeping_s += done - end
            parent[1] += done - start
        return result

    # -- patching ----------------------------------------------------------

    def install(self):
        """Wrap every target in place until ``uninstall``."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in sys.modules.items() if n == "firepower" or n.startswith("firepower.")]
        for name, module_name, attr, counter in TARGETS:
            owner = importlib.import_module("firepower." + module_name)
            *owner_path, leaf = attr.split(".")
            for part in owner_path:
                owner = getattr(owner, part)
            if owner_path:  # a method on a class
                raw = owner.__dict__[leaf]
                wrapped = self._wrapper(name, getattr(raw, "__func__", raw), counter)
                if isinstance(raw, classmethod):
                    wrapped = classmethod(wrapped)
                self._restore.append((owner, leaf, raw))
                setattr(owner, leaf, wrapped)
                continue
            original = getattr(owner, leaf)
            wrapped = self._wrapper(name, original, counter)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, key, original))
                        setattr(module, key, wrapped)

    def uninstall(self):
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    def _wrapper(self, name, fn, counter):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, args, kwargs, counter)

        return wrapper

    # -- output ------------------------------------------------------------

    def write_jsonl(self, path: str, origin: float):
        """One JSON object per span; times in seconds since ``origin``."""
        tmp = path + ".tmp"
        with open(tmp, "w") as fh:
            for span_id, parent, rnd, name, start, end in self.spans:
                fh.write(
                    f'{{"id": {span_id}, "parent": {"null" if parent is None else parent}, '
                    f'"round": {rnd}, "name": "{name}", '
                    f'"start": {start - origin:.9f}, "end": {end - origin:.9f}}}\n'
                )
        os.replace(tmp, path)
